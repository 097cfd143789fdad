import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivpoq.hashing import (
    AFFINE_MOD_PRIME,
    K_MAX,
    P,
    Gf2AffineHash,
    HashFn,
    _eval_m61,
    enumerate_gf2_affine,
    eval_segments,
    pairwise_bias_bound,
    sample_hash,
    sample_hash_pairs,
)
from ivpoq.streams import SessionStreams
from ivpoq.verifier import grid_sizes

from builders import hash_columns, identity_hash


def test_identity_member_evaluates_to_input():
    h = identity_hash(3)
    assert h.eval(0b101) == 5
    assert [h.eval(x) for x in range(8)] == list(range(8))


def test_constant_member_mod_prime():
    # a = 0 is a legal, degenerate family member: x -> 7 mod 5 = 2
    h = HashFn(ell=4, k=5, a=0, b=7, p=(1 << 61) - 1)
    assert all(h.eval(x) == 2 for x in range(16))


def test_gf2_affine_hand_example():
    # rows 110, 011 with no shift: x = 110 -> bits (1^1, 1^0) = 01 -> 1
    h = Gf2AffineHash(ell=3, k=4, rows=(0b110, 0b011), shift=0)
    assert h.eval(0b110) == 0b01
    # cross-check every x against explicit GF(2) matrix-vector arithmetic
    for x in range(8):
        bits = [(0b110, 1), (0b011, 0)]
        want = 0
        for row, pos in bits:
            dot = bin(row & x).count("1") % 2
            want |= dot << pos
        assert h.eval(x) == want


def test_sampling_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_hash(3, 0, rng)
    with pytest.raises(ValueError):
        sample_hash(99, 4, rng)
    with pytest.raises(ValueError, match="k must be >= 1"):
        sample_hash_pairs(3, [4, 0], SessionStreams(0, 0, 2))
    with pytest.raises(ValueError, match="power-of-two"):
        next(enumerate_gf2_affine(3, 6))


def test_sampling_is_deterministic_given_rng_state():
    h1 = sample_hash(8, 37, np.random.default_rng(123))
    h2 = sample_hash(8, 37, np.random.default_rng(123))
    assert h1 == h2


def test_eval_output_range():
    rng = np.random.default_rng(7)
    for _ in range(20):
        h = sample_hash(5, 11, rng)
        ys = h.eval_many(np.arange(32))
        assert ys.min() >= 0 and ys.max() < 11


def test_exact_pairwise_independence_small_family():
    # brute force over the whole family: each (y, y') pair hit exactly
    # |family| / k^2 times for every x != x'
    for ell, k in ((2, 2), (3, 4), (2, 8)):
        members = list(enumerate_gf2_affine(ell, k))
        target, rem = divmod(len(members), k * k)
        assert rem == 0
        counts = np.zeros((1 << ell, 1 << ell, k, k), dtype=np.int64)
        for h in members:
            ys = [h.eval(x) for x in range(1 << ell)]
            for x, xp in product(range(1 << ell), repeat=2):
                if x != xp:
                    counts[x, xp, ys[x], ys[xp]] += 1
        for x, xp in product(range(1 << ell), repeat=2):
            if x != xp:
                assert (counts[x, xp] == target).all()


def test_pair_probability_quarter_for_ell3_k4():
    # (ell=3, k=4): 2^(2*3) * 2^2 = 256 members; every pair probability 1/16
    members = list(enumerate_gf2_affine(3, 4))
    assert len(members) == 256
    hits = 0
    for h in members:
        hits += h.eval(0b001) == 3 and h.eval(0b110) == 1
    assert hits * 16 == 256


def _preimages(h, y, s):
    """{x in S : h(x) = y}, sorted, by the vectorized filter V2 uses."""
    xs = np.array(sorted(s), dtype=np.int64)
    return [int(x) for x in xs[h.eval_many(xs) == y]]


def test_preimage_in_set():
    ident = identity_hash(3)
    assert _preimages(ident, 3, {0b011, 0b100}) == [0b011]
    const = HashFn(ell=4, k=5, a=0, b=7, p=(1 << 61) - 1)
    s = {1, 9, 4}
    assert _preimages(const, 2, s) == sorted(s)
    assert _preimages(const, 0, s) == []
    rng = np.random.default_rng(11)
    h = sample_hash(4, 6, rng)
    s = set(int(v) for v in rng.integers(0, 16, size=9))
    got = _preimages(h, 2, s)
    assert got == sorted(x for x in s if h.eval(x) == 2)


def test_pairwise_bias_bound():
    rng = np.random.default_rng(3)
    h = sample_hash(20, 1 << 10, rng)
    bound = pairwise_bias_bound(h)
    assert math.isclose(bound, 2 * h.k / h.p + (h.k / h.p) ** 2)
    assert bound < 2.0 ** -49.9
    h1 = sample_hash(4, 1, rng)
    assert pairwise_bias_bound(h1) <= 3 / h1.p


def test_k_max_member_bias_is_about_2_to_the_minus_35():
    rng = np.random.default_rng(4)
    h = sample_hash(24, K_MAX, rng)
    assert pairwise_bias_bound(h) < 2.0 ** -34.99
    assert 0 <= h.eval(12345) < h.k


@pytest.mark.parametrize("eps", [0.01, 0.1, 0.5, 0.99])
def test_one_prime_serves_every_grid(eps):
    # Every grid size at ell <= ELL_CAP is at most 2^(ell+1) <= K_MAX.
    for ell in range(1, 25):
        assert max(grid_sizes(ell, eps)) <= min(1 << (ell + 1), K_MAX), (ell, eps)


_M61 = P
_X24 = st.one_of(st.just(0), st.integers((1 << 24) - 64, (1 << 24) - 1), st.integers(0, (1 << 24) - 1))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, _M61 - 1),
    st.integers(0, _M61 - 1),
    st.integers(1, (1 << 21) - 1),
    st.lists(_X24, min_size=1, max_size=16),
)
def test_eval_many_m61_matches_scalar_eval(a, b, k, xs):
    h = HashFn(ell=24, k=k, a=a, b=b, p=_M61)
    want = [h.eval(x) for x in xs]
    assert h.eval_many(xs).tolist() == want
    # eval_many takes Python ints on short arrays; check the uint64 kernel itself.
    assert _eval_m61(np.array(xs, dtype=np.int64), *np.uint64([a, b, k])).tolist() == want


@pytest.mark.parametrize("k", [1, 7, 1 << 25])
@pytest.mark.parametrize(
    "a,b",
    [
        (_M61 - 1, _M61 - 1),
        (_M61 - 1, 0),
        (0, _M61 - 1),
        (((1 << 37) - 1) << 24, _M61 - 2),
        (_M61 - 1, (1 << 24) - 1),
    ],
)
def test_eval_many_m61_at_its_bounds(a, b, k):
    # The largest a, b and x put the uint64 sums nearest 2^63 and the
    # folded value nearest 2p.  In the last pair a*x + b = 0 (mod p) at
    # x = 2^24-1, where the fold lands on p itself and only the final
    # subtraction reduces it.
    h = HashFn(ell=24, k=k, a=a, b=b, p=_M61)
    xs = [0, 1, (1 << 24) - 2, (1 << 24) - 1]
    want = [h.eval(x) for x in xs]
    assert _eval_m61(np.array(xs, dtype=np.int64), *np.uint64([a, b, k])).tolist() == want
    many = np.array(xs * 20, dtype=np.int64)  # long enough for the kernel path
    assert h.eval_many(many).tolist() == want * 20


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, _M61 - 1),
            st.integers(0, _M61 - 1),
            st.integers(1, (1 << 21) - 1),
            st.lists(_X24, max_size=40),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_eval_segments_equals_member_by_member(members):
    # One kernel call with per-seed (a, b, k); empty runs included.
    hashes = [HashFn(ell=24, k=k, a=a, b=b, p=P) for a, b, k, _ in members]
    runs = [np.array(xs, dtype=np.int64) for *_, xs in members]
    lens = np.array([len(run) for run in runs], dtype=np.int64)
    want = [y for h, run in zip(hashes, runs) for y in h.eval_many(run).tolist()]
    assert eval_segments(hash_columns(hashes), np.concatenate(runs), lens).tolist() == want


def test_json_roundtrip():
    rng = np.random.default_rng(9)
    h = sample_hash(6, 12, rng)
    assert h.to_json_dict()["family"] == AFFINE_MOD_PRIME
    assert HashFn.from_json_dict(h.to_json_dict()) == h


@pytest.mark.parametrize("family", ["gf2-affine", "nope"])
def test_from_json_rejects_other_families(family):
    d = sample_hash(6, 12, np.random.default_rng(9)).to_json_dict()
    d["family"] = family
    with pytest.raises(ValueError, match="hash family"):
        HashFn.from_json_dict(d)


@pytest.mark.parametrize("ell", [3, 6])
def test_sample_hash_pairs_equal_sample_hash(ell):
    # Every k draws mod P with Lemire on next64; the rows mix k on both
    # sides of the old 2^21 cut-off up to K_MAX.
    ks = [1, 7, (1 << 21) - 1, 1 << 21, (1 << 21) + 1, K_MAX]
    seed, lo, hi = 2**33 + 5, 11, 11 + 3 * len(ks)
    row_ks = [ks[i % len(ks)] for i in range(hi - lo)]
    streams = SessionStreams(seed, lo, hi)
    pairs = sample_hash_pairs(ell, row_ks, streams)
    after = streams.integers(1 << 32).tolist()
    assert all(col.dtype == np.uint64 for col in pairs)
    for i, k in zip(range(lo, hi), row_ks):
        rng = np.random.default_rng([seed, i])
        want = [sample_hash(ell, k, rng) for _ in range(2)]
        assert [pairs.member(ell, 2 * (i - lo) + b) for b in (0, 1)] == want
        # Both streams are left at the same place.
        assert after[i - lo] == int(rng.integers(1 << 32))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24), st.one_of(st.integers(1, 1 << 22), st.integers(K_MAX - 3, K_MAX), st.integers(1, K_MAX)))
def test_every_k_up_to_k_max_samples_the_one_prime(ell, k):
    assert sample_hash(ell, k, np.random.default_rng(0)).p == P
    pairs = sample_hash_pairs(ell, [k, 1], SessionStreams(3, 0, 2))
    assert [pairs.member(ell, i).p for i in range(4)] == [P] * 4
    assert pairs.k.tolist() == [k, k, 1, 1]


@pytest.mark.parametrize("ks", [[K_MAX + 1], [3, K_MAX + 1], [1 << 87]])
def test_k_beyond_the_last_prime_raises(ks):
    # P is the one prime, and K_MAX the largest k it serves.
    with pytest.raises(ValueError, match="K_MAX"):
        sample_hash(6, ks[-1], np.random.default_rng(0))
    with pytest.raises(ValueError, match="K_MAX"):
        sample_hash_pairs(6, ks, SessionStreams(3, 0, len(ks)))
