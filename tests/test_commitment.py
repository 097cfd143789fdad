import hashlib
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import interned_law, receiver_seeds, replayed_seeds
from ivpoq import commitment
from ivpoq.commitment import (
    commit_leaves,
    hiding_distance,
    make_scheme,
    run_classical_commit,
    transcript_distributions,
)


def hm2_alpha2_reference(ell, a, r, x, b):
    """Independent re-implementation of the hm2 round-2 message."""
    nb = (ell + 7) // 8
    digest = hashlib.sha256(b"hm2" + r.to_bytes(nb, "big") + x.to_bytes(nb, "big")).digest()
    y0 = int.from_bytes(digest[:4], "big") >> (32 - (ell - a))
    e = bin(r & x).count("1") % 2
    out_bytes = (ell - a + 7) // 8
    return y0.to_bytes(out_bytes, "big") + bytes([e ^ b])


def test_const_messages():
    sch = make_scheme("const", 4)
    assert sch.sender_msg(1, 0, 7, ()) == b""
    assert sch.sender_msg(1, 1, 12, ()) == b""
    assert sch.receiver_msg(1, 9, (b"",)) == b""


def test_ident_messages():
    sch = make_scheme("ident", 4)
    assert sch.sender_msg(1, 1, 0b0101, ()) == b"\x01\x05"
    assert sch.receiver_msg(1, 3, (b"\x01\x05",)) == b""


def test_hm2_messages_against_reference():
    ell, a = 10, 4
    sch = make_scheme("hm2", ell, a=a)
    rng = np.random.default_rng(0)
    for _ in range(40):
        r = int(rng.integers(1 << ell))
        x = int(rng.integers(1 << ell))
        b = int(rng.integers(2))
        beta1 = sch.receiver_msg(1, r, (b"",))
        assert beta1 == r.to_bytes(2, "big")
        alpha2 = sch.sender_msg(2, b, x, (b"", beta1))
        assert alpha2 == hm2_alpha2_reference(ell, a, r, x, b)


def test_round_validation():
    sch = make_scheme("hm2", 6, a=3)
    with pytest.raises(ValueError):
        sch.sender_msg(3, 0, 0, ())
    with pytest.raises(ValueError):
        sch.sender_msg(2, 0, 0, ())  # prefix too short
    with pytest.raises(ValueError):
        sch.receiver_msg(1, 0, ())


def test_perfect_correctness_all_schemes():
    rng = np.random.default_rng(1)
    for name, kwargs in (("const", {}), ("ident", {}), ("hm2", {"a": 3})):
        sch = make_scheme(name, 6, **kwargs)
        for _ in range(25):
            b = int(rng.integers(2))
            x = int(rng.integers(64))
            r = int(rng.integers(64))
            t = run_classical_commit(sch, b, x, r)
            assert sch.open_verify(t, b, x)
            assert x in sch.consistent_seeds(t, b).tolist()


def test_open_verify_flipped_bit_fails_for_hm2():
    sch = make_scheme("hm2", 8, a=4)
    t = run_classical_commit(sch, 0, 77, 13)
    assert sch.open_verify(t, 0, 77)
    assert not sch.open_verify(t, 1, 77)


def test_open_verify_const_accepts_both_bits():
    sch = make_scheme("const", 5)
    t = run_classical_commit(sch, 0, 11, 22)
    for b in (0, 1):
        for x in (0, 11, 31):
            assert sch.open_verify(t, b, x)


def test_open_verify_malformed_transcript():
    sch = make_scheme("const", 4)
    with pytest.raises(ValueError):
        sch.open_verify((b"",), 0, 0)


def test_consistent_sets_ident():
    sch = make_scheme("ident", 4)
    t = run_classical_commit(sch, 1, 0b0101, 0)
    assert sch.consistent_seeds(t, 1).tolist() == [0b0101]
    assert sch.consistent_seeds(t, 0).tolist() == []


def test_consistent_sets_const():
    sch = make_scheme("const", 4)
    t = run_classical_commit(sch, 0, 3, 5)
    assert sch.consistent_seeds(t, 0).tolist() == list(range(16))
    assert sch.consistent_seeds(t, 1).tolist() == list(range(16))


@pytest.mark.parametrize("name", ["const", "ident"])
def test_one_round_consistent_sets_need_a_transcript_a_receiver_sends(name):
    sch = make_scheme(name, 4)
    t = run_classical_commit(sch, 1, 5, 0)
    for bad in ((), t[:1], t + (b"",)):
        with pytest.raises(ValueError):
            sch.consistent_seeds(bad, 1)
    # No receiver seed sends a non-empty beta_1, so no seed is consistent.
    assert sch.consistent_seeds((t[0], b"\x00"), 1).tolist() == []


def test_consistent_sets_hm2_match_independent_scan():
    # the vectorized filter equals a second scan built on the reference
    ell, a = 9, 4
    sch = make_scheme("hm2", ell, a=a)
    t = run_classical_commit(sch, 1, 100, 313)
    for b in (0, 1):
        got = sch.consistent_seeds(t, b).tolist()
        want = [
            x
            for x in range(1 << ell)
            if hm2_alpha2_reference(ell, a, 313, x, b) == t[2]
        ]
        assert got == want
    assert 100 in sch.consistent_seeds(t, 1).tolist()


def _row(sch, r):
    """r's table as views of its slab row: (seed order, class starts)."""
    tables = sch.rows(np.array([r]))
    return tables.orders[tables.slot[0]], tables.starts[tables.slot[0]]


@pytest.mark.parametrize("ell,a", [(5, 4), (8, 1), (9, 1), (12, 8), (17, 1)])
def test_hm2_bucket_matches_reference_for_every_seed(ell, a):
    # out_bits 1, 7, 8, 4, 16; seed widths of 1, 1, 2, 2, 3 bytes; ell=12
    # and ell=17 span several fill blocks.
    sch = make_scheme("hm2", ell, a=a)
    n = 1 << ell
    n_keys = 2 << (ell - a)
    for r in (0, n - 1, 0x5A5A5 % n):
        order, starts = _row(sch, r)
        want = [hm2_alpha2_reference(ell, a, r, x, 0) for x in range(n)]
        classes = [[] for _ in range(n_keys)]
        for x, m in enumerate(want):
            classes[int.from_bytes(m[:-1], "big") << 1 | m[-1]].append(x)
        assert len(starts) == n_keys + 1
        for key in range(n_keys):
            got = order[starts[key] : starts[key + 1]].astype(np.int64)
            assert got.dtype == np.int64 and got.tolist() == classes[key]
    # The cache bound counts the bytes of a real entry.
    entry = order.nbytes + starts.nbytes
    assert sch._max_cached == max(4, commitment._CACHE_BYTES // entry)


def _law_by_alpha(law):
    """{alpha: (count, s0, s1)} of a round law, its splits as lists."""
    out = {}
    for i in range(len(law.counts)):
        s0, s1 = law.split(i)
        out[law.alpha(i)] = (int(law.counts[i]), s0.tolist(), s1.tolist())
    return out


@pytest.mark.parametrize(
    "name,ell,kwargs,r",
    [
        ("hm2", 5, {"a": 4}, 0),
        ("hm2", 6, {"a": 3}, 17),
        ("hm2", 8, {"a": 4}, 200),
        ("hm2", 9, {"a": 1}, 313),
        ("hm2", 12, {"a": 8}, 4095),
        ("ident", 6, {}, 5),
        ("const", 5, {}, 9),
    ],
    ids=["hm2-5-4-0", "hm2-6-3-17", "hm2-8-4-200", "hm2-9-1-313", "hm2-12-8-4095", "ident-6-5", "const-5-9"],
)
def test_commit_law_equals_the_interned_law(name, ell, kwargs, r):
    # Every round's law on the full state against the reference that calls
    # f_j on every branch: one message outside the keyed round, the class
    # table (no message computed) in it, where no other state has a law.
    sch = make_scheme(name, ell, **kwargs)
    n = 1 << ell
    full = np.arange(n, dtype=np.int64)
    sparse0 = full[::3]
    sparse1 = np.flatnonzero(np.random.default_rng([ell, r]).random(n) < 0.4).astype(np.int64)
    t = run_classical_commit(sch, 0, 0, r)
    sender_msg, calls = sch.sender_msg, []
    sch.sender_msg = lambda *args: calls.append(args) or sender_msg(*args)
    for j in range(1, sch.rounds + 1):
        prefix = t[: 2 * j - 2]
        keyed = j == sch.keyed_round
        calls.clear()
        law = sch.alpha_partition(j, full, full.copy(), prefix)
        assert len(calls) == (0 if keyed else 1)
        assert law.counts.dtype == np.int64 and law.counts.min() > 0
        assert (np.diff(law.keys) > 0).all()  # the order draws use
        assert _law_by_alpha(law) == _law_by_alpha(interned_law(sch, j, full, full, prefix))
        for i in range(len(law.counts)):
            s0, s1 = law.split(i)
            assert s0.dtype == s1.dtype == np.int64
        if keyed:
            with pytest.raises(ValueError):
                sch.alpha_partition(j, sparse0, sparse1, prefix)
        else:
            law = sch.alpha_partition(j, sparse0, sparse1, prefix)
            assert _law_by_alpha(law) == _law_by_alpha(interned_law(sch, j, sparse0, sparse1, prefix))
    assert sch.keyed_round == {"hm2": 2, "ident": 1, "const": 0}[name]


def test_one_class_rounds_keep_the_state():
    xs0, xs1 = np.arange(8, dtype=np.int64), np.arange(8, dtype=np.int64)[::2]
    for sch in (make_scheme("hm2", 3, a=1), make_scheme("const", 3)):
        law = sch.alpha_partition(1, xs0, xs1, ())
        assert law.counts.tolist() == [12] and law.alpha(0) == b""
        s0, s1 = law.split(0)
        assert s0 is xs0 and s1 is xs1
        # The empty state has no message to observe.
        assert sch.alpha_partition(1, xs0[:0], xs1[:0], ()).counts.tolist() == []


def test_hm2_pickle_drops_cache_and_keeps_answers():
    sch = make_scheme("hm2", 9, a=4)
    t = run_classical_commit(sch, 1, 100, 313)
    want = sch.consistent_mask(t, 1)
    assert (sch._slot >= 0).any()
    copy = pickle.loads(pickle.dumps(sch))
    assert (copy._slot < 0).all() and not copy._tick.any()
    assert (copy.consistent_mask(t, 1) == want).all()
    # 100 ell=12 tables fill 800 KB of the slab; the pickle carries none.
    big = make_scheme("hm2", 12, a=8)
    big.rows(np.arange(100))
    assert (big._slot >= 0).sum() == 100
    assert len(pickle.dumps(big)) < 64 << 10


def test_hm2_fill_holds_only_its_table():
    # After the first fill the scheme keeps the table and nothing of the
    # size of 2^ell Python objects (per-seed byte strings would be ~2.8 MB).
    sch = make_scheme("hm2", 16, a=8)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        order, starts = _row(sch, 12345)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    own = order.nbytes + starts.nbytes
    assert held < 2 * own


def _four_table_hm2(monkeypatch):
    """hm2 at ell=9 whose slab holds four tables."""
    monkeypatch.setattr(commitment, "_CACHE_BYTES", 0)
    sch = make_scheme("hm2", 9, a=4)
    assert sch._max_cached == sch.capacity == 4 and sch._orders.shape == (4, 512)
    return sch


def _held(sch):
    return set(np.flatnonzero(sch._slot >= 0).tolist())


def test_hm2_slab_evicts_the_least_recently_used_table(monkeypatch):
    sch = _four_table_hm2(monkeypatch)
    for r in (1, 2, 3, 4):
        sch.rows(np.array([r]))
    sch.rows(np.array([1]))
    sch.rows(np.array([5]))
    assert _held(sch) == {1, 3, 4, 5}
    # One lookup uses its tables at once: 3 and 5 stay, 4 is evicted.
    sch.rows(np.array([3, 6, 3, 5]))
    assert _held(sch) == {1, 3, 5, 6}
    # Cycling 12 receiver seeds through the four slots keeps every answer.
    for r in range(12):
        t = run_classical_commit(sch, r & 1, 37 * r, r)
        for b in (0, 1):
            assert sch.consistent_seeds(t, b).tolist() == replayed_seeds(sch, t, b), (r, b)
        assert len(_held(sch)) <= 4
    with pytest.raises(RuntimeError, match="more than 4 receiver seeds"):
        sch.rows(np.arange(5))


def test_hm2_split_survives_a_refill_of_its_slot(monkeypatch):
    # A round law splits on demand; fills past the slab's bound between
    # alpha_partition and split reuse r's slot, and the split still reads r's table.
    sch = _four_table_hm2(monkeypatch)
    full = np.arange(512, dtype=np.int64)
    prefix = run_classical_commit(sch, 0, 7, 300)[:2]
    law = sch.alpha_partition(2, full, full, prefix)
    sch.rows(np.arange(4))
    assert 300 not in _held(sch)
    want = make_scheme("hm2", 9, a=4).alpha_partition(2, full, full, prefix)
    for i in range(len(law.counts)):
        assert [xs.tolist() for xs in law.split(i)] == [xs.tolist() for xs in want.split(i)], i


def _sampled_seeds(sch, num, rng):
    """num receiver seeds, one rng.integers(2^ell) draw each."""
    return [int(rng.integers(1 << sch.ell)) for _ in range(num)]


def _walk_total(sch, rs):
    """sum_t |sum_{r in rs} (|s0| - |s1|)| over each seed's commit_leaves:
    the reference transcript walk, merged by transcript, for hiding_distance."""
    diffs = {}
    for r in rs:
        for t, s0, s1 in commit_leaves(sch, r):
            diffs[t] = diffs.get(t, 0) + len(s0) - len(s1)
    return sum(abs(d) for d in diffs.values())


@pytest.mark.parametrize(
    "name, ell, kwargs",
    [("hm2", 6, {"a": 3}), ("hm2", 7, {"a": 2})]
    + [(name, ell, {}) for name in ("const", "ident") for ell in range(1, 7)],
)
def test_hiding_distance_equals_the_transcript_walk(name, ell, kwargs):
    sch = make_scheme(name, ell, **kwargs)
    n = 1 << ell
    assert hiding_distance(sch) == float(Fraction(_walk_total(sch, range(n)), 2 * n * n))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 7).flatmap(lambda ell: st.tuples(
    st.just(ell), st.integers(1, ell - 1), st.lists(st.integers(0, (1 << ell) - 1), min_size=1, max_size=12),
)))
def test_sampled_hiding_distance_equals_the_walk_on_the_seeds_given(case):
    # Repeated seeds count once per occurrence, on both sides.
    ell, a, rs = case
    sch = make_scheme("hm2", ell, a=a)
    want = Fraction(_walk_total(sch, rs), (2 << ell) * len(rs))
    assert hiding_distance(sch, rs) == float(want)


def test_hiding_distance_over_a_four_table_slab(monkeypatch):
    # Seeds are read in chunks of the slab's capacity, refilling its rows.
    sch = _four_table_hm2(monkeypatch)
    full = make_scheme("hm2", 9, a=4)
    assert hiding_distance(sch) == hiding_distance(full)
    rs = [3, 300, 3, 7, 11, 300, 5, 5, 9]
    assert hiding_distance(sch, rs) == hiding_distance(full, rs)


def test_hiding_distance_needs_a_seed():
    for name, kwargs in (("hm2", {"a": 2}), ("const", {}), ("ident", {})):
        with pytest.raises(ValueError):
            hiding_distance(make_scheme(name, 4, **kwargs), [])


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([1, 2]),
    # Lengths at the budget's edges make runs that fill it exactly.
    st.lists(
        st.one_of(st.integers(0, 40), st.integers(0, 9000), st.sampled_from([1, 2048, 4095, 4096, 4097])),
        max_size=24,
    ),
    st.integers(0, 2**32 - 1),
)
def test_class_runs_are_the_greedy_runs_of_whole_groups(group, lens, seed):
    # Classes of any length, zero and over the budget included, placed in
    # one row in a random order over a random seed order.
    budget = commitment._RUN_SEEDS
    lens = np.array(lens[: len(lens) // group * group], dtype=np.int64)
    rng = np.random.default_rng(seed)
    place = rng.permutation(len(lens))
    firsts = np.zeros(len(lens), dtype=np.int64)
    firsts[place] = np.cumsum(lens[place]) - lens[place]
    orders = rng.permutation(int(lens.sum())).astype(np.uint32)[None]
    flat = orders[0].tolist()
    runs = list(commitment.ClassRows(orders, None, None).runs(firsts, lens, group))
    # The runs tile the groups in order.
    edges = [0] + [b for _, b, *_ in runs]
    assert [a for a, *_ in runs] == edges[:-1] and edges[-1] == len(lens)
    for a, b, xs, seg in runs:
        assert a % group == 0 and b % group == 0 and b > a
        seeds = int(lens[a:b].sum())
        # Over the budget only as one group, and no next group would fit.
        assert seeds <= budget or b - a == group
        assert b == len(lens) or seeds + int(lens[b : b + group].sum()) > budget
        assert xs.dtype == np.int64
        assert xs.tolist() == [x for i in range(a, b) for x in flat[firsts[i] : firsts[i] + lens[i]]]
        assert seg.tolist() == np.repeat(np.arange(a, b), lens[a:b]).tolist()


@pytest.mark.parametrize("name,kwargs", [("hm2", {"a": 3}), ("const", {}), ("ident", {})])
def test_hiding_distance_rejects_seeds_outside_the_domain(name, kwargs):
    sch = make_scheme(name, 6, **kwargs)
    for bad in (-1, 1 << 6):
        with pytest.raises(ValueError, match="receiver seeds"):
            hiding_distance(sch, [0, bad])


def test_hiding_distance_controls():
    # const sends one transcript on both bits with every seed; ident sends
    # each transcript on one bit only.
    for ell in range(1, 17):
        assert hiding_distance(make_scheme("const", ell)) == 0.0, ell
        assert hiding_distance(make_scheme("ident", ell)) == 1.0, ell


@pytest.mark.parametrize(
    "name, ell, kwargs",
    [("hm2", 6, {"a": 3}), ("hm2", 8, {"a": 4}), ("const", 5, {}), ("ident", 5, {})],
)
def test_hiding_distance_exact_matches_transcript_distributions(name, ell, kwargs):
    # the exact branch walks commit_leaves; transcript_distributions runs the
    # classical commit on every (b, x, r): the same float from both
    sch = make_scheme(name, ell, **kwargs)
    counts = transcript_distributions(sch)
    want = sum(abs(c0 - c1) for c0, c1, *_ in counts.values()) / (2 << (2 * ell))
    assert hiding_distance(sch) == want


def test_hiding_distance_hm2_exact_small():
    # exact enumeration at reduced parameters; bound 2^-((a-2)/2)
    sch = make_scheme("hm2", 8, a=4)
    d = hiding_distance(sch)
    assert 0.0 < d <= 2 ** (-(sch.a - 2) / 2)


def test_hiding_distance_hm2_mc_at_working_size():
    # ell = 12, a = 6: sampled seeds with exact inner sums; bound 2^-2
    sch = make_scheme("hm2", 12, a=6)
    d = hiding_distance(sch, _sampled_seeds(sch, 150, np.random.default_rng(70)))
    assert 0.0 < d <= 2 ** (-(sch.a - 2) / 2)


@pytest.mark.parametrize(
    "name, kwargs", [("hm2", {"a": 4}), ("const", {}), ("ident", {})], ids=["hm2", "const", "ident"]
)
def test_hiding_distance_monte_carlo_matches_per_seed_enumeration(name, kwargs):
    # the sampled branch equals a classical per-seed enumeration, float for float
    sch = make_scheme(name, 8, **kwargs)
    mc = hiding_distance(sch, _sampled_seeds(sch, 12, np.random.default_rng(5)))
    rng = np.random.default_rng(5)
    n = 1 << sch.ell
    total = 0.0
    for _ in range(12):
        r = int(rng.integers(n))
        counts = {}
        for b in (0, 1):
            for x in range(n):
                t = run_classical_commit(sch, b, x, r)
                counts.setdefault(t, [0, 0])[b] += 1
        total += sum(abs(c0 - c1) for c0, c1 in counts.values()) / (2 * n)
    assert mc == total / 12


def test_hiding_distance_hm2_monte_carlo_matches_exact():
    sch = make_scheme("hm2", 8, a=4)
    exact = hiding_distance(sch)
    rng = np.random.default_rng(2)
    mc = hiding_distance(sch, _sampled_seeds(sch, 64, rng))
    assert abs(mc - exact) < 0.08


def test_transcript_distribution_factorizes():
    # counts must equal |R_t| * |X_{b,t}| (the rectangle structure)
    for name, kwargs in (("ident", {}), ("hm2", {"a": 2})):
        sch = make_scheme(name, 4, **kwargs)
        counts = transcript_distributions(sch)
        for t, (c0, c1, *_) in counts.items():
            r_t = len(receiver_seeds(sch, t))
            assert c0 == r_t * len(sch.consistent_seeds(t, 0))
            assert c1 == r_t * len(sch.consistent_seeds(t, 1))


@pytest.mark.parametrize(
    "name, ell, kwargs",
    [("hm2", 5, {"a": 2}), ("ident", 4, {}), ("const", 4, {})],
    ids=["hm2", "ident", "const"],
)
def test_transcript_distributions_seed_sets_equal_the_replay(name, ell, kwargs):
    # |R_t| and |X_{b,t}| collected while enumerating are the sizes of the
    # sets that replaying the message functions finds, on every t.
    sch = make_scheme(name, ell, **kwargs)
    for t, (_, _, r_t, size0, size1) in transcript_distributions(sch).items():
        assert r_t == len(receiver_seeds(sch, t)), t
        assert (size0, size1) == tuple(len(replayed_seeds(sch, t, b)) for b in (0, 1)), t


def test_scheme_registry():
    with pytest.raises(ValueError):
        make_scheme("nope", 4)
    with pytest.raises(ValueError):
        make_scheme("hm2", 4, a=4)
