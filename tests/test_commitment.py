import hashlib
import pickle

import numpy as np
import pytest

from ivpoq.commitment import (
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
            assert x in sch.consistent_set(t, b)


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
    assert sch.consistent_set(t, 1) == [0b0101]
    assert sch.consistent_set(t, 0) == []


def test_consistent_sets_const():
    sch = make_scheme("const", 4)
    t = run_classical_commit(sch, 0, 3, 5)
    assert sch.consistent_set(t, 0) == list(range(16))
    assert sch.consistent_set(t, 1) == list(range(16))


def test_consistent_sets_hm2_match_independent_scan():
    # the vectorized filter equals a second scan built on the reference
    ell, a = 9, 4
    sch = make_scheme("hm2", ell, a=a)
    t = run_classical_commit(sch, 1, 100, 313)
    for b in (0, 1):
        got = sch.consistent_set(t, b)
        want = [
            x
            for x in range(1 << ell)
            if hm2_alpha2_reference(ell, a, 313, x, b) == t[2]
        ]
        assert got == want
    assert 100 in sch.consistent_set(t, 1)


@pytest.mark.parametrize("ell,a", [(5, 4), (8, 1), (9, 1), (12, 8), (17, 1)])
def test_hm2_bucket_matches_reference_for_every_seed(ell, a):
    # out_bits 1, 7, 8, 4, 16; seed widths of 1, 1, 2, 2, 3 bytes; ell=12
    # and ell=17 span several fill blocks.
    sch = make_scheme("hm2", ell, a=a)
    n = 1 << ell
    for r in (0, n - 1, 0x5A5A5 % n):
        fvals, evals = sch._bucket(r)
        assert fvals.dtype == np.int32 and evals.dtype == np.int8
        want = [hm2_alpha2_reference(ell, a, r, x, 0) for x in range(n)]
        assert fvals.tolist() == [int.from_bytes(m[:-1], "big") for m in want]
        assert evals.tolist() == [m[-1] for m in want]


def test_hm2_pickle_drops_cache_and_keeps_answers():
    sch = make_scheme("hm2", 9, a=4)
    t = run_classical_commit(sch, 1, 100, 313)
    want = sch.consistent_mask(t, 1)
    assert sch._buckets and sch._xbytes is not None
    copy = pickle.loads(pickle.dumps(sch))
    assert not copy._buckets and copy._xbytes is None
    assert (copy.consistent_mask(t, 1) == want).all()


def test_hiding_distance_controls():
    assert hiding_distance(make_scheme("const", 5)) == 0.0
    assert hiding_distance(make_scheme("ident", 5)) == 1.0


def test_hiding_distance_hm2_exact_small():
    # exact enumeration at reduced parameters; bound 2^-((a-2)/2)
    sch = make_scheme("hm2", 8, a=4)
    d = hiding_distance(sch)
    assert 0.0 < d <= 2 ** (-(sch.a - 2) / 2)


def test_hiding_distance_hm2_mc_at_working_size():
    # ell = 12, a = 6: sampled seeds with exact inner sums; bound 2^-2
    sch = make_scheme("hm2", 12, a=6)
    d = hiding_distance(sch, num_transcripts=150, rng=np.random.default_rng(70))
    assert 0.0 < d <= 2 ** (-(sch.a - 2) / 2)


def test_hiding_distance_hm2_monte_carlo_matches_exact():
    sch = make_scheme("hm2", 8, a=4)
    exact = hiding_distance(sch)
    rng = np.random.default_rng(2)
    mc = hiding_distance(sch, num_transcripts=64, rng=rng, exact_ell_cap=4)
    assert abs(mc - exact) < 0.08


def test_transcript_distribution_factorizes():
    # counts must equal |R_t| * |X_{b,t}| (the rectangle structure)
    for name, kwargs in (("ident", {}), ("hm2", {"a": 2})):
        sch = make_scheme(name, 4, **kwargs)
        counts = transcript_distributions(sch)
        for t, (c0, c1) in counts.items():
            r_t = int(sch.receiver_mask(t).sum())
            assert c0 == r_t * len(sch.consistent_set(t, 0))
            assert c1 == r_t * len(sch.consistent_set(t, 1))


def test_scheme_registry():
    with pytest.raises(ValueError):
        make_scheme("nope", 4)
    with pytest.raises(ValueError):
        make_scheme("hm2", 4, a=4)
