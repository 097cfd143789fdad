import dataclasses
import decimal
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from ivpoq import verifier
from ivpoq.adversaries import binding_attack
from ivpoq.coherent_prover import HONEST_UNIQUE_RATE, HonestProver
from ivpoq.commitment import make_scheme, run_classical_commit
from ivpoq.hashing import Gf2AffineHash, HashFn, sample_hash
from ivpoq.verifier import (
    GRID_ORACLE,
    ProtocolParams,
    ProtocolViolation,
    REASON_COIN,
    REASON_FAIL,
    REASON_PASS,
    SessionRecord,
    count_consistent_preimages,
    decide_block,
    estimate_acceptance,
    grid_brackets,
    grid_sizes,
    run_block,
    run_session,
    v2_decide,
)

from builders import ScriptedProver, conditional_acceptance, identity_hash


def test_compute_m_examples():
    # m, the grid's length: the least m with (1+epsilon)^m >= 2^(ell+1).
    assert len(grid_sizes(10, 0.01)) == 767
    assert len(grid_sizes(1, 1.0)) == 2
    assert len(grid_sizes(7, 0.5)) == 14
    assert ProtocolParams(make_scheme("const", 7), epsilon=0.5).m == 14


def test_compute_m_rejects_nonpositive_eps():
    for eps in (0.0, -0.5):
        with pytest.raises(ValueError):
            grid_sizes(4, eps)


def test_protocol_params_validation():
    sch = make_scheme("const", 4)
    for eps in (0.0, 1.0):
        with pytest.raises(ValueError, match="epsilon"):
            ProtocolParams(sch, epsilon=eps)
    with pytest.raises(ValueError, match="unknown grid mode"):
        ProtocolParams(sch, grid_mode="bogus")


def test_grid_sizes_keep_the_callers_decimal_precision():
    # importing ivpoq (done above) and building a grid leave it alone
    grid_sizes.cache_clear()
    grid_sizes(10, 0.01)
    assert decimal.getcontext().prec == decimal.DefaultContext.prec


def test_grid_sizes_monotone_and_cover_domain():
    for ell, eps in ((6, 0.5), (10, 0.01)):
        ks = grid_sizes(ell, eps)
        assert len(ks) == ProtocolParams(make_scheme("const", ell), epsilon=eps).m
        assert ks[0] == 1
        assert all(ks[i] <= ks[i + 1] for i in range(len(ks) - 1))
        # last k must bracket the largest possible 2|X0| = 2^(ell+1)
        assert (1 + eps) * ks[-1] >= 1 << (ell + 1)


def test_best_grid_index_brackets():
    params = ProtocolParams(scheme=make_scheme("const", 7), epsilon=0.5)
    for size0 in (1, 2, 5, 64, 128):
        j = params.best_grid_index(size0)
        k = params.ks[j]
        assert k <= 2 * size0 <= (1 + params.epsilon) * k
    assert params.best_grid_index(0) is None


def test_grid_brackets_of_a_block_follow_the_definition():
    # the engine brackets a whole block in two searchsorted calls
    for ell, eps in ((6, 0.5), (6, 0.2), (8, 0.01)):
        ks = grid_sizes(ell, eps)
        sizes = np.arange((1 << ell) + 3)
        first, stop = verifier._grid_ends(ell, eps, sizes)
        for size0, lo, hi in zip(sizes.tolist(), first.tolist(), stop.tolist()):
            want = [j for j, k in enumerate(ks) if k <= 2 * size0 <= (1 + Fraction(eps)) * k]
            assert list(range(lo, hi)) == want == list(grid_brackets(ell, eps, size0))


def test_run_session_record_shape_const():
    sch = make_scheme("const", 4)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    record = run_session(params, HonestProver(sch), np.random.default_rng(0))
    assert record.scheme == "const"
    assert record.t == (b"", b"")
    assert record.k == params.ks[record.j]
    assert 0 <= record.y < record.k
    assert record.v1 in (0, 1)
    if record.v1 == 0:
        assert record.bprime in (0, 1) and record.xprime is not None
    else:
        assert record.d is not None and record.eta in (0, 1)
    assert 0 <= record.v2coin < 8


def test_run_session_deterministic_bytes():
    sch = make_scheme("hm2", 6, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.1)
    blobs = []
    for _ in range(2):
        record = run_session(params, HonestProver(sch), np.random.default_rng([7, 1]))
        record.verdict, record.verdict_reason = v2_decide(params, record)
        blobs.append(json.dumps(record.to_json_dict(), sort_keys=True))
    assert blobs[0] == blobs[1]


def test_record_json_roundtrip_replays_verdict():
    sch = make_scheme("hm2", 6, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.1)
    for seed in range(6):
        record = run_session(params, HonestProver(sch), np.random.default_rng(seed))
        verdict = v2_decide(params, record)
        back = SessionRecord.from_json_dict(json.loads(json.dumps(record.to_json_dict())))
        assert v2_decide(params, back) == verdict


def test_saved_record_of_another_prime_decides_by_brute_force():
    # The sampler draws mod 2^61 - 1 only, but a saved record keeps its
    # members' prime: records whose h0 and h1 are 2^89 - 1 members must
    # decide as preimage counts by HashFn.eval do.  const's X_{b,t} is
    # all 64 seeds, above eval_many's Python-int cut-off.
    sch = make_scheme("const", 6)
    params = ProtocolParams(scheme=sch, epsilon=0.1)
    p89, draw = (1 << 89) - 1, random.Random(6)
    reasons = set()
    for seed in range(60):
        record = run_session(params, HonestProver(sch), np.random.default_rng(seed))
        h0, h1 = (HashFn(6, record.k, draw.randrange(p89), draw.randrange(p89), p89) for _ in range(2))
        record = dataclasses.replace(record, h0=h0, h1=h1)
        hits = [[x for x in range(64) if h.eval(x) == record.y] for h in (h0, h1)]
        c0, c1 = (min(len(xs), 2) for xs in hits)
        x0, x1 = (xs[0] if xs else None for xs in hits)
        want = verifier._verdict(record, c0, x0, c1, x1)
        assert v2_decide(params, record) == want, seed
        reasons.add(want[1])
    assert REASON_COIN in reasons and reasons & {REASON_PASS, REASON_FAIL}


@st.composite
def hash_fns(draw, ell):
    p = draw(st.sampled_from([(1 << 61) - 1, (1 << 89) - 1, (1 << 127) - 1]))
    return HashFn(
        ell=ell, k=draw(st.integers(1, 1 << 30)),
        a=draw(st.integers(0, p - 1)), b=draw(st.integers(0, p - 1)), p=p,
    )


@st.composite
def session_records(draw):
    ell = draw(st.integers(1, 24))
    seed = st.integers(0, (1 << ell) - 1)
    h0 = draw(hash_fns(ell))
    record = SessionRecord(
        scheme=draw(st.sampled_from(["hm2", "const", "ident"])),
        ell=ell,
        t=tuple(draw(st.lists(st.binary(max_size=5), max_size=4))),
        j=draw(st.integers(0, 3000)),
        k=h0.k,
        h0=h0,
        h1=draw(hash_fns(ell)),
        y=draw(st.integers(0, h0.k - 1)),
        v1=draw(st.integers(0, 1)),
        xi=draw(seed),
        v2coin=draw(st.integers(0, 7)),
        verdict=draw(st.sampled_from([None, True, False])),
        verdict_reason=draw(st.sampled_from([None, REASON_PASS, REASON_FAIL, REASON_COIN])),
    )
    if record.v1 == 0:
        record.bprime, record.xprime = draw(st.integers(0, 1)), draw(seed)
    else:
        record.d = draw(seed)
        record.v2, record.eta = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    return record


@settings(max_examples=80, deadline=None)
@given(session_records())
def test_session_record_and_hash_survive_a_json_round_trip(record):
    for h in (record.h0, record.h1):
        assert HashFn.from_json_dict(json.loads(json.dumps(h.to_json_dict()))) == h
    assert SessionRecord.from_json_dict(json.loads(json.dumps(record.to_json_dict()))) == record


@pytest.mark.parametrize("family", ["gf2-affine", "nope"])
def test_record_with_a_foreign_hash_family_is_rejected(family):
    sch = make_scheme("hm2", 6, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.1)
    d = run_session(params, HonestProver(sch), np.random.default_rng(0)).to_json_dict()
    d["h1"]["family"] = family
    with pytest.raises(ValueError, match="hash family"):
        SessionRecord.from_json_dict(d)


def test_engine_records_round_trip_and_replay():
    sch = make_scheme("hm2", 8, a=4)
    params = ProtocolParams(scheme=sch, epsilon=0.01)
    block = run_block(params, HonestProver(sch), 23, 0, 150)
    for record, verdict in zip(block.records(), decide_block(params, block)):
        back = SessionRecord.from_json_dict(json.loads(json.dumps(record.to_json_dict())))
        assert back == record
        assert v2_decide(params, back) == verdict


def test_challenge_draws_uniform():
    sch = make_scheme("const", 4)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    prover = ScriptedProver(sch, commit=lambda j, prefix: b"")
    n = 24000
    v1s = np.zeros(2, dtype=int)
    v2s = np.zeros(2, dtype=int)
    xis = np.zeros(16, dtype=int)
    coins = np.zeros(8, dtype=int)
    n_v2 = 0
    for i in range(n):
        rec = run_session(params, prover, np.random.default_rng([11, i]))
        v1s[rec.v1] += 1
        xis[rec.xi] += 1
        coins[rec.v2coin] += 1
        if rec.v1 == 1:
            v2s[rec.v2] += 1
            n_v2 += 1
    assert sstats.chisquare(v1s).pvalue > 0.001
    assert sstats.chisquare(v2s).pvalue > 0.001
    assert sstats.chisquare(xis).pvalue > 0.001
    assert sstats.chisquare(coins).pvalue > 0.001


def test_malformed_prover_messages_raise():
    sch = make_scheme("const", 4)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    bad_alpha = ScriptedProver(sch, commit=lambda j, prefix: None)
    with pytest.raises(ProtocolViolation):
        run_session(params, bad_alpha, np.random.default_rng(0))
    bad_y = ScriptedProver(sch, y_fn=lambda t, h0, h1: 10**9)
    with pytest.raises(ProtocolViolation):
        run_session(params, bad_y, np.random.default_rng(0))
    bad_eta = ScriptedProver(sch, eta_fn=lambda *args: 7)
    with pytest.raises(ProtocolViolation):
        for seed in range(10):  # hit a v1=1 session
            run_session(params, bad_eta, np.random.default_rng(seed))


_NOT_BYTES = st.one_of(
    st.none(),
    st.text(max_size=4),
    st.integers(),
    st.floats(),
    st.binary(max_size=4).map(bytearray),
    st.lists(st.integers(0, 255), max_size=4).map(tuple),
)
_BAD_Y = st.one_of(
    st.none(),
    st.floats(),
    st.tuples(st.integers(0, 3)),
    st.integers(max_value=-1),
    st.integers(-(1 << 63), -1).map(np.int64),
    st.integers(1 << 20, (1 << 63) - 1).map(np.int64),
    st.integers(1 << 20, (1 << 64) - 1).map(np.uint64),
    st.integers(1 << 20, 1 << 100),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["const", "hm2"]),
    st.one_of(st.tuples(st.just("commit"), _NOT_BYTES), st.tuples(st.just("y"), _BAD_Y)),
)
def test_malformed_commit_or_y_is_a_violation_and_nothing_else(name, bad):
    # Every k the grid offers at ell=4 is below 2^20, so each bad y is out
    # of range or of the wrong type; a commit message must be bytes.
    message, reply = bad
    sch = make_scheme(name, 4, **({"a": 2} if name == "hm2" else {}))
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    assert max(params.ks) < 1 << 20
    if message == "commit":
        prover = ScriptedProver(sch, commit=lambda j, prefix: reply)
    else:
        prover = ScriptedProver(sch, y_fn=lambda t, h0, h1: reply)
    with pytest.raises(ProtocolViolation):
        run_session(params, prover, np.random.default_rng(0))


# One malformed reply per (message, kind) on const at ell=4.
MALFORMED = {
    ("v0", "none"): None,
    ("v0", "wrong-shape"): 5,
    ("v0", "float"): (1.0, 0),
    ("v0", "out-of-range"): (0, 10**9),
    ("d", "none"): None,
    ("d", "wrong-shape"): (0, 0),
    ("d", "float"): 0.0,
    ("d", "out-of-range"): 10**6,
    ("eta", "none"): None,
    ("eta", "wrong-shape"): (0, 1),
    ("eta", "float"): 0.0,
    ("eta", "out-of-range"): 7,
}


@pytest.mark.parametrize("caller", ["run_session", "conditional", "binding_attack"])
@pytest.mark.parametrize("message,kind", sorted(MALFORMED))
def test_malformed_challenge_reply_is_a_violation(caller, message, kind):
    sch = make_scheme("const", 4)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    bad = MALFORMED[message, kind]
    # eta = v2 makes the two-challenge predictor output 0 on every xi, so
    # unless a reply is rejected the binding attack opens both bits.
    replies = {"eta_fn": lambda t, h0, h1, y, xi, d, v2: v2}
    replies[f"{message}_fn"] = lambda *args: bad
    prover = ScriptedProver(sch, **replies)
    if caller == "run_session":
        with pytest.raises(ProtocolViolation):
            for seed in range(16):  # reach both challenge branches
                run_session(params, prover, np.random.default_rng(seed))
    elif caller == "conditional":
        rng = np.random.default_rng(1)
        h = sample_hash(4, 3, rng)
        with pytest.raises(ProtocolViolation):
            conditional_acceptance(params, ((b"", b""), h, h, 0), lambda prefix, rng: prover, 16, rng)
    else:
        res = binding_attack(params, prover, np.random.default_rng(2))
        assert not res.success
        assert res.failure_reason


# preimage counting ---------------------------------------------------------------

def test_count_preimages_ident():
    sch = make_scheme("ident", 4)
    t = run_classical_commit(sch, 1, 9, 0)
    h = identity_hash(4)
    assert count_consistent_preimages(sch, t, h, 9, 1) == (1, 9)
    assert count_consistent_preimages(sch, t, h, 9, 0) == (0, None)


def test_count_preimages_const_k1():
    sch = make_scheme("const", 3)
    t = run_classical_commit(sch, 0, 0, 0)
    rng = np.random.default_rng(0)
    h = sample_hash(3, 1, rng)
    for b in (0, 1):
        assert count_consistent_preimages(sch, t, h, 0, b) == (2, 0)


def test_count_preimages_hm2_vs_reversed_scan():
    sch = make_scheme("hm2", 8, a=4)
    rng = np.random.default_rng(3)
    for trial in range(10):
        b, x, r = int(rng.integers(2)), int(rng.integers(256)), int(rng.integers(256))
        t = run_classical_commit(sch, b, x, r)
        h = sample_hash(8, int(rng.integers(1, 40)), rng)
        y = h.eval(x)
        for bb in (0, 1):
            got = count_consistent_preimages(sch, t, h, y, bb)
            # independent oracle: scan in reversed order
            hits = [
                xx
                for xx in reversed(range(256))
                if sch.open_verify(t, bb, xx) and h.eval(xx) == y
            ]
            want = (min(len(hits), 2), min(hits) if hits else None)
            assert got == want


# the decision function --------------------------------------------------------------

def test_v2_nonunique_uses_coin():
    sch = make_scheme("const", 3)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    t = run_classical_commit(sch, 0, 0, 0)
    h = sample_hash(3, 2, np.random.default_rng(1))
    for coin in range(8):
        rec = SessionRecord(
            scheme="const", ell=3, t=t, j=0, k=2, h0=h, h1=h, y=h.eval(0),
            v1=0, xi=0, bprime=0, xprime=0, v2coin=coin,
        )
        ok, reason = v2_decide(params, rec)
        assert reason == REASON_COIN
        assert ok == (coin < 7)


def test_v2_unique_claw_preimage_test():
    # ident scheme cannot give a unique claw for both bits; build one with hm2
    sch = make_scheme("hm2", 6, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.5, grid_mode=GRID_ORACLE)
    prover = HonestProver(sch)
    checked = 0
    for seed in range(300):
        rec = run_session(params, prover, np.random.default_rng([5, seed]))
        ok, reason = v2_decide(params, rec)
        if reason == REASON_COIN or rec.v1 == 1:
            continue
        # honest v1=0 answer on a unique-claw session always passes
        assert ok
        checked += 1
    assert checked > 10


def test_v2_unique_claw_equation_test_closed_form():
    # assemble v1=1 records directly on a known claw and check each clause
    sch = make_scheme("hm2", 6, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    rng = np.random.default_rng(8)
    # find a session with a unique claw
    prover = HonestProver(sch)
    for seed in range(500):
        rec = run_session(params, prover, np.random.default_rng([9, seed]))
        c0, x0 = count_consistent_preimages(sch, rec.t, rec.h0, rec.y, 0)
        c1, x1 = count_consistent_preimages(sch, rec.t, rec.h1, rec.y, 1)
        if c0 == c1 == 1:
            break
    else:
        pytest.fail("no unique-claw session found")
    delta = x0 ^ x1
    for _ in range(100):
        xi = int(rng.integers(64))
        d = int(rng.integers(64))
        v2 = int(rng.integers(2))
        eta = int(rng.integers(2))
        rec2 = SessionRecord(
            scheme=sch.name, ell=6, t=rec.t, j=rec.j, k=rec.k, h0=rec.h0,
            h1=rec.h1, y=rec.y, v1=1, xi=xi, d=d, v2=v2, eta=eta, v2coin=0,
        )
        ok, reason = v2_decide(params, rec2)
        xdot0 = (xi & x0).bit_count() & 1
        xdot1 = (xi & x1).bit_count() & 1
        if xdot0 != xdot1:
            want = eta == xdot0
        else:
            want = eta == (v2 ^ ((d & delta).bit_count() & 1))
        assert ok == want
        assert reason in (REASON_PASS, REASON_FAIL)


def _v2_two_counts(params, record):
    """v2_decide as it reads with both preimage counts always made."""
    c0, x0 = count_consistent_preimages(params.scheme, record.t, record.h0, record.y, 0)
    c1, x1 = count_consistent_preimages(params.scheme, record.t, record.h1, record.y, 1)
    if c0 != 1 or c1 != 1:
        return record.v2coin < 7, REASON_COIN
    if record.v1 == 0:
        ok = record.xprime == (x0 if record.bprime == 0 else x1)
    elif (record.xi & x0).bit_count() % 2 != (record.xi & x1).bit_count() % 2:
        ok = record.eta == (record.xi & x0).bit_count() % 2
    else:
        ok = record.eta == (record.v2 ^ (record.d & (x0 ^ x1)).bit_count() % 2)
    return ok, (REASON_PASS if ok else REASON_FAIL)


@pytest.mark.parametrize(
    "name,kwargs,grid", [("hm2", {"a": 3}, GRID_ORACLE), ("const", {}, "uniform")]
)
def test_v2_short_circuit_matches_two_count_reference(name, kwargs, grid):
    sch = make_scheme(name, 6 if name == "hm2" else 5, **kwargs)
    params = ProtocolParams(scheme=sch, epsilon=0.5, grid_mode=grid)
    prover = HonestProver(sch)
    reasons, only_c0_unique = set(), 0
    for seed in range(400):
        rec = run_session(params, prover, np.random.default_rng([12, seed]))
        got = v2_decide(params, rec)
        assert got == _v2_two_counts(params, rec)
        reasons.add(got[1])
        c0, _ = count_consistent_preimages(sch, rec.t, rec.h0, rec.y, 0)
        c1, _ = count_consistent_preimages(sch, rec.t, rec.h1, rec.y, 1)
        only_c0_unique += c0 == 1 and c1 != 1
    # Every verdict kind, and coin sessions that needed the b=1 count to tell.
    assert reasons == {REASON_PASS, REASON_FAIL, REASON_COIN}
    assert only_c0_unique > 0


# acceptance estimation -----------------------------------------------------------------

def test_law_of_total_acceptance_accounting():
    sch = make_scheme("hm2", 8, a=4)
    params = ProtocolParams(scheme=sch, epsilon=0.01, grid_mode=GRID_ORACLE)
    rep = estimate_acceptance(params, HonestProver(sch), 3000, seed=21)
    # exact accounting identity on the same sample
    lhs = rep.rate * rep.trials
    rhs = rep.nonunique_accepts + rep.unique_accepts
    assert lhs == pytest.approx(rhs)
    # non-unique branch averages 7/8; unique branch the closed-form rate
    assert abs(rep.nonunique_rate - 7 / 8) < 0.03
    assert abs(rep.unique_rate - HONEST_UNIQUE_RATE) < 0.03
    assert rep.p_good > 0.05


def test_estimate_acceptance_needs_a_trial():
    sch = make_scheme("const", 4)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        estimate_acceptance(ProtocolParams(sch), HonestProver(sch), 0)


def test_estimate_acceptance_workers_merge_identically():
    sch = make_scheme("hm2", 6, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.1)
    one = estimate_acceptance(params, HonestProver(sch), 60, seed=3, workers=1)
    two = estimate_acceptance(params, HonestProver(sch), 60, seed=3, workers=2)
    assert one.to_json_dict() == two.to_json_dict()


class _Gf2WithEvalMany(Gf2AffineHash):
    """A gf2-affine member that count_consistent_preimages can filter with."""

    def eval_many(self, xs):
        return np.array([self.eval(x) for x in np.asarray(xs).tolist()], dtype=np.int64)


def test_const_buckets_never_unique_with_small_gf2_hash():
    # every gf2-affine bucket is an affine subspace: size 2^(ell-j) >= 2
    sch = make_scheme("const", 5)
    t = run_classical_commit(sch, 0, 0, 0)
    rng = np.random.default_rng(2)
    for j in (0, 1, 2, 3, 4):
        # a uniform member: j random rows, then the shift
        rows = tuple(int(rng.integers(1 << 5)) for _ in range(j))
        h = _Gf2WithEvalMany(5, 1 << j, rows, int(rng.integers(1 << j)))
        for y in range(1 << j):
            cls, _ = count_consistent_preimages(sch, t, h, y, 0)
            assert cls in (0, 2)


def test_grid_mode_p_good_relation():
    # the oracle grid clears the unique-claw floor 0.1 * mass(T); the
    # uniform grid pays at least the 1/m dilution of the bracketing index
    from ivpoq.lemma_harness import check_branch_balance

    sch = make_scheme("hm2", 8, a=4)
    oracle = ProtocolParams(scheme=sch, epsilon=0.5, grid_mode=GRID_ORACLE)
    uniform = ProtocolParams(scheme=sch, epsilon=0.5)
    mass = check_branch_balance(sch, 400, 0.5, np.random.default_rng(72)).data["mass_T"]
    rep_o = estimate_acceptance(oracle, HonestProver(sch), 4000, seed=73)
    rep_u = estimate_acceptance(uniform, HonestProver(sch), 20000, seed=74)
    assert rep_o.p_good >= 0.1 * mass
    assert rep_o.p_good / uniform.m <= rep_u.p_good <= rep_o.p_good


def test_always_accept_record_stream_rates_one():
    # synthetic stream: non-unique records whose coin always lands 0..6
    sch = make_scheme("const", 4)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    t = run_classical_commit(sch, 0, 0, 0)
    h = sample_hash(4, 2, np.random.default_rng(0))
    verdicts = []
    for i in range(400):
        rec = SessionRecord(
            scheme="const", ell=4, t=t, j=1, k=2, h0=h, h1=h, y=h.eval(0),
            v1=0, xi=0, bprime=0, xprime=0, v2coin=i % 7,
        )
        ok, reason = v2_decide(params, rec)
        assert reason == REASON_COIN
        verdicts.append(ok)
    assert sum(verdicts) / len(verdicts) == 1.0


def test_estimate_breakdown_sums_to_trials():
    sch = make_scheme("const", 4)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    rep = estimate_acceptance(params, ScriptedProver(sch), 400, seed=5)
    assert sum(rep.by_reason.values()) == 400
    assert rep.unique_trials + rep.nonunique_trials == 400
