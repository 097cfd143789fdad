import copy
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sstats

from ivpoq import adversaries, coherent_prover, commitment
from ivpoq.bits import parity_u32
from ivpoq.adversaries import (
    ClassicalHonestProver,
    PredictionOracle,
    ProverNondeterminism,
    binding_attack,
    goldreich_levin,
    predict_claw_parities,
    predict_claw_parity,
    unbounded_claw_prover,
)
from ivpoq.coherent_prover import (
    HONEST_UNIQUE_RATE,
    HonestProver,
    consistent_state,
    d_outcome_law,
    hash_outcome_law,
)
from ivpoq.commitment import make_scheme, run_classical_commit
from ivpoq.hashing import HashFn, sample_hash
from ivpoq.verifier import (
    GRID_ORACLE,
    ProtocolParams,
    ProtocolViolation,
    STREAM_SESSIONS,
    count_consistent_preimages,
    decide_block,
    estimate_acceptance,
    run_block,
    run_challenge,
    run_preamble,
    run_session,
    v2_decide,
)

from builders import ScriptedProver, conditional_acceptance, from_records, honest_resume, support_state


def find_unique_claw_prefix(scheme, params, seed=0, want_unique=True):
    """Run honest sessions until a (non-)unique-claw prefix appears."""
    prover = HonestProver(scheme)
    for i in range(4000):
        rec = run_session(params, prover, np.random.default_rng([seed, i]))
        c0, x0 = count_consistent_preimages(scheme, rec.t, rec.h0, rec.y, 0)
        c1, x1 = count_consistent_preimages(scheme, rec.t, rec.h1, rec.y, 1)
        if (c0 == 1 and c1 == 1) == want_unique:
            return (rec.t, rec.h0, rec.h1, rec.y), (x0, x1)
    pytest.fail("no suitable prefix found")


# classical-honest baseline ------------------------------------------------------

def test_classical_honest_always_passes_v0_on_unique_claws():
    sch = make_scheme("hm2", 8, a=4)
    params = ProtocolParams(scheme=sch, epsilon=0.01, grid_mode=GRID_ORACLE)
    prover = ClassicalHonestProver(sch, 0, 123)
    hits = 0
    for rec in run_block(params, prover, 31, 0, 600).records():
        ok, reason = v2_decide(params, rec)
        if reason != "non-unique-coin" and rec.v1 == 0:
            assert ok
            hits += 1
    assert hits > 5


def test_classical_honest_needs_a_bit_and_a_seed_in_range():
    # Member 2i + b is row i's h_b only for b in {0, 1}, and a seed lies in [0, 2^ell).
    sch = make_scheme("hm2", 6, a=3)
    for b, x in ((2, 0), (-1, 0), (0, -1), (1, 1 << 6)):
        with pytest.raises(ValueError):
            ClassicalHonestProver(sch, b, x)
    ClassicalHonestProver(sch, 1, (1 << 6) - 1)


def test_classical_honest_rate_equal_on_hm2_and_ident():
    # the strategy never uses hiding, so both schemes sit at 7/8
    trials = 4000
    hm2 = make_scheme("hm2", 8, a=4)
    p_hm2 = ProtocolParams(scheme=hm2, epsilon=0.01, grid_mode=GRID_ORACLE)
    rep_hm2 = estimate_acceptance(p_hm2, ClassicalHonestProver(hm2, 0, 7), trials, seed=1)
    ident = make_scheme("ident", 8)
    p_id = ProtocolParams(scheme=ident, epsilon=0.01, grid_mode=GRID_ORACLE)
    rep_id = estimate_acceptance(p_id, ClassicalHonestProver(ident, 0, 7), trials, seed=2)
    assert abs(rep_hm2.rate - rep_id.rate) < 0.025
    assert abs(rep_hm2.rate - 7 / 8) < 0.02


def test_classical_honest_unique_conditional_is_seven_eighths():
    # v1=0 passes always; v1=1 passes at 3/4 with d=0, eta = xi.x
    sch = make_scheme("hm2", 8, a=4)
    params = ProtocolParams(scheme=sch, epsilon=0.01, grid_mode=GRID_ORACLE)
    rep = estimate_acceptance(params, ClassicalHonestProver(sch, 0, 55), 6000, seed=3)
    assert rep.unique_trials > 400
    assert abs(rep.unique_rate - 7 / 8) < 0.05


# the unbounded claw prover ------------------------------------------------------

def test_claw_prover_y_frequencies_match_honest_law():
    sch = make_scheme("hm2", 6, a=3)
    t = run_classical_commit(sch, 0, 11, 40)  # any reachable transcript
    rng = np.random.default_rng(4)
    h0 = sample_hash(6, 5, rng)
    h1 = sample_hash(6, 5, rng)
    state = support_state(
        6,
        set(np.flatnonzero(sch.consistent_mask(t, 0))),
        set(np.flatnonzero(sch.consistent_mask(t, 1))),
    )
    ys, counts, _, _ = hash_outcome_law(state, h0, h1)
    probs = counts / state.size
    n = 4000
    counts = {int(y): 0 for y in ys}
    for i in range(n):
        prover = unbounded_claw_prover(sch, r=i.to_bytes(4, "big"))
        counts[prover.hash_response(t, h0, h1)] += 1
    res = sstats.chisquare(list(counts.values()), [n * p for p in probs])
    assert res.pvalue > 0.001


def test_claw_prover_d_and_eta_frequencies_match_honest_law():
    sch = make_scheme("hm2", 6, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.05, grid_mode=GRID_ORACLE)
    prefix, _ = find_unique_claw_prefix(sch, params, seed=33)
    t, h0, h1, y = prefix
    state = support_state(
        6,
        [x for x in np.flatnonzero(sch.consistent_mask(t, 0)) if h0.eval(int(x)) == y],
        [x for x in np.flatnonzero(sch.consistent_mask(t, 1)) if h1.eval(int(x)) == y],
    )
    xi = 0b100110
    dprobs, a0, a1 = d_outcome_law(state, xi)
    n = 4000
    d_counts = np.zeros(64, dtype=int)
    eta_counts = {0: 0}
    d_fixed = None
    for i in range(n):
        prover = unbounded_claw_prover(sch, r=i.to_bytes(4, "big"))
        d_counts[prover.d_response(t, h0, h1, y, xi)] += 1
        if d_fixed is None:
            d_fixed = prover.d_response(t, h0, h1, y, xi)
        eta_counts[0] += prover.eta_response(t, h0, h1, y, xi, d_fixed, 0) == 0
    live = dprobs > 0
    res = sstats.chisquare(d_counts[live], dprobs[live] * n)
    assert res.pvalue > 0.001
    assert d_counts[~live].sum() == 0
    from ivpoq.coherent_prover import eta0_prob

    p0 = eta0_prob((float(a0[d_fixed]), float(a1[d_fixed])), 0)
    assert abs(eta_counts[0] / n - p0) < 0.03


def test_claw_prover_replay_is_deterministic():
    sch = make_scheme("hm2", 6, a=3)
    prover = unbounded_claw_prover(sch, r=b"fixed")
    t = run_classical_commit(sch, 1, 3, 9)
    rng = np.random.default_rng(5)
    h0 = sample_hash(6, 4, rng)
    h1 = sample_hash(6, 4, rng)
    y = prover.hash_response(t, h0, h1)
    assert prover.hash_response(t, h0, h1) == y
    d1 = prover.d_response(t, h0, h1, y, 13)
    d2 = prover.d_response(t, h0, h1, y, 13)
    assert d1 == d2
    assert prover.d_response(t, h0, h1, y, 14) is not None  # distinct query, any value


def test_claw_attack_measures_its_state_once(monkeypatch):
    # hash_response keeps the state its own y measurement leaves, so the
    # attack's v0 answer and GL queries rebuild nothing.
    sch = make_scheme("const", 5)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    calls = []

    def counted(*args, _real=coherent_prover.consistent_state):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(coherent_prover, "consistent_state", counted)
    res = binding_attack(params, unbounded_claw_prover(sch), np.random.default_rng([77, 0]))
    assert res.gl_queries > 0
    assert len(calls) == 1, len(calls)


def claw_answers(prover, prefix, xis=range(8)):
    t, h0, h1, y = prefix
    out = []
    for xi in xis:
        d = prover.d_response(t, h0, h1, y, xi)
        etas = tuple(prover.eta_response(t, h0, h1, y, xi, d, v2) for v2 in (0, 1))
        out.append((prover.v0_response(t, h0, h1, y, xi), d, etas))
    return out


def test_claw_prover_memo_follows_prefix_changes():
    # one instance queried on A, then B, then A answers as fresh instances do
    sch = make_scheme("const", 5)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    prover = unbounded_claw_prover(sch, r=b"memo")
    a, b = (run_preamble(params, prover, np.random.default_rng([120, i]))[0] for i in range(2))
    assert a != b
    fresh_a = claw_answers(unbounded_claw_prover(sch, r=b"memo"), a)
    fresh_b = claw_answers(unbounded_claw_prover(sch, r=b"memo"), b)
    assert fresh_a != fresh_b
    assert claw_answers(prover, a) == fresh_a
    assert claw_answers(prover, b) == fresh_b
    assert claw_answers(prover, a) == fresh_a


def claw_prefixes(sch, params, big, count, seed=130):
    """count prefixes a claw-prover session reaches whose post-hash state
    has more than two seeds (big) or at most two (not big)."""
    prover = unbounded_claw_prover(sch)
    found = []
    for i in range(400):
        prefix, _ = run_preamble(params, prover.new_session(None), np.random.default_rng([seed, i]))
        if (consistent_state(sch, prefix[0], prefix[1:]).size > 2) == big:
            found.append(prefix)
            if len(found) == count:
                return prover, found
    pytest.fail("no suitable prefix found")


def memo_of(session, prefix):
    """The answers a claw-prover session holds for the prefix."""
    return session._post_hash(*prefix)[2]


def scalar_memo(prover, prefix, xis):
    """The answers a fresh session holds after d, then eta for both v2,
    of each xi in turn."""
    session = prover.new_session(None)
    t, h0, h1, y = prefix
    for xi in xis:
        d = session.d_response(t, h0, h1, y, xi)
        for v2 in (0, 1):
            session.eta_response(t, h0, h1, y, xi, d, v2)
    return memo_of(session, prefix)


CLAW_CONFIGS = [
    ("const", 5, {}, {}),
    ("hm2", 7, {"a": 3}, {"grid_mode": GRID_ORACLE}),
    ("hm2", 9, {"a": 5}, {"grid_mode": GRID_ORACLE}),
]


@pytest.mark.parametrize("name,ell,skw,pkw", CLAW_CONFIGS)
def test_prepare_challenges_fills_the_scalar_answers(name, ell, skw, pkw):
    sch = make_scheme(name, ell, **skw)
    params = ProtocolParams(scheme=sch, epsilon=0.5, **pkw)
    prover, prefixes = claw_prefixes(sch, params, big=True, count=2)
    rng = np.random.default_rng(131)
    for prefix in prefixes:
        # every xi, shuffled, with repeats; then a second batch of old and new xis
        first = np.concatenate((rng.permutation(1 << ell), rng.integers(1 << ell, size=50)))
        session = prover.new_session(None)
        session.prepare_challenges(*prefix, first[: len(first) // 2])
        session.prepare_challenges(*prefix, first)
        want = scalar_memo(prover, prefix, range(1 << ell))
        assert memo_of(session, prefix) == want
        assert len(want) == 3 << ell


@pytest.mark.parametrize("name,ell,skw,pkw", CLAW_CONFIGS)
def test_prepare_challenges_leaves_small_states_to_rejection(name, ell, skw, pkw):
    sch = make_scheme(name, ell, **skw)
    params = ProtocolParams(scheme=sch, epsilon=0.5, **pkw)
    prover, (prefix,) = claw_prefixes(sch, params, big=False, count=1)
    session = prover.new_session(None)
    session.prepare_challenges(*prefix, np.arange(1 << ell))
    assert memo_of(session, prefix) == {}


def test_prepare_challenges_chunks_at_the_block_budget(monkeypatch):
    sch = make_scheme("const", 5)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    prover, (prefix,) = claw_prefixes(sch, params, big=True, count=1)
    chunks = []

    def recorded(ell, xs, seg, xis, us, _real=coherent_prover.hadamard_draws):
        chunks.append(len(xis))
        return _real(ell, xs, seg, xis, us)

    # three xis' worth of amplitudes per chunk
    monkeypatch.setattr(adversaries, "_BLOCK_BYTES", 3 << (5 + 6))
    monkeypatch.setattr(coherent_prover, "hadamard_draws", recorded)
    xis = np.array([9, 4, 9, 30, 1, 17, 4, 22, 8, 0, 13, 2])
    session = prover.new_session(None)
    session.prepare_challenges(*prefix, xis)
    assert chunks == [3, 3, 3, 1]
    assert memo_of(session, prefix) == scalar_memo(prover, prefix, dict.fromkeys(xis.tolist()))


def test_prepare_challenges_memory_stays_within_the_block_budget():
    # unchunked, 600 xis at ell=12 would hold about 80 MB of transforms
    sch = make_scheme("hm2", 12, a=6)
    params = ProtocolParams(scheme=sch, epsilon=0.5, grid_mode=GRID_ORACLE)
    prover, (prefix,) = claw_prefixes(sch, params, big=True, count=1)
    session = prover.new_session(None)
    session.prepare_challenges(*prefix, np.arange(1))  # rebuild the state outside the measurement
    tracemalloc.start()
    try:
        session.prepare_challenges(*prefix, np.arange(1, 601))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(memo_of(session, prefix)) == 3 * 601
    assert peak < 3 * coherent_prover._BLOCK_BYTES, peak


def test_claw_prover_unreachable_prefix_is_a_violation():
    # ident at ell=4 commits to (0, 3); a constant-0 hash never outputs y = 2
    sch = make_scheme("ident", 4)
    h = HashFn(4, 4, a=0, b=0, p=(1 << 61) - 1)
    t, y = (b"\x00\x03", b""), 2
    prover = unbounded_claw_prover(sch)
    for reply in (
        lambda: prover.v0_response(t, h, h, y, 1),
        lambda: prover.d_response(t, h, h, y, 1),
        lambda: prover.eta_response(t, h, h, y, 1, 0, 0),
    ):
        with pytest.raises(ProtocolViolation, match="unreachable prefix"):
            reply()


def test_claw_prover_overall_acceptance_matches_honest():
    sch = make_scheme("hm2", 7, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.05, grid_mode=GRID_ORACLE)
    honest = estimate_acceptance(params, HonestProver(sch), 3000, seed=6)
    claw = estimate_acceptance(params, unbounded_claw_prover(sch), 3000, seed=7)
    assert abs(honest.rate - claw.rate) < 0.03
    assert abs(honest.p_good - claw.p_good) < 0.04


def test_claw_prover_conditional_on_const_unique_claw():
    # force k about 2^(ell+1) so singleton buckets happen, then condition
    sch = make_scheme("const", 4)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    rng = np.random.default_rng(8)
    t = run_classical_commit(sch, 0, 0, 0)
    prefix = None
    for _ in range(300):
        h0 = sample_hash(4, 24, rng)
        h1 = sample_hash(4, 24, rng)
        for y in range(24):
            c0, _ = count_consistent_preimages(sch, t, h0, y, 0)
            c1, _ = count_consistent_preimages(sch, t, h1, y, 1)
            if c0 == 1 and c1 == 1:
                prefix = (t, h0, h1, y)
                break
        if prefix:
            break
    assert prefix is not None

    count = 0

    def fresh_randomness_claw(prefix, rng):
        """Fresh prover coins per session: the averaged-over-r strategy."""
        nonlocal count
        count += 1
        return unbounded_claw_prover(sch, r=count.to_bytes(4, "big"))

    rate = conditional_acceptance(
        params, prefix, fresh_randomness_claw, 4000, np.random.default_rng(9)
    )
    assert abs(rate - HONEST_UNIQUE_RATE) < 0.02


# conditional acceptance diagnostics ----------------------------------------------

def test_conditional_acceptance_honest_unique_claw():
    sch = make_scheme("hm2", 7, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.05, grid_mode=GRID_ORACLE)
    prefix, _ = find_unique_claw_prefix(sch, params, seed=10)
    rate = conditional_acceptance(
        params, prefix, honest_resume(sch), 4000, np.random.default_rng(11)
    )
    assert abs(rate - HONEST_UNIQUE_RATE) < 0.025


def test_conditional_acceptance_nonunique_is_coin():
    sch = make_scheme("hm2", 7, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.05, grid_mode=GRID_ORACLE)
    prefix, _ = find_unique_claw_prefix(sch, params, seed=12, want_unique=False)
    prover = ScriptedProver(sch)
    rate = conditional_acceptance(
        params, prefix, lambda prefix, rng: prover, 4000, np.random.default_rng(13)
    )
    assert abs(rate - 7 / 8) < 0.02


def test_conditional_acceptance_always_wrong_prover_is_zero():
    sch = make_scheme("hm2", 7, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.05, grid_mode=GRID_ORACLE)
    prefix, (x0, x1) = find_unique_claw_prefix(sch, params, seed=14)
    delta = x0 ^ x1

    def wrong_eta(t, h0, h1, y, xi, d, v2):
        if (xi & delta).bit_count() & 1:
            return 1 ^ ((xi & x0).bit_count() & 1)
        return 1 ^ v2 ^ ((d & delta).bit_count() & 1)

    prover = ScriptedProver(
        sch,
        v0_fn=lambda t, h0, h1, y, xi: (0, x0 ^ 1),
        d_fn=lambda t, h0, h1, y, xi: 0,
        eta_fn=wrong_eta,
    )
    rate = conditional_acceptance(params, prefix, lambda prefix, rng: prover, 600, np.random.default_rng(15))
    assert rate == 0.0


def claw_resume(sch):
    """The unbounded-claw prover resumed on any prefix: it keeps no state."""
    prover = unbounded_claw_prover(sch)
    return lambda prefix, rng: prover


@pytest.mark.parametrize("make_resume", [honest_resume, claw_resume], ids=["honest", "unbounded-claw"])
def test_conditional_acceptance_equals_v2_decide_loop(make_resume):
    # The estimate's records, decided a block at a time by decide_block over
    # two blocks, each counted in several runs of seeds, must get v2_decide's
    # verdicts record by record, and the estimate's rate.
    sch = make_scheme("hm2", 7, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.05, grid_mode=GRID_ORACLE)
    prefix, _ = find_unique_claw_prefix(sch, params, seed=10)
    assert STREAM_SESSIONS * len(sch.consistent_seeds(prefix[0], 0)) > commitment._RUN_SEEDS
    trials = STREAM_SESSIONS + 40
    rate = conditional_acceptance(
        params, prefix, make_resume(sch), trials, np.random.default_rng(21)
    )
    resume, rng = make_resume(sch), np.random.default_rng(21)
    records = [run_challenge(params, resume(prefix, rng), prefix, 0, rng) for _ in range(trials)]
    verdicts = [
        verdict
        for lo in range(0, trials, STREAM_SESSIONS)
        for verdict in decide_block(params, from_records(sch, records[lo : lo + STREAM_SESSIONS]))
    ]
    assert verdicts == [v2_decide(params, record) for record in records]
    assert rate == sum(ok for ok, _ in verdicts) / trials


# the two-challenge predictor -------------------------------------------------------

def test_predictor_identity_when_both_replays_pass():
    sch = make_scheme("hm2", 6, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.05, grid_mode=GRID_ORACLE)
    prefix, (x0, x1) = find_unique_claw_prefix(sch, params, seed=16)
    t, h0, h1, y = prefix
    prover = unbounded_claw_prover(sch, r=b"identity-check")
    delta = x0 ^ x1
    checked = agree = 0
    from ivpoq.verifier import SessionRecord

    for xi in range(64):
        d = prover.d_response(t, h0, h1, y, xi)
        etas = [prover.eta_response(t, h0, h1, y, xi, d, v2) for v2 in (0, 1)]
        both_pass = True
        for v2, eta in zip((0, 1), etas):
            rec = SessionRecord(
                scheme=sch.name, ell=6, t=t, j=0, k=h0.k, h0=h0, h1=h1, y=y,
                v1=1, xi=xi, d=d, v2=v2, eta=eta, v2coin=0,
            )
            ok, _ = v2_decide(params, rec)
            both_pass = both_pass and ok
        out = predict_claw_parity(prefix, xi, prover)
        if both_pass:
            checked += 1
            assert out == ((xi & delta).bit_count() & 1)
        agree += out == ((xi & delta).bit_count() & 1)
    assert checked > 5          # conditioning happens often enough
    assert agree / 64 > 0.55    # and the overall advantage is visible


def test_predictor_on_constant_eta_script():
    sch = make_scheme("const", 4)
    prover = ScriptedProver(sch, eta_fn=lambda t, h0, h1, y, xi, d, v2: v2)
    rng = np.random.default_rng(17)
    h = sample_hash(4, 3, rng)
    prefix = ((b"", b""), h, h, 0)
    for xi in range(16):
        assert predict_claw_parity(prefix, xi, prover) == 0


def test_predictor_detects_nondeterminism():
    sch = make_scheme("const", 4)

    class Flaky(ScriptedProver):
        def __init__(self):
            super().__init__(sch)
            self.calls = 0

        def d_response(self, t, h0, h1, y, xi):
            self.calls += 1
            return self.calls % 2

    rng = np.random.default_rng(18)
    h = sample_hash(4, 3, rng)
    with pytest.raises(ProverNondeterminism):
        predict_claw_parity(((b"", b""), h, h, 0), 5, Flaky())


def test_binding_attack_reraises_prover_nondeterminism():
    sch = make_scheme("const", 5)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    calls = []
    prover = ScriptedProver(sch, d_fn=lambda *query: calls.append(query) or len(calls) % 2)
    with pytest.raises(ProverNondeterminism):
        binding_attack(params, prover, np.random.default_rng(0))


def test_predictor_rejects_non_replayable_prover():
    sch = make_scheme("const", 4)
    rng = np.random.default_rng(19)
    h = sample_hash(4, 3, rng)
    with pytest.raises(ProtocolViolation):
        predict_claw_parity(((b"", b""), h, h, 0), 1, HonestProver(sch))


class ColumnScript(ScriptedProver):
    """A scripted prover asked in columns: d_col(xis) and eta_col(xis, ds, v2)
    give a batch's reply columns."""

    def __init__(self, scheme, d_col=None, eta_col=None):
        super().__init__(scheme)
        self.d_col = d_col or (lambda xis: np.zeros(len(xis), dtype=np.int64))
        self.eta_col = eta_col or (lambda xis, ds, v2: np.zeros(len(xis), dtype=np.int64))
        self.asked = []

    def d_responses(self, t, h0, h1, y, xis):
        self.asked.append(("d", None, xis.copy()))
        return self.d_col(xis)

    def eta_responses(self, t, h0, h1, y, xis, ds, v2):
        self.asked.append(("eta", v2, xis.copy()))
        return self.eta_col(xis, ds, v2)


@pytest.mark.parametrize("big", [True, False], ids=["wht", "rejection"])
@pytest.mark.parametrize("name,ell,skw,pkw", CLAW_CONFIGS)
def test_column_predictor_equals_the_one_query_predictor(name, ell, skw, pkw, big):
    sch = make_scheme(name, ell, **skw)
    params = ProtocolParams(scheme=sch, epsilon=0.5, **pkw)
    prover, prefixes = claw_prefixes(sch, params, big=big, count=1 + big)
    rng = np.random.default_rng(133)
    for prefix in prefixes:
        # every xi, shuffled, with repeats; then a batch of old and new xis
        every = np.concatenate((rng.permutation(1 << ell), rng.integers(1 << ell, size=50)))
        batches = [every[:40], every]
        session = prover.new_session(None)
        got = [predict_claw_parities(prefix, xis, session).tolist() for xis in batches]
        fresh = {xi: predict_claw_parity(prefix, xi, prover.new_session(None)) for xi in range(1 << ell)}
        assert got == [[fresh[xi] for xi in xis.tolist()] for xis in batches]


def test_column_predictor_asks_each_batch_in_full_columns():
    sch = make_scheme("const", 5)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    prover = ColumnScript(sch)
    res = binding_attack(params, prover, np.random.default_rng([7, 0]))
    # GL's three batches: unit vectors, XOR combinations, test xis
    batches = [prover.asked[i : i + 4] for i in range(0, len(prover.asked), 4)]
    assert len(batches) == 3 and len(prover.asked) == 12
    for batch in batches:
        assert [(what, v2) for what, v2, _ in batch] == [("d", None), ("d", None), ("eta", 0), ("eta", 1)]
        assert all(np.array_equal(xis, batch[0][2]) for _, _, xis in batch)
    assert sum(len(xis) for what, _, xis in prover.asked if what == "d") == 2 * res.gl_queries == 2 * 840


def test_column_predictor_detects_nondeterminism():
    sch = make_scheme("const", 5)
    params = ProtocolParams(scheme=sch, epsilon=0.5)

    def make():
        calls = []

        def d_col(xis):
            calls.append(xis)
            col = np.zeros(len(xis), dtype=np.int64)
            col[len(xis) // 2] = len(calls) % 2 == 0  # the replay differs in one row
            return col

        return ColumnScript(sch, d_col=d_col)

    h = sample_hash(5, 3, np.random.default_rng(18))
    with pytest.raises(ProverNondeterminism, match="d changed across replays"):
        predict_claw_parities(((b"", b""), h, h, 0), np.arange(7), make())
    with pytest.raises(ProverNondeterminism):
        binding_attack(params, make(), np.random.default_rng(0))


def _with_row(column, row, value):
    """column with one row replaced: a list if value is None, else an int64 array."""
    out = column.tolist() if value is None else column.astype(np.int64)
    out[row] = value
    return out


_BAD_PREDICTOR_COLUMNS = {
    "short d": ({"d_col": lambda xis: np.zeros(len(xis) - 1, dtype=np.int64)}, "d"),
    "float d": ({"d_col": lambda xis: np.zeros(len(xis))}, "d"),
    "d = 2^ell": ({"d_col": lambda xis: _with_row(np.zeros(len(xis)), -1, 1 << 5)}, "d"),
    "None in a d list": ({"d_col": lambda xis: _with_row(np.zeros(len(xis)), -1, None)}, "d"),
    "short eta": ({"eta_col": lambda xis, ds, v2: np.zeros(len(xis) - v2, dtype=np.int64)}, "eta"),
    "float eta": ({"eta_col": lambda xis, ds, v2: np.zeros(len(xis))}, "eta"),
    "eta = 2": ({"eta_col": lambda xis, ds, v2: _with_row(np.zeros(len(xis)), 0, 2 * v2)}, "eta"),
    "None in an eta list": ({"eta_col": lambda xis, ds, v2: _with_row(np.zeros(len(xis)), 0, None)}, "eta"),
}


@pytest.mark.parametrize("kind", list(_BAD_PREDICTOR_COLUMNS))
def test_column_predictor_refuses_malformed_columns(kind):
    sch = make_scheme("const", 5)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    cols, what = _BAD_PREDICTOR_COLUMNS[kind]
    h = sample_hash(5, 3, np.random.default_rng(18))
    with pytest.raises(ProtocolViolation, match=f"^{what} out of range$") as raised:
        predict_claw_parities(((b"", b""), h, h, 0), np.arange(7), ColumnScript(sch, **cols))
    assert type(raised.value) is ProtocolViolation
    res = binding_attack(params, ColumnScript(sch, **cols), np.random.default_rng(0))
    assert not res.success and res.failure_reason == f"{what} out of range"


def test_column_predictor_rejects_non_replayable_prover():
    sch = make_scheme("const", 5)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    prover = ColumnScript(sch)
    prover.replayable = False
    h = sample_hash(5, 3, np.random.default_rng(19))
    with pytest.raises(ProtocolViolation, match="replayable"):
        predict_claw_parities(((b"", b""), h, h, 0), np.arange(4), prover)
    res = binding_attack(params, prover, np.random.default_rng(0))
    assert not res.success and res.failure_reason == "predictor needs a replayable prover"
    assert prover.asked == []


# Goldreich-Levin ---------------------------------------------------------------------

def planted_oracle(ell, planted, advantage, seed):
    n = 1 << ell
    rng = np.random.default_rng(seed)
    wrong = np.zeros(n, dtype=bool)
    wrong[rng.permutation(n)[: round((0.5 - advantage) * n)]] = True

    return PredictionOracle(fn=lambda xis: parity_u32(planted & xis) ^ wrong[xis])


def test_gl_perfect_oracle_exact_recovery():
    rng = np.random.default_rng(20)
    for _ in range(10):
        ell = 12
        planted = int(rng.integers(1 << ell))
        oracle = PredictionOracle(fn=lambda xis: parity_u32(planted & xis))
        out = goldreich_levin(oracle, ell, 0.5, 0.05, rng)
        assert planted in out
        # perfect linear oracle: only the planted string survives filtering
        assert out == [planted]


def test_gl_three_quarters_oracle():
    rng = np.random.default_rng(21)
    hits = 0
    for trial in range(10):
        planted = int(rng.integers(1 << 12))
        oracle = planted_oracle(12, planted, 0.25, seed=100 + trial)
        out = goldreich_levin(oracle, 12, 0.25, 0.05, rng)
        hits += planted in out
    assert hits >= 9


def test_gl_constant_zero_oracle_returns_zero_string():
    rng = np.random.default_rng(22)
    oracle = PredictionOracle(fn=np.zeros_like)
    out = goldreich_levin(oracle, 10, 0.4, 0.05, rng)
    assert 0 in out
    # every survivor agrees with the constant-0 oracle on >= 1/2 + adv/2,
    # which only the all-zero inner product can do here
    assert out == [0]


def test_gl_parameter_validation():
    oracle = PredictionOracle(fn=np.zeros_like)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        goldreich_levin(oracle, 4, 0.0, 0.05, rng)
    with pytest.raises(ValueError):
        goldreich_levin(oracle, 4, 0.7, 0.05, rng)
    with pytest.raises(ValueError):
        goldreich_levin(oracle, 4, 0.3, 1.5, rng)


def test_gl_candidates_pass_agreement_filter():
    rng = np.random.default_rng(23)
    planted = 0b101101
    oracle = planted_oracle(6, planted, 0.25, seed=9)
    out = goldreich_levin(oracle, 6, 0.2, 0.1, rng)
    xis = np.arange(64)
    answers = oracle.query_many(xis)
    for s in out:
        agreement = np.mean([(int(x) & s).bit_count() & 1 for x in xis] == answers)
        assert agreement >= 0.5  # soundness floor on the full domain


def sign_matrix_gl(ell, advantage, batches):
    """goldreich_levin's list from its three query_many batches, each guess's
    scores taken as the explicit (-1)^(g.sigma) sign matrix times the votes."""
    (_, unit_votes), (_, votes), (test_xis, answers) = batches
    weights = np.int64(1) << np.arange(ell, dtype=np.int64)
    votes = votes.reshape(ell, -1).T
    t = len(votes).bit_length()
    guesses = np.arange(1 << t, dtype=np.uint32)
    sigmas = np.arange(1, 1 << t, dtype=np.uint32)
    signs = 1 - 2 * parity_u32(guesses[:, None] & sigmas[None, :]).astype(np.int64)
    candidates = [int(unit_votes @ weights), *(((signs @ (1 - 2 * votes)) < 0) @ weights).tolist()]
    kept = []
    for s in dict.fromkeys(candidates):
        agree = np.count_nonzero(parity_u32(np.int64(s) & test_xis) == answers) / len(test_xis)
        if agree >= 0.5 + advantage / 2:
            kept.append((-agree, s))
    return [s for _, s in sorted(kept)]


@pytest.mark.parametrize(
    "ell,advantage,confidence",
    [(2, 0.5, 0.9), (3, 0.5, 0.5), (4, 0.5, 0.3), (5, 0.4, 0.5), (6, 0.3, 0.5),
     (6, 0.25, 0.25), (8, 0.2, 0.25), (8, 0.15, 0.25), (10, 0.12, 0.25)],
)
def test_gl_decode_equals_the_sign_matrix(ell, advantage, confidence):
    # Batches of t = 2..10 seed strings, decoded by one WHT per coordinate.
    planted = (0b1011001101 >> (10 - ell)) | 1
    oracle, batches = planted_oracle(ell, planted, 0.15, seed=ell), []
    real = oracle.query_many
    oracle.query_many = lambda xis: batches.append((np.asarray(xis), real(xis))) or batches[-1][1]
    out = goldreich_levin(oracle, ell, advantage, confidence, np.random.default_rng(ell))
    assert len(batches) == 3 and len(batches[1][0]) < ell << 10
    assert out == sign_matrix_gl(ell, advantage, batches)


def _vector_linear_oracle(ell, planted, seed):
    """xi -> xi.planted, flipped on a fixed random quarter of the xis."""
    wrong = np.random.default_rng(seed).random(1 << ell) < 0.25
    return PredictionOracle(fn=lambda xis: parity_u32(xis & planted) ^ wrong[xis])


def test_gl_decodes_at_the_batch_cap_in_bounded_memory():
    # ell=12 at advantage 0.05 and confidence 0.1 asks for t = 14, the cap,
    # where a 2^t x (2^t - 1) sign matrix alone would take 2 GiB.
    ell, planted = 12, 0b101100111010
    oracle = _vector_linear_oracle(ell, planted, seed=4)
    tracemalloc.start()
    try:
        out = goldreich_levin(oracle, ell, 0.05, 0.1, np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert oracle.queries == ell + ell * ((1 << 14) - 1) + 3200
    assert planted in out
    assert peak < 32 << 20, peak


def reference_gl_queries(ell, advantage, confidence, rng):
    """goldreich_levin's queries in order, drawn and listed by scalar loops."""
    need = ell / (4.0 * advantage * advantage * confidence)
    t = min(max(1, int(np.ceil(np.log2(need + 1)))), 14)
    queries = [1 << i for i in range(ell)]
    seeds = [int(rng.integers(1 << ell)) for _ in range(t)]
    combos = [0] * (1 << t)
    for sigma in range(1, 1 << t):
        combos[sigma] = combos[sigma & (sigma - 1)] ^ seeds[(sigma & -sigma).bit_length() - 1]
    for i in range(ell):
        queries += [c ^ (1 << i) for c in combos[1:]]
    n_test = max(64, int(np.ceil(8.0 / (advantage * advantage))))
    queries += [int(rng.integers(1 << ell)) for _ in range(n_test)]
    return queries


@pytest.mark.parametrize("ell,advantage,confidence", [(5, 0.2, 0.25), (12, 0.25, 0.05), (3, 0.5, 0.5)])
def test_gl_asks_the_scalar_query_sequence(ell, advantage, confidence):
    log = []

    def fn(xis):
        log.extend(xis.tolist())
        return parity_u32(xis & 5)

    oracle = PredictionOracle(fn=fn)
    rng, ref_rng = np.random.default_rng(24), np.random.default_rng(24)
    goldreich_levin(oracle, ell, advantage, confidence, rng)
    assert log == reference_gl_queries(ell, advantage, confidence, ref_rng)
    assert oracle.queries == len(log)
    assert rng.integers(1 << 30) == ref_rng.integers(1 << 30)  # same draws consumed


def test_binding_attack_asks_the_scalar_query_sequence(monkeypatch):
    sch = make_scheme("const", 5)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    log, gl_rngs = [], []

    # the claw prover answers in columns, so the predictor sees each batch whole
    def recorded(prefix, xis, prover, _real=adversaries.predict_claw_parities):
        log.extend(xis.tolist())
        return _real(prefix, xis, prover)

    def gl(oracle, ell, advantage, confidence, rng, _real=adversaries.goldreich_levin):
        gl_rngs.append((ell, advantage, confidence, copy.deepcopy(rng)))
        return _real(oracle, ell, advantage, confidence, rng)

    monkeypatch.setattr(adversaries, "predict_claw_parities", recorded)
    monkeypatch.setattr(adversaries, "goldreich_levin", gl)
    res = binding_attack(params, unbounded_claw_prover(sch), np.random.default_rng([7, 0]))
    (call,) = gl_rngs
    assert len(log) == res.gl_queries == 840
    assert log == reference_gl_queries(*call)


# the binding attack -------------------------------------------------------------------

def test_binding_attack_succeeds_on_const():
    sch = make_scheme("const", 5)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    prover = unbounded_claw_prover(sch)
    wins = 0
    for i in range(20):
        res = binding_attack(params, prover, np.random.default_rng([41, i]))
        if res.success:
            wins += 1
            t = res.transcript
            assert sch.open_verify(t, *res.decommit0)
            assert sch.open_verify(t, *res.decommit1)
            assert res.decommit0[0] == 0 and res.decommit1[0] == 1
    assert wins >= 15


def test_binding_attack_memo_matches_fresh_prover_per_query(monkeypatch):
    # reference: every GL query asks a fresh session, so nothing is memoised
    sch = make_scheme("const", 5)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    prover = unbounded_claw_prover(sch)
    memoised = [binding_attack(params, prover, np.random.default_rng([110, i])) for i in range(10)]

    def reference_oracle(prefix, session):
        def fn(xis):
            return [predict_claw_parity(prefix, xi, prover.new_session(None)) for xi in xis.tolist()]

        return PredictionOracle(fn=fn)

    monkeypatch.setattr(adversaries, "oracle_from_prover", reference_oracle)
    reference = [binding_attack(params, prover, np.random.default_rng([110, i])) for i in range(10)]
    assert memoised == reference
    assert sum(res.success for res in reference) >= 5


def test_binding_attack_queries_the_session():
    sch = make_scheme("const", 5)
    params = ProtocolParams(scheme=sch, epsilon=0.5)

    class Counting(ScriptedProver):
        def __init__(self):
            super().__init__(sch)
            self.d_queries = 0
            self.sessions = []

        def new_session(self, rng):
            self.sessions.append(Counting())
            return self.sessions[-1]

        def d_response(self, t, h0, h1, y, xi):
            self.d_queries += 1
            return super().d_response(t, h0, h1, y, xi)

    prover = Counting()
    res = binding_attack(params, prover, np.random.default_rng(0))
    (session,) = prover.sessions
    assert res.gl_queries > 0
    assert prover.d_queries == 0
    assert session.d_queries == 2 * res.gl_queries  # each predictor call replays d once


def test_binding_attack_aborting_prover_fails_cleanly():
    sch = make_scheme("const", 5)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    prover = ScriptedProver(sch, v0_fn=lambda *a: None)
    res = binding_attack(params, prover, np.random.default_rng(0))
    assert not res.success
    assert res.failure_reason


def test_binding_attack_on_hm2_with_claw_prover():
    # binding is brute-forceable at desk scale: positive success rate
    sch = make_scheme("hm2", 9, a=5)
    params = ProtocolParams(scheme=sch, epsilon=0.5, grid_mode=GRID_ORACLE)
    prover = unbounded_claw_prover(sch)
    wins = 0
    for i in range(25):
        res = binding_attack(params, prover, np.random.default_rng([43, i]))
        wins += res.success
        if res.success:
            t = res.transcript
            assert sch.open_verify(t, *res.decommit0)
            assert sch.open_verify(t, *res.decommit1)
    assert wins >= 1
