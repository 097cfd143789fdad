import math

import numpy as np
import pytest

from ivpoq.adversaries import ClassicalHonestProver, ScriptedProver
from ivpoq.amplification import (
    BernoulliProver,
    RepetitionPlan,
    hoeffding_tail,
    per_randomness_profile,
    required_N,
    run_sequential,
    separation_experiment,
)
from ivpoq.coherent_prover import HonestProver
from ivpoq.commitment import make_scheme
from ivpoq.verifier import GRID_ORACLE, STREAM_SESSIONS, ProtocolParams, run_session, v2_decide


def test_required_N_examples():
    assert required_N(0.93, 0.875, 40) == 13224
    assert required_N(1.0, 0.0, 1) == 1
    # direct evaluation: ceil(64 / 0.0518^2)
    assert required_N(0.9268, 0.875, 64) == 23852


def test_required_N_validation():
    with pytest.raises(ValueError):
        required_N(0.5, 0.5, 10)
    with pytest.raises(ValueError):
        required_N(0.9, 0.5, 0)


def test_hoeffding_tail_values():
    assert math.isclose(hoeffding_tail(100, 0.1), math.exp(-2))
    assert math.isclose(hoeffding_tail(1, 1.0), math.exp(-2))
    with pytest.raises(ValueError):
        hoeffding_tail(0, 0.1)
    with pytest.raises(ValueError):
        hoeffding_tail(5, 0.0)


def test_plan_defaults_and_validation():
    plan = RepetitionPlan(c=0.93, s=0.875, lam=40)
    assert plan.n == 13224
    assert plan.threshold == pytest.approx(0.9025)
    with pytest.raises(ValueError):
        RepetitionPlan(c=0.5, s=0.6)


def test_run_sequential_always_and_never():
    plan = RepetitionPlan(c=0.9, s=0.1, n=50)
    always = BernoulliProver(1.0)
    never = BernoulliProver(0.0)
    rng = np.random.default_rng(0)
    assert run_sequential(plan, always, None, rng) == (True, 1.0)
    assert run_sequential(plan, never, None, rng) == (False, 0.0)


def test_run_sequential_drives_real_protocol():
    sch = make_scheme("hm2", 6, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.1, grid_mode=GRID_ORACLE)
    plan = RepetitionPlan(c=0.95, s=0.80, n=40)
    verdict, fraction = run_sequential(plan, HonestProver(sch), params, np.random.default_rng(1))
    assert 0.0 <= fraction <= 1.0
    assert verdict == (fraction >= plan.threshold)


def test_run_sequential_equals_v2_decide_loop():
    # The protocol path tallies its records a block at a time; its fraction
    # must equal v2_decide's over run_session draws from one stream.
    sch = make_scheme("hm2", 6, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.1, grid_mode=GRID_ORACLE)
    plan = RepetitionPlan(c=0.95, s=0.80, n=STREAM_SESSIONS + 40)
    verdict, fraction = run_sequential(plan, HonestProver(sch), params, np.random.default_rng(3))
    rng, prover = np.random.default_rng(3), HonestProver(sch)
    accepted = sum(v2_decide(params, run_session(params, prover, rng))[0] for _ in range(plan.n))
    assert fraction == accepted / plan.n
    assert verdict == (fraction >= plan.threshold)


def test_sequential_consumes_one_stream_in_order():
    # session i+1 must start consuming randomness only after session i
    plan = RepetitionPlan(c=0.9, s=0.1, n=25)
    boundaries = []

    class Audited:
        def run_one(self, params, rng):
            boundaries.append(rng.bit_generator.state["state"]["state"])
            return bool(rng.random() < 0.5)

    rng = np.random.default_rng(7)
    run_sequential(plan, Audited(), None, rng)
    assert len(boundaries) == 25
    assert len(set(boundaries)) == 25  # strictly advancing stream


def test_monotone_in_acceptance_probability():
    plan = RepetitionPlan(c=0.8, s=0.6, n=150)
    passes = []
    for p in (0.55, 0.7, 0.85):
        count = 0
        for i in range(60):
            rng = np.random.default_rng([17, int(p * 100), i])
            count += run_sequential(plan, BernoulliProver(p), None, rng)[0]
        passes.append(count)
    assert passes[0] <= passes[1] <= passes[2]
    assert passes[0] < 10 and passes[2] > 50


def test_separation_small_plan():
    plan = RepetitionPlan(c=0.9, s=0.6, lam=20)  # N = 223
    rep = separation_experiment(plan, macro_trials=40, seed=3)
    assert rep.pass_rate_honest >= 0.95
    assert rep.pass_rate_cheater <= 0.05


def test_per_randomness_profile_shapes():
    sch = make_scheme("hm2", 6, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.1, grid_mode=GRID_ORACLE)
    profile = per_randomness_profile(
        params,
        lambda r: ClassicalHonestProver(sch, 0, int.from_bytes(r, "big") % 64),
        n_r=4,
        trials=80,
        threshold=0.95,
        seed=5,
    )
    assert len(profile["rates"]) == 4
    assert all(0 <= rate <= 1 for rate in profile["rates"])
    assert profile["fraction_above"] <= 0.25 or profile["fraction_above"] == 0.0
