import math

import numpy as np
import pytest

from ivpoq.adversaries import ClassicalHonestProver
from ivpoq.amplification import (
    RepetitionPlan,
    hoeffding_tail,
    per_randomness_profile,
    required_N,
    run_sequential,
    separation_experiment,
)
from ivpoq.coherent_prover import HonestProver
from ivpoq.commitment import make_scheme
from ivpoq.verifier import (
    GRID_ORACLE,
    STREAM_SESSIONS,
    ProtocolParams,
    estimate_acceptance,
    run_session,
    v2_decide,
)


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
    with pytest.raises(ValueError):
        RepetitionPlan(c=0.9, s=0.1, n=0)


def test_run_sequential_always_and_never():
    plan = RepetitionPlan(c=0.9, s=0.1, n=50)
    rng = np.random.default_rng(0)
    assert run_sequential(plan, 1.0, rng) == (True, 1.0)
    assert run_sequential(plan, 0.0, rng) == (False, 0.0)
    with pytest.raises(ValueError):
        run_sequential(plan, 1.5, rng)


def _macro_trial(plan, params, prover, seed, m):
    """Macro-trial m of the real protocol, as the amplification module's
    docstring states it: one estimate on the entropy prefix (seed, m)."""
    fraction = estimate_acceptance(params, prover, plan.n, (seed, m)).rate
    return fraction >= plan.threshold, fraction


def test_macro_trial_drives_real_protocol():
    sch = make_scheme("hm2", 6, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.1, grid_mode=GRID_ORACLE)
    plan = RepetitionPlan(c=0.95, s=0.80, n=STREAM_SESSIONS + 40)
    verdict, fraction = _macro_trial(plan, params, HonestProver(sch), 3, 0)
    assert 0.0 <= fraction <= 1.0
    assert verdict == (fraction >= plan.threshold)


def test_macro_trial_equals_v2_decide_loop():
    # The macro-trial decides its sessions a block at a time; its fraction
    # must equal v2_decide's over run_session on the streams [3, 0, i].
    sch = make_scheme("hm2", 6, a=3)
    params = ProtocolParams(scheme=sch, epsilon=0.1, grid_mode=GRID_ORACLE)
    plan = RepetitionPlan(c=0.95, s=0.80, n=STREAM_SESSIONS + 40)
    verdict, fraction = _macro_trial(plan, params, HonestProver(sch), 3, 0)
    prover = HonestProver(sch)
    rngs = (np.random.default_rng([3, 0, i]) for i in range(plan.n))
    accepted = sum(v2_decide(params, run_session(params, prover, rng))[0] for rng in rngs)
    assert fraction == accepted / plan.n
    assert verdict == (fraction >= plan.threshold)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.93])
def test_sequential_equals_the_scalar_session_loop(p):
    # N sessions, one double each, drawn in order from the one stream
    plan = RepetitionPlan(c=0.9, s=0.1, n=2000)
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    accepted = sum(ref.random() < p for _ in range(plan.n))
    assert run_sequential(plan, p, rng) == (accepted / plan.n >= plan.threshold, accepted / plan.n)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_sequential_draws_in_bounded_chunks():
    # N comes from the user's flags; no single draw may ask numpy for more
    # than 2^17 doubles, and the chunks are the stream's doubles in order.
    class Recorder:
        def __init__(self, rng):
            self.rng, self.sizes = rng, []

        def random(self, size):
            self.sizes.append(size)
            return self.rng.random(size)

    plan = RepetitionPlan(c=0.9, s=0.1, n=3 * 2**17 + 5)
    rng, ref = Recorder(np.random.default_rng(8)), np.random.default_rng(8)
    accepted = sum(ref.random() < 0.5 for _ in range(plan.n))
    assert run_sequential(plan, 0.5, rng) == (accepted / plan.n >= plan.threshold, accepted / plan.n)
    assert max(rng.sizes) <= 2**17 and sum(rng.sizes) == plan.n
    assert rng.rng.bit_generator.state == ref.bit_generator.state


def test_monotone_in_acceptance_probability():
    plan = RepetitionPlan(c=0.8, s=0.6, n=150)
    passes = []
    for p in (0.55, 0.7, 0.85):
        count = 0
        for i in range(60):
            rng = np.random.default_rng([17, int(p * 100), i])
            count += run_sequential(plan, p, rng)[0]
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
