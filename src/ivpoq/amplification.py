"""Sequential repetition and the gap-amplification bookkeeping.

A repetition plan bundles (c, s, lambda): the repeated protocol runs
N >= lambda / (c - s)^2 first phases back to back, defers all second
phases to the end, and accepts when the accepted fraction reaches the
midpoint threshold (c + s) / 2.  Hoeffding's inequality separates
Bernoulli(c) from Bernoulli(s) provers at that N.

Within one macro-trial the sessions are strictly sequential by
contract: they consume a single RNG stream in order.  Macro-trials are
independent and may run in parallel with derived streams.

run_sequential repeats Bernoulli(p) sessions only.  Macro-trial m of the
real protocol is

    estimate_acceptance(params, prover, plan.n, (seed, m)).rate >= plan.threshold

and that is exact for every prover here: none keeps state across
sessions, so sessions run in lockstep blocks have the verdict law of
sessions run one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .verifier import ProtocolParams, estimate_acceptance

_CHUNK = 1 << 17  # run_sequential's largest draw: 2^17 doubles, 1 MB


def required_N(c: float, s: float, lam: float) -> int:
    """ceil(lambda / (c - s)^2)."""
    if not c > s:
        raise ValueError("need c > s")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return math.ceil(lam / (c - s) ** 2)


def hoeffding_tail(n: int, gap: float) -> float:
    """One-sided Hoeffding bound exp(-2 n gap^2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 < gap <= 1:
        raise ValueError("gap must lie in (0, 1]")
    return math.exp(-2.0 * n * gap * gap)


@dataclass
class RepetitionPlan:
    c: float
    s: float
    lam: int = 40
    n: int | None = None

    def __post_init__(self):
        if not 0 <= self.s < self.c <= 1:
            raise ValueError("need 0 <= s < c <= 1")
        if self.n is None:
            self.n = required_N(self.c, self.s, self.lam)
        if self.n < 1:
            raise ValueError("N must be >= 1")

    @property
    def threshold(self) -> float:
        return (self.c + self.s) / 2.0


def run_sequential(
    plan: RepetitionPlan, p: float, rng: np.random.Generator
) -> tuple[bool, float]:
    """Run N sequential Bernoulli(p) sessions on one stream, one double
    each, drawn in chunks of at most _CHUNK; accept iff the accepted
    fraction reaches (c + s) / 2.  The real protocol's c - s at
    epsilon = 1/100 is too small to amplify in desk time."""
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    chunks = (rng.random(min(_CHUNK, plan.n - i)) for i in range(0, plan.n, _CHUNK))
    fraction = sum(int(np.count_nonzero(u < p)) for u in chunks) / plan.n
    return fraction >= plan.threshold, fraction


@dataclass
class SeparationReport:
    plan_n: int
    c: float
    s: float
    lam: int
    macro_trials: int
    pass_rate_honest: float
    pass_rate_cheater: float
    seed: int

    def to_json_dict(self) -> dict:
        return dict(self.__dict__)


def separation_experiment(
    plan: RepetitionPlan, macro_trials: int, seed: int = 0
) -> SeparationReport:
    """Pass rates of Bernoulli(c) and Bernoulli(s) provers under the plan."""
    passes_h = passes_c = 0
    for i in range(macro_trials):
        rng = np.random.default_rng([seed, 2 * i])
        passes_h += run_sequential(plan, plan.c, rng)[0]
        rng = np.random.default_rng([seed, 2 * i + 1])
        passes_c += run_sequential(plan, plan.s, rng)[0]
    return SeparationReport(
        plan_n=plan.n,
        c=plan.c,
        s=plan.s,
        lam=plan.lam,
        macro_trials=macro_trials,
        pass_rate_honest=passes_h / macro_trials,
        pass_rate_cheater=passes_c / macro_trials,
        seed=seed,
    )


def per_randomness_profile(
    params: ProtocolParams,
    prover_factory: Callable[[bytes], object],
    n_r: int,
    trials: int,
    threshold: float,
    seed: int = 0,
) -> dict:
    """Empirical strong-soundness profile of a cheating prover.

    Estimates the acceptance rate of prover_factory(r) for a grid of
    fixed randomness values r and reports the fraction of r whose rate
    reaches the threshold.  A report, not an asymptotic claim.  Grid
    point i's sessions are one estimate_acceptance on the entropy prefix
    (seed, i): session j draws on default_rng([seed, i, j]).
    """
    provers = map(prover_factory, (b"r-grid" + i.to_bytes(4, "big") for i in range(n_r)))
    rates = [estimate_acceptance(params, p, trials, (seed, i)).rate for i, p in enumerate(provers)]
    above = sum(rate >= threshold for rate in rates)
    return {
        "n_r": n_r,
        "trials_per_r": trials,
        "threshold": threshold,
        "rates": rates,
        "fraction_above": above / n_r,
        "seed": seed,
    }
