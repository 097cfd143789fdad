"""Direct verification of the protocol's supporting lemmas and identities.

Every check returns a LemmaReport.  Exact checks decide their verdict
in integer or rational arithmetic only; Monte-Carlo checks report a
confidence interval and carry the raw data points.  A "violated"
verdict always ships a replayable counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .commitment import (
    CommitScheme,
    Transcript,
    commit_leaves,
    hiding_distance,
    transcript_distributions,
)
from .hashing import enumerate_gf2_affine, sample_hash
from .stats import hoeffding_halfwidth, wilson_interval
from .verifier import grid_brackets, grid_sizes, run_coherent_commit

HOLDS = "holds"
VIOLATED = "violated"
ESTIMATED = "estimated"

# check_branch_balance computes the hiding distance exactly up to this ell
# and on min(trials, 200) sampled receiver seeds above it.
EXACT_HIDING_ELL = 10


@dataclass
class LemmaReport:
    lemma: str
    params: dict
    verdict: str
    counterexample: dict | None = None
    data: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict != VIOLATED

    def to_json_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "params": self.params,
            "verdict": self.verdict,
            "counterexample": self.counterexample,
            "data": self.data,
        }


def check_hash_lemmas(ell: int = 3, ks: tuple[int, ...] = (2, 4, 8)) -> LemmaReport:
    """Exhaustive check of the two hash-family hitting bounds.

    Over every member of the gf2-affine family, every S subset of the
    domain and every y:

        Pr[|S n h^-1(y)| >= 1] >= |S|/k - |S|^2 / (2 k^2)
        Pr[|S n h^-1(y)|  = 1] >= |S|/k - |S|^2 / k^2

    Both sides are compared after clearing denominators, so the verdict
    is decided purely on integers.
    """
    if ell > 3:
        raise ValueError("full family enumeration is only feasible for ell <= 3")
    n = 1 << ell
    n_subsets = 1 << n
    pop = np.unpackbits(
        np.arange(n_subsets, dtype=np.uint16).view(np.uint8).reshape(-1, 2), axis=1
    ).sum(axis=1).astype(np.int64)
    cases = 0
    for k in ks:
        # member counts per (y, preimage-mask); size counts the members
        mask_counts: list[dict[int, int]] = [dict() for _ in range(k)]
        for size, h in enumerate(enumerate_gf2_affine(ell, k), 1):
            pre = [0] * k
            for x in range(n):
                pre[h.eval(x)] |= 1 << x
            for y in range(k):
                mask_counts[y][pre[y]] = mask_counts[y].get(pre[y], 0) + 1
        subsets = np.arange(n_subsets, dtype=np.int64)
        for y in range(k):
            ge1 = np.zeros(n_subsets, dtype=np.int64)
            eq1 = np.zeros(n_subsets, dtype=np.int64)
            for pm, cnt in mask_counts[y].items():
                inter = pop[subsets & pm]
                ge1 += cnt * (inter >= 1)
                eq1 += cnt * (inter == 1)
            sizes = pop[subsets]
            # ge1/size >= s/k - s^2/(2k^2)  <=>  2 k^2 ge1 >= size (2 k s - s^2)
            lhs_ge = 2 * k * k * ge1
            rhs_ge = size * (2 * k * sizes - sizes * sizes)
            lhs_eq = k * k * eq1
            rhs_eq = size * (k * sizes - sizes * sizes)
            bad = np.flatnonzero((lhs_ge < rhs_ge) | (lhs_eq < rhs_eq))
            cases += 2 * n_subsets
            if len(bad):
                s_mask = int(subsets[bad[0]])
                return LemmaReport(
                    lemma="hash-hitting-bounds",
                    params={"ell": ell, "ks": list(ks)},
                    verdict=VIOLATED,
                    counterexample={"k": k, "y": y, "subset_mask": s_mask},
                    data={"cases": cases},
                )
    return LemmaReport(
        lemma="hash-hitting-bounds",
        params={"ell": ell, "ks": list(ks)},
        verdict=HOLDS,
        data={"cases": cases},
    )


def find_grid_index(
    size0: int, size1: int, epsilon: float, ell: int
) -> tuple[int, int] | None:
    """Smallest grid index j whose k = ceil((1+eps)^j) brackets the sizes.

    Requires the balance precondition (1-eps)|X1| < |X0| < (1+eps)|X1|;
    returns None when it fails.  The returned (j, k) satisfies

        k <= 2|X0| <= (1+eps) k                      (size-0 bracket)
        k/(1+eps) <= 2|X1| <= (1+eps)/(1-eps) k      (size-1 bracket)

    verified in exact rational arithmetic.
    """
    if size0 < 0 or size1 < 0:
        raise ValueError("sizes must be nonnegative")
    if size0 > 1 << ell or size1 > 1 << ell:
        raise ValueError("sizes exceed the domain")
    eps = Fraction(epsilon)
    if not (1 - eps) * size1 < size0 < (1 + eps) * size1:
        return None
    # Try the size-0 brackets in ascending order; grid_bounds_ok also
    # checks the size-1 bracket.
    ks = grid_sizes(ell, epsilon)
    for j in grid_brackets(ell, epsilon, size0):
        if grid_bounds_ok(j, ks[j], size0, size1, eps):
            return j, ks[j]
    return None


def grid_bounds_ok(j: int, k: int, size0: int, size1: int, eps: Fraction) -> bool:
    cond0 = k <= 2 * size0 and Fraction(2 * size0) <= (1 + eps) * k
    cond1 = Fraction(k, 1) / (1 + eps) <= 2 * size1 and Fraction(2 * size1) <= (
        (1 + eps) / (1 - eps)
    ) * k
    return cond0 and cond1


def check_unique_claw_prob(
    n: int, epsilon: float, trials: int, rng: np.random.Generator
) -> LemmaReport:
    """Estimate the both-preimages-unique probability on synthetic sets.

    Disjoint |X0| = |X1| = n with k from the bracketing grid index; each
    trial draws (h0, h1) and adds the exact conditional probability that
    the measured y has unique preimages on both sides:

        q(h0, h1) = 2 |G0 n G1| / (|X0| + |X1|),
        G_b = {y : exactly one element of X_b hashes to y}.

    Verdict HOLDS when the estimate's lower 99% CI clears 0.1, ESTIMATED
    when only the point estimate does, VIOLATED otherwise.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 1:
        raise ValueError("the balance precondition needs |X0| = |X1| >= 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    ell = max(1, (2 * n - 1).bit_length())
    found = find_grid_index(n, n, epsilon, ell)
    assert found is not None  # equal sizes always pass the precondition
    j, k = found
    x0 = list(range(n))
    x1 = list(range(n, 2 * n))
    total = 0.0
    for _ in range(trials):
        h0 = sample_hash(ell, k, rng)
        h1 = sample_hash(ell, k, rng)
        g0 = _unique_values(h0, x0)
        g1 = _unique_values(h1, x1)
        q = 2 * len(g0 & g1) / (2 * n)
        total += q
    est = total / trials
    # per-trial values live in [0, 1], so Hoeffding applies directly
    half = hoeffding_halfwidth(trials)
    lo, hi = max(0.0, est - half), min(1.0, est + half)
    verdict = HOLDS if lo >= 0.1 else (ESTIMATED if est >= 0.1 else VIOLATED)
    report = LemmaReport(
        lemma="unique-claw-rate",
        params={"n": n, "epsilon": epsilon, "trials": trials, "j": j, "k": k},
        verdict=verdict,
        data={"estimate": est, "ci": [lo, hi]},
    )
    if verdict == VIOLATED:
        report.counterexample = {"n": n, "k": k, "estimate": est}
    return report


def _unique_values(h, xs) -> set[int]:
    vals, counts = np.unique(h.eval_many(xs), return_counts=True)
    return {int(v) for v in vals[counts == 1]}


def check_branch_balance(
    scheme: CommitScheme,
    trials: int,
    epsilon: float,
    rng: np.random.Generator,
) -> LemmaReport:
    """Empirical mass of transcripts with (1-eps)|X1| < |X0| < (1+eps)|X1|.

    For statistically hiding schemes the out-of-balance mass must be
    small: a receiver that answers 0 on |X0| >= (1+eps)|X1| and 1 on
    |X0| <= (1-eps)|X1| distinguishes the committed bit with advantage
    at least eps/(2(1+eps)) times that mass, so the mass is bounded by
    the transcript distance.  Both sides of that bound are reported.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    in_t = 0
    for _ in range(trials):
        r = int(rng.integers(1 << scheme.ell))
        _, state = run_coherent_commit(scheme, r, rng)
        n0, n1 = len(state.s0), len(state.s1)
        if (1 - epsilon) * n1 < n0 < (1 + epsilon) * n1:
            in_t += 1
    mass = in_t / trials
    lo, hi = wilson_interval(in_t, trials)
    rs = None
    if scheme.ell > EXACT_HIDING_ELL:
        rs = [int(rng.integers(1 << scheme.ell)) for _ in range(min(trials, 200))]
    dist = hiding_distance(scheme, rs)
    bound = (epsilon / (2 * (1 + epsilon))) * (1 - mass)
    data = {"mass_T": mass, "ci": [lo, hi], "hiding_distance": dist, "distinguisher_bound": bound}
    # allow for Monte-Carlo error on the mass side
    slack = (epsilon / (2 * (1 + epsilon))) * (hi - lo)
    verdict = ESTIMATED if bound <= dist + slack else VIOLATED
    return LemmaReport(
        lemma="branch-balance",
        params={"scheme": scheme.params_dict(), "epsilon": epsilon, "trials": trials},
        verdict=verdict,
        data=data,
    )


def coherent_transcript_law(scheme: CommitScheme) -> dict[Transcript, Fraction]:
    """Exact transcript law of the coherent commit run, by tree traversal.

    Walks every measurement branch (commit_leaves) for every receiver
    seed.  Each round keeps a branch with probability |child| / |state|,
    so the products telescope: leaf (t, s0, s1) of seed r has
    probability (|s0| + |s1|) / 2^(ell+1), and r has 2^-ell.
    Independent of the sampling path through run_coherent_commit.
    """
    n = 1 << scheme.ell
    law: dict[Transcript, Fraction] = {}
    for r in range(n):
        for t, s0, s1 in commit_leaves(scheme, r):
            law[t] = law.get(t, Fraction(0)) + Fraction(len(s0) + len(s1), 2 * n * n)
    return law


def check_transcript_identity(scheme: CommitScheme) -> LemmaReport:
    """Three-way check of Pr[t] = (|R_t|/2^ell) (|X0|+|X1|)/2^(ell+1).

    Exact legs: (1) the coherent-run tree law, walked through the class
    tables, (2) the identity's right side with R_t and X_{b,t} read off
    the full (b, x, r) enumeration of the message functions, which never
    reads a class table, (3) the classical law (n_0 + n_1)/2^(2 ell+1)
    from the same enumeration.  All three must agree as exact rationals.
    """
    if scheme.ell > 8:
        raise ValueError("identity check enumerates 2^(2 ell) pairs; keep ell small")
    n = 1 << scheme.ell
    coherent = coherent_transcript_law(scheme)
    classical = transcript_distributions(scheme)
    mismatch = None
    seen = set(coherent) | set(classical)
    for t in sorted(seen):
        p_tree = coherent.get(t, Fraction(0))
        c0, c1, r_t, size0, size1 = classical.get(t, (0,) * 5)
        p_classical = Fraction(c0 + c1, 2 * n * n)
        p_identity = Fraction(r_t, n) * Fraction(size0 + size1, 2 * n)
        if not (p_tree == p_classical == p_identity):
            mismatch = {
                "t": [m.hex() for m in t],
                "tree": str(p_tree),
                "classical": str(p_classical),
                "identity": str(p_identity),
            }
            break
    total = sum(coherent.values())
    data = {"transcripts": len(coherent), "total_mass": str(total)}
    if mismatch is None and total != 1:
        mismatch = {"total_mass": str(total)}
    return LemmaReport(
        lemma="transcript-law",
        # The check samples nothing; "trials": 0 keeps `ivpoq lemmas` output unchanged.
        params={"scheme": scheme.params_dict(), "trials": 0},
        verdict=HOLDS if mismatch is None else VIOLATED,
        counterexample=mismatch,
        data=data,
    )
