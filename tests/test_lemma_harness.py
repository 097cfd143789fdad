from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sstats

from ivpoq.commitment import Hm2Scheme, commit_leaves, make_scheme
from ivpoq.lemma_harness import (
    ESTIMATED,
    HOLDS,
    VIOLATED,
    check_branch_balance,
    check_hash_lemmas,
    check_transcript_identity,
    check_unique_claw_prob,
    coherent_transcript_law,
    find_grid_index,
    grid_bounds_ok,
)
from ivpoq.verifier import run_coherent_commit


def test_hash_lemmas_small_families_hold():
    report = check_hash_lemmas(ell=2, ks=(2, 4))
    assert report.verdict == HOLDS
    assert report.data["cases"] > 0


def test_hash_lemmas_reject_large_ell():
    with pytest.raises(ValueError):
        check_hash_lemmas(ell=4)


def test_find_grid_index_examples():
    # sizes 5/5 at eps=0.5, ell=7: j=5, k=8 (8 <= 10 <= 12, 8/1.5 <= 10 <= 24)
    assert find_grid_index(5, 5, 0.5, 7) == (5, 8)
    # minimal sets: k in {1, 2} with k <= 2 <= (1+eps) k
    j, k = find_grid_index(1, 1, 0.25, 4)
    assert k == 2
    eps = Fraction(0.25)
    assert grid_bounds_ok(j, k, 1, 1, eps)
    # ratio violating the balance precondition
    assert find_grid_index(10, 30, 0.5, 6) is None


def test_find_grid_index_random_pairs_satisfy_bounds():
    rng = np.random.default_rng(0)
    for eps in (0.01, 0.5):
        eps_frac = Fraction(eps)
        for _ in range(300):
            ell = int(rng.integers(3, 11))
            s1 = int(rng.integers(1, 1 << ell))
            lo = int((1 - eps_frac) * s1) + 1
            hi_frac = (1 + eps_frac) * s1
            hi = int(hi_frac) if hi_frac != int(hi_frac) else int(hi_frac) - 1
            hi = min(hi, 1 << ell)
            if lo > hi:
                continue
            s0 = int(rng.integers(lo, hi + 1))
            found = find_grid_index(s0, s1, eps, ell)
            assert found is not None
            j, k = found
            assert grid_bounds_ok(j, k, s0, s1, eps_frac)


def test_find_grid_index_checks_the_domain_first():
    # Out-of-domain sizes raise whether or not they are balanced.
    for size0, size1 in ((10**6, 1), (40, 40)):
        with pytest.raises(ValueError, match="exceed the domain"):
            find_grid_index(size0, size1, 0.1, 4)


def test_unique_claw_prob_exact_minimal_case():
    # n = 1: both sets singletons; probability is Pr[h0(x0) = h1(x1)] = 1/k
    rng = np.random.default_rng(1)
    report = check_unique_claw_prob(1, 0.25, 3000, rng)
    assert report.params["k"] == 2
    assert abs(report.data["estimate"] - 0.5) < 0.05
    assert report.verdict == HOLDS


def test_unique_claw_prob_rejects_empty_sets():
    with pytest.raises(ValueError):
        check_unique_claw_prob(0, 0.01, 10, np.random.default_rng(0))


def test_unique_claw_prob_rejects_nonpositive_epsilon():
    for eps in (0.0, -0.1):
        with pytest.raises(ValueError):
            check_unique_claw_prob(4, eps, 10, np.random.default_rng(0))


@pytest.mark.parametrize(
    "check",
    [
        lambda trials: check_branch_balance(make_scheme("const", 4), trials, 0.5, np.random.default_rng(0)),
        lambda trials: check_unique_claw_prob(4, 0.5, trials, np.random.default_rng(0)),
    ],
    ids=["branch-balance", "unique-claw"],
)
@pytest.mark.parametrize("trials", [0, -1])
def test_monte_carlo_lemmas_need_a_trial(check, trials):
    with pytest.raises(ValueError, match="trials must be >= 1"):
        check(trials)


def test_branch_balance_controls():
    rng = np.random.default_rng(2)
    const = check_branch_balance(make_scheme("const", 5), 200, 0.5, rng)
    assert const.data["mass_T"] == 1.0
    ident = check_branch_balance(make_scheme("ident", 5), 200, 0.5, rng)
    assert ident.data["mass_T"] == 0.0
    # Both sides of the bound, for every scheme: const hides perfectly and
    # is always balanced; ident hides nothing and is never balanced.
    assert const.data["hiding_distance"] == const.data["distinguisher_bound"] == 0.0
    assert ident.data["hiding_distance"] == 1.0
    assert ident.data["distinguisher_bound"] == 0.5 / (2 * 1.5)
    assert const.verdict == ident.verdict == ESTIMATED


def test_branch_balance_hm2_grows_with_hiding_parameter():
    rng = np.random.default_rng(3)
    masses = []
    for a in (2, 4, 6):
        report = check_branch_balance(make_scheme("hm2", 9, a=a), 300, 0.5, rng)
        masses.append(report.data["mass_T"])
        assert report.verdict != VIOLATED
    assert masses[0] <= masses[1] <= masses[2]
    assert masses[-1] >= 0.9


def test_transcript_identity_controls():
    const = check_transcript_identity(make_scheme("const", 4))
    assert const.verdict == HOLDS
    assert const.data["transcripts"] == 1
    ident = check_transcript_identity(make_scheme("ident", 4))
    assert ident.verdict == HOLDS
    # each ident transcript carries probability 2^-(ell+1)
    law = coherent_transcript_law(make_scheme("ident", 4))
    assert set(law.values()) == {Fraction(1, 32)}


def test_transcript_identity_hm2_holds():
    report = check_transcript_identity(make_scheme("hm2", 5, a=2))
    assert report.verdict == HOLDS
    assert report.data["total_mass"] == "1"


@pytest.mark.parametrize("r", [3, 17])
def test_coherent_commit_samples_the_exact_transcript_law(r):
    # At a fixed receiver seed, leaf (t, s0, s1) of the commit tree has
    # probability (|s0| + |s1|) / 2^(ell+1); 4000 sampled commits must fit
    # that law by a chi-square test.
    sch, trials = make_scheme("hm2", 5, a=2), 4000
    law = {t: len(s0) + len(s1) for t, s0, s1 in commit_leaves(sch, r)}
    assert sum(law.values()) == 2 << sch.ell
    rng = np.random.default_rng([4, r])
    counts = Counter(run_coherent_commit(sch, r, rng)[0] for _ in range(trials))
    assert set(counts) <= set(law)
    leaves = sorted(law)
    expected = [trials * law[t] / (2 << sch.ell) for t in leaves]
    assert sstats.chisquare([counts[t] for t in leaves], expected).pvalue > 0.001


def test_transcript_identity_rejects_large_ell():
    with pytest.raises(ValueError):
        check_transcript_identity(make_scheme("hm2", 12, a=6))


class _FlippedCompress(Hm2Scheme):
    """hm2 whose F_r flips bit 0 at (r, x) = (3, 5) in sender_msg only: the
    class tables, filled from SHA-256 directly, keep the true F_r."""

    def compress(self, r, x):
        return super().compress(r, x) ^ ((r, x) == (3, 5))


def test_transcript_identity_catches_a_table_that_disagrees_with_the_messages():
    report = check_transcript_identity(_FlippedCompress(5, 2))
    assert report.verdict == VIOLATED
    # The tree walks the table; the classical and identity legs replay sender_msg.
    assert report.counterexample == {
        "t": ["", "03", "0600", ""],
        "tree": "5/2048",
        "classical": "1/512",
        "identity": "1/512",
    }
