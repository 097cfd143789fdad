"""Acceptance criteria, one test per criterion, run at stated tolerances.

Each test prints a single PASS-style summary line with the measured
numbers (visible with pytest -s or on failure); the asserts pin the
tolerances.  All randomness is seed-derived, so every criterion is
reproducible byte for byte.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import dense_oracle
from sparse_law import sparse_challenge_law

from ivpoq.adversaries import (
    ClassicalHonestProver,
    PredictionOracle,
    binding_attack,
    goldreich_levin,
    unbounded_claw_prover,
)
from ivpoq.amplification import RepetitionPlan, required_N, separation_experiment
from ivpoq.bits import parity_u32
from ivpoq.cli import main as cli_main
from ivpoq.coherent_prover import HONEST_UNIQUE_RATE, HonestProver
from ivpoq.commitment import make_scheme
from ivpoq.hashing import sample_hash
from ivpoq.lemma_harness import (
    check_hash_lemmas,
    check_transcript_identity,
    check_unique_claw_prob,
    find_grid_index,
    grid_bounds_ok,
)
from ivpoq.stats import Z99
from ivpoq.verifier import GRID_ORACLE, ProtocolParams, estimate_acceptance

UNIQUE_BONUS = HONEST_UNIQUE_RATE - 0.875  # 0.0517767...


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} | {name}: {detail}")


def _half_width(rate, n):
    return Z99 * math.sqrt(max(rate * (1 - rate), 1e-12) / n)


@pytest.fixture(scope="module")
def honest_run():
    sch = make_scheme("hm2", 12, a=8)
    params = ProtocolParams(scheme=sch, epsilon=0.01, grid_mode=GRID_ORACLE)
    t0 = time.time()
    report = estimate_acceptance(params, HonestProver(sch), 100_000, seed=101)
    report.elapsed = time.time() - t0
    return params, report


def test_criterion_01_unique_claw_conditional_rate(honest_run):
    params, rep = honest_run
    half = _half_width(rep.unique_rate, rep.unique_trials)
    ok = half <= 0.01 and abs(rep.unique_rate - HONEST_UNIQUE_RATE) <= half
    _line(
        1,
        "conditional completeness constant",
        ok,
        f"unique rate {rep.unique_rate:.6f} +/- {half:.4f} over "
        f"{rep.unique_trials} sessions (target {HONEST_UNIQUE_RATE:.10f}), "
        f"run took {rep.elapsed:.0f}s",
    )
    assert rep.trials == 100_000
    assert rep.elapsed <= 120
    assert half <= 0.01
    assert abs(rep.unique_rate - HONEST_UNIQUE_RATE) <= half


def test_criterion_02_non_unique_branch_rate(honest_run):
    params, rep = honest_run
    half = _half_width(rep.nonunique_rate, rep.nonunique_trials)
    ok = half <= 0.005 and abs(rep.nonunique_rate - 7 / 8) <= half
    _line(
        2,
        "non-unique branch accepts at 7/8",
        ok,
        f"rate {rep.nonunique_rate:.6f} +/- {half:.4f} over {rep.nonunique_trials} sessions",
    )
    assert half <= 0.005
    assert abs(rep.nonunique_rate - 7 / 8) <= half


def _total_law_gap(rep, bonus):
    """(mean, 3 sigma) of X = accept - bonus * unique against 7/8.

    E[X] = 7/8 exactly whenever the prover's unique-claw conditional
    rate is 7/8 + bonus, since the non-unique branch is a fair 7-of-8
    coin independent of everything else.
    """
    n = rep.trials
    e_a = rep.rate
    e_u = rep.p_good
    e_au = rep.unique_accepts / n
    mean = e_a - bonus * e_u
    var = e_a + bonus * bonus * e_u - 2 * bonus * e_au - mean * mean
    return mean - 0.875, 3 * math.sqrt(max(var, 1e-12) / n)


def test_criterion_03_law_of_total_acceptance(honest_run):
    params, honest = honest_run
    sch = params.scheme
    t0 = time.time()
    claw = estimate_acceptance(params, unbounded_claw_prover(sch), 15_000, seed=103)
    classical = estimate_acceptance(
        params, ClassicalHonestProver(sch, 0, 2025), 20_000, seed=104
    )
    elapsed = time.time() - t0 + honest.elapsed
    # the quantum-equivalent provers carry the cos^2(pi/8) bonus on the
    # unique branch; the classical-honest baseline's unique-claw
    # conditional is exactly 7/8 (1 on the preimage test, 3/4 on the
    # equation test), so its bonus is 0.
    cases = [
        ("honest", honest, UNIQUE_BONUS),
        ("unbounded-claw", claw, UNIQUE_BONUS),
        ("classical-honest", classical, 0.0),
    ]
    details = []
    ok = elapsed <= 300
    for name, rep, bonus in cases:
        gap, band = _total_law_gap(rep, bonus)
        details.append(f"{name}: gap {gap:+.5f} vs 3sigma {band:.5f}")
        ok = ok and abs(gap) <= band
    _line(3, "law of total acceptance", ok, "; ".join(details) + f"; {elapsed:.0f}s")
    for name, rep, bonus in cases:
        gap, band = _total_law_gap(rep, bonus)
        assert abs(gap) <= band, name
    # and the quantum-equivalent unique conditionals sit on the constant
    for name, rep in (("honest", honest), ("unbounded-claw", claw)):
        half = 3 * math.sqrt(0.068 / rep.unique_trials)
        assert abs(rep.unique_rate - HONEST_UNIQUE_RATE) <= half, name
    assert elapsed <= 300


def test_criterion_04_hash_lemmas_exact():
    t0 = time.time()
    report = check_hash_lemmas()
    elapsed = time.time() - t0
    ok = report.verdict == "holds" and elapsed <= 30
    _line(
        4,
        "hash hitting bounds, exact sweep",
        ok,
        f"{report.data['cases']} cases, verdict {report.verdict}, {elapsed:.1f}s",
    )
    assert report.verdict == "holds"
    assert report.counterexample is None
    assert elapsed <= 30


def test_criterion_05_grid_bracketing_lemma():
    t0 = time.time()
    rng = np.random.default_rng(105)
    ell = 10
    checked = 0
    for eps in (0.01, 0.5):
        eps_frac = Fraction(eps)
        while_count = 0
        while while_count < 1000:
            s1 = int(rng.integers(1, 1 << ell))
            lo = int((1 - eps_frac) * s1) + 1
            hi_frac = (1 + eps_frac) * s1
            hi = min(int(hi_frac) if hi_frac != int(hi_frac) else int(hi_frac) - 1, 1 << ell)
            if lo > hi:
                continue
            s0 = int(rng.integers(lo, hi + 1))
            found = find_grid_index(s0, s1, eps, ell)
            assert found is not None, (s0, s1, eps)
            j, k = found
            assert grid_bounds_ok(j, k, s0, s1, eps_frac), (s0, s1, eps, j, k)
            while_count += 1
            checked += 1
    elapsed = time.time() - t0
    ok = checked == 2000 and elapsed <= 5
    _line(5, "grid index brackets both sizes", ok, f"{checked} pairs, {elapsed:.1f}s")
    assert checked == 2000
    assert elapsed <= 5


def test_criterion_06_unique_claw_probability_floor():
    t0 = time.time()
    rng = np.random.default_rng(106)
    estimates = {}
    for n in (1, 2, 4, 8, 16, 32, 64):
        report = check_unique_claw_prob(n, 0.01, 10_000, rng)
        estimates[n] = report.data["estimate"]
        assert report.data["estimate"] >= 0.1, (n, report.data)
    elapsed = time.time() - t0
    ok = elapsed <= 60
    _line(
        6,
        "unique-claw probability >= 0.1",
        ok,
        "estimates " + ", ".join(f"n={n}: {v:.3f}" for n, v in estimates.items())
        + f"; {elapsed:.0f}s",
    )
    assert elapsed <= 60


def test_criterion_07_sparse_dense_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(100):
        ell = int(rng.integers(2, 9))
        n = 1 << ell
        n0 = int(rng.integers(1, n + 1))
        n1 = int(rng.integers(0, n + 1))
        s0 = {int(x) for x in rng.choice(n, size=n0, replace=False)}
        s1 = {int(x) for x in rng.choice(n, size=n1, replace=False)}
        k = int(rng.integers(1, min(2 * n, 40)))
        h0 = sample_hash(ell, k, rng)
        h1 = sample_hash(ell, k, rng)
        xi = int(rng.integers(n))
        v2 = int(rng.integers(2))
        sparse = sparse_challenge_law(ell, s0, s1, h0, h1, xi, v2)
        dense = dense_oracle.dense_challenge_law(ell, s0, s1, h0, h1, xi, v2)
        keys = set(sparse) | set(dense)
        tvd = 0.5 * sum(abs(sparse.get(kk, 0.0) - dense.get(kk, 0.0)) for kk in keys)
        worst = max(worst, tvd)
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed <= 120
    _line(7, "sparse engine = dense statevector", ok, f"worst TVD {worst:.2e} over 100 fixtures, {elapsed:.0f}s")
    assert worst <= 1e-6
    assert elapsed <= 120


def test_criterion_08_transcript_probability_identity():
    t0 = time.time()
    verdicts = {}
    for name, kwargs in (("hm2", {"a": 3}), ("ident", {}), ("const", {})):
        sch = make_scheme(name, 6, **kwargs)
        report = check_transcript_identity(sch)
        verdicts[name] = report.verdict
        assert report.verdict == "holds", (name, report.counterexample)
    elapsed = time.time() - t0
    ok = elapsed <= 60
    _line(8, "transcript law identity, exact", ok, f"{verdicts}; {elapsed:.0f}s")
    assert elapsed <= 60


def test_criterion_09_goldreich_levin():
    t0 = time.time()
    rng = np.random.default_rng(109)
    exact = 0
    for _ in range(100):
        planted = int(rng.integers(1 << 16))
        oracle = PredictionOracle(fn=lambda xis, p=planted: parity_u32(p & xis))
        out = goldreich_levin(oracle, 16, 0.5, 0.05, rng)
        exact += out == [planted]
    noisy_hits = 0
    for _ in range(100):
        planted = int(rng.integers(1 << 12))
        n = 1 << 12
        wrong = np.zeros(n, dtype=bool)
        wrong[rng.permutation(n)[: n // 4]] = True
        oracle = PredictionOracle(fn=lambda xis, p=planted, w=wrong: parity_u32(p & xis) ^ w[xis])
        out = goldreich_levin(oracle, 12, 0.25, 0.05, rng)
        noisy_hits += planted in out
    elapsed = time.time() - t0
    ok = exact == 100 and noisy_hits >= 95 and elapsed <= 120
    _line(
        9,
        "list decoding recovers planted strings",
        ok,
        f"perfect {exact}/100 at ell=16, advantage-0.25 {noisy_hits}/100 at ell=12, {elapsed:.0f}s",
    )
    assert exact == 100
    assert noisy_hits >= 95
    assert elapsed <= 120


def test_criterion_10_binding_attack_on_const():
    t0 = time.time()
    sch = make_scheme("const", 5)
    params = ProtocolParams(scheme=sch, epsilon=0.5)
    prover = unbounded_claw_prover(sch)
    wins = 0
    for i in range(200):
        res = binding_attack(params, prover, np.random.default_rng([110, i]))
        if res.success:
            assert sch.open_verify(res.transcript, *res.decommit0)
            assert sch.open_verify(res.transcript, *res.decommit1)
            wins += 1
    elapsed = time.time() - t0
    rate = wins / 200
    ok = rate >= 0.10 and elapsed <= 180
    _line(10, "double decommitment extracted", ok, f"success {wins}/200 = {rate:.2f}, {elapsed:.0f}s")
    assert rate >= 0.10
    assert elapsed <= 180


def test_criterion_11_amplification_separation():
    t0 = time.time()
    n = required_N(0.93, 0.875, 40)
    assert n == 13224
    plan = RepetitionPlan(c=0.93, s=0.875, lam=40)
    rep = separation_experiment(plan, macro_trials=200, seed=111)
    elapsed = time.time() - t0
    ok = rep.pass_rate_honest >= 0.99 and rep.pass_rate_cheater <= 0.01 and elapsed <= 120
    _line(
        11,
        "sequential repetition separates c from s",
        ok,
        f"N={n}, Bernoulli(0.93) passes {rep.pass_rate_honest:.3f}, "
        f"Bernoulli(0.875) passes {rep.pass_rate_cheater:.3f}, {elapsed:.0f}s",
    )
    assert rep.pass_rate_honest >= 0.99
    assert rep.pass_rate_cheater <= 0.01
    assert elapsed <= 120


def test_criterion_12_cli_determinism(capsys, tmp_path):
    invocations = [
        ["run", "--scheme", "hm2", "--ell", "8", "--a", "4", "--seed", "42"],
        ["completeness", "--scheme", "hm2", "--ell", "6", "--a", "3",
         "--trials", "150", "--seed", "7", "--grid", "oracle"],
        ["lemmas", "--scheme", "hm2", "--ell", "5", "--a", "2", "--trials", "100", "--seed", "3"],
    ]
    ok = True
    for argv in invocations:
        outs = []
        for _ in range(2):
            code = cli_main(argv)
            assert code == 0
            outs.append(capsys.readouterr().out)
        ok = ok and outs[0] == outs[1]
        assert outs[0] == outs[1], argv
    # file output is byte-identical too
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        cli_main(["run", "--scheme", "const", "--ell", "4", "--seed", "5", "--out", str(f)])
    capsys.readouterr()
    ok = ok and f1.read_bytes() == f2.read_bytes()
    _line(12, "CLI byte-identical under fixed seed", ok, f"{len(invocations)} invocations + file output")
    assert f1.read_bytes() == f2.read_bytes()
