"""Run one workload in this process and print one JSON line with its results.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Started by run.py in a fresh process with BLAS/OpenMP pinned to one
thread; run.py adds set-up time and formats the report.  The untraced
mode (--trace 0) times the public entry points the CLI calls:
`estimate_acceptance` (ivpoq completeness) and `binding_attack`
(ivpoq reduce).  The traced mode (--trace 1) replays a fixed number of
batches or attacks twice, untraced and traced, and derives per-layer
numbers from the spans.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

wl.use_checkout_sources(ROOT)

import numpy as np  # noqa: E402

from ivpoq import adversaries, verifier  # noqa: E402

import calibrate as cal  # noqa: E402
import tracing as tr  # noqa: E402

REASONS = ("unique-claw-pass", "unique-claw-fail", "non-unique-coin")


# shared helpers ------------------------------------------------------------

def call_seed(seed: int, k: int) -> int:
    """estimate_acceptance seed of call k of a run: distinct calls, distinct streams."""
    return seed * 1000 + k


def split_range(trials: int, workers: int) -> list[tuple[int, int]]:
    """The session ranges estimate_acceptance hands to its workers."""
    workers = max(1, min(workers, trials))
    step = (trials + workers - 1) // workers
    return [(lo, min(lo + step, trials)) for lo in range(0, trials, step)]


TALLY_KEYS = ["trials", "accepts", "unique_trials", "unique_accepts", "nonunique_accepts"] + [
    f"reason.{k}" for k in REASONS
]


def tallies(report) -> dict:
    """The verdict tallies of an AcceptanceReport, keyed as TALLY_KEYS."""
    out = {k: getattr(report, k) for k in TALLY_KEYS[:5]}
    out.update({f"reason.{k}": report.by_reason.get(k, 0) for k in REASONS})
    return out


def band_gate(name: str, hits: int, n: int, target: float, extra_var: float = 0.0) -> dict:
    """hits/n within Z_GATE standard errors of target (trivially true at n=0)."""
    if n == 0:
        return {"name": name, "ok": True, "detail": "no samples"}
    rate = hits / n
    half = wl.Z_GATE * math.sqrt(target * (1 - target) / n + extra_var)
    ok = abs(rate - target) <= half
    return {
        "name": name,
        "ok": ok,
        "detail": f"{rate:.5f} vs {target:.5f} +/- {half:.5f} (n={n})",
    }


def honest_gates(w: wl.Workload, agg: dict) -> list[dict]:
    nonunique = agg["trials"] - agg["unique_trials"]
    p_ref, n_ref = w.p_good_ref
    unique = band_gate("unique_rate", agg["unique_accepts"], agg["unique_trials"], wl.HONEST_UNIQUE_RATE)
    # The paper's separation: a classical prover is capped at 7/8.  Only a
    # band that lies wholly above 7/8 tells the honest rate from that cap.
    n, p = agg["unique_trials"], wl.HONEST_UNIQUE_RATE
    separates = n > 0 and p - wl.Z_GATE * math.sqrt(p * (1 - p) / n) > wl.COIN_RATE
    unique["detail"] += (
        "; the band excludes 7/8" if separates
        else "; too few unique-claw sessions for the band to exclude 7/8"
    )
    return [
        unique,
        band_gate("nonunique_rate", agg["nonunique_accepts"], nonunique, wl.COIN_RATE),
        band_gate("p_good", agg["unique_trials"], agg["trials"], p_ref, p_ref * (1 - p_ref) / n_ref),
    ]


def failed_ops(attempted: int, gates: list[dict]) -> int:
    """Operations of a run that count as failed.

    A gate with an "ops" entry checks operations one by one (sessions of
    a call or an attack that raised, openings that do not verify), and its
    failure counts those operations.  Any other gate judges the run as a
    whole (a rate band, the success floor, a replay identity), and its
    failure counts every operation of the run.
    """
    failed = 0
    for g in gates:
        if not g["ok"]:
            if "ops" not in g:
                return attempted
            failed += g["ops"]
    return min(failed, attempted)


def percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def tail_percentile(n: int) -> int | None:
    """The highest whole percentile, at most p90, with >= 10 samples beyond it."""
    if n >= 100:
        return 90
    if n < 20:
        return None
    return math.floor(100 * (1 - 10 / n))


def peak_rss_mb() -> tuple[float, float]:
    """(this process, largest child) peak resident set in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return own, kids


# untraced ----------------------------------------------------------------------

def run_honest(w: wl.Workload, seed: int, seconds: float, toy: bool) -> dict:
    size = w.toy_batch if toy else w.batch
    calls = [hi - lo for lo, hi in split_range(size, w.calls)]
    # Per batch: seconds unscaled, seconds scaled call by call, wall time
    # including calibration (to decide whether another batch fits).
    raws, scaled, spent, scales, reports, raised = [], [], [], [], [], 0
    t_start = time.perf_counter()
    clock = cal.Clock()
    k = 0
    while True:
        t_batch = time.perf_counter()
        params, prover = wl.build(w)
        raw = batch_scaled = 0.0
        for n in calls:
            t0 = time.perf_counter()
            try:
                report = verifier.estimate_acceptance(params, prover, n, call_seed(seed, k), w.workers)
            except Exception:
                traceback.print_exc()
                report = None
                raised += n
            wall = time.perf_counter() - t0
            scales.append(clock.scale(wall))
            raw += wall
            batch_scaled += wall / scales[-1]
            reports.append(report)
            k += 1
        raws.append(raw)
        scaled.append(batch_scaled)
        spent.append(time.perf_counter() - t_batch)
        if time.perf_counter() - t_start + statistics.median(spent) > seconds:
            break
    attempted = size * len(raws)
    good = [r for r in reports if r is not None]
    agg = {k: sum(tallies(r)[k] for r in good) for k in TALLY_KEYS} if good else None
    gates = honest_gates(w, agg) if agg else [{"name": "any_call", "ok": False, "detail": "every call raised"}]
    if w.workers > 1 and reports[0] is not None:
        # Results must not depend on --workers: replay call 0 with one worker.
        params, prover = wl.build(w)
        single = verifier.estimate_acceptance(params, prover, calls[0], call_seed(seed, 0), 1)
        same = json.dumps(single.to_json_dict(), sort_keys=True) == json.dumps(
            reports[0].to_json_dict(), sort_keys=True
        )
        gates.append({
            "name": "workers_identity",
            "ok": same,
            "detail": f"call 0 report at workers={w.workers} {'equals' if same else 'differs from'} workers=1",
        })
    if raised:
        gates.append({
            "name": "no_raise",
            "ok": False,
            "ops": raised,
            "detail": f"{raised} sessions in calls that raised",
        })
    failed = failed_ops(attempted, gates)
    raw = statistics.median(size / t for t in raws)
    sessions_per_s = statistics.median(size / t for t in scaled)
    p_good = agg["unique_trials"] / agg["trials"] if agg else 0.0
    own, kids = peak_rss_mb()
    rss = own + (kids if w.workers > 1 else 0.0)
    lines = [
        f"sessions_per_s {sessions_per_s:.6g} 1/s (median of {len(raws)} batches of {size} sessions "
        f"from a fresh scheme, {len(calls)} estimate_acceptance calls each, workers={w.workers}; "
        f"{raw:.6g} unscaled, host speed x{statistics.median(scales):.3f})",
        f"unique_sessions_per_s {sessions_per_s * p_good:.6g} 1/s (p_good {p_good:.5f})",
        f"batch_s_p50 {statistics.median(scaled):.6g} s (median batch, n={len(raws)})",
        f"peak_rss_mb {rss:.6g} MB (parent {own:.1f}"
        + (f" + largest worker {kids:.1f})" if w.workers > 1 else ")"),
    ]
    return {
        "attempted": attempted,
        "failed": failed,
        "gates": gates,
        "lines": lines,
        "metrics": {
            "ops_per_s": (sessions_per_s, "1/s"),
            "peak_rss_mb": (rss, "MB"),
        },
    }


def attack_ok(params, result) -> bool:
    """A successful attack's two openings must both verify."""
    if not result.success:
        return True
    scheme = params.scheme
    return scheme.open_verify(result.transcript, *result.decommit0) and scheme.open_verify(
        result.transcript, *result.decommit1
    )


def run_bind(w: wl.Workload, seed: int, seconds: float, toy: bool) -> dict:
    params, prover = wl.build(w)
    walls, scaled, spent, bad, successes = [], [], [], 0, 0
    t_start = time.perf_counter()
    clock = cal.Clock()
    i = 0
    while True:
        rng = np.random.default_rng([seed, i])
        t0 = time.perf_counter()
        try:
            result = adversaries.binding_attack(params, prover, rng)
        except Exception:
            traceback.print_exc()
            result = None
        walls.append(time.perf_counter() - t0)
        scaled.append(walls[-1] / clock.scale(walls[-1]))
        if result is None or not attack_ok(params, result):
            bad += 1
        else:
            successes += result.success
        i += 1
        spent.append(time.perf_counter() - t0)
        if time.perf_counter() - t_start + statistics.median(spent) > seconds:
            break
    n = len(walls)
    share = successes / n
    gates = [{
        "name": "success_floor",
        "ok": share >= wl.BIND_SUCCESS_FLOOR,
        "detail": f"{successes}/{n} = {share:.3f} (floor {wl.BIND_SUCCESS_FLOOR})",
    }]
    if bad:
        gates.append({
            "name": "openings_verify",
            "ok": False,
            "ops": bad,
            "detail": f"{bad} attacks raised or failed open_verify",
        })
    failed = failed_ops(n, gates)
    ordered = sorted(scaled)
    attacks_per_s = n / sum(scaled)
    own, _ = peak_rss_mb()
    lines = [
        f"attacks_per_s {attacks_per_s:.6g} 1/s ({n} attacks, closed loop, one caller; "
        f"{n / sum(walls):.6g} unscaled)",
        f"attack_s_p50 {percentile(ordered, 0.5):.6g} s (n={n}; {percentile(sorted(walls), 0.5):.6g} unscaled)",
    ]
    tail = tail_percentile(n)
    if tail is None:
        lines.append(f"attack_s_p90 not reported: {n} attacks leave fewer than 10 beyond any percentile >= p50")
    else:
        label = "attack_s_p90" if tail == 90 else f"attack_s_p90 unavailable at n={n}; attack_s_p{tail}"
        lines.append(f"{label} {percentile(ordered, tail / 100):.6g} s (n={n})")
    lines.append(f"peak_rss_mb {own:.6g} MB")
    return {
        "attempted": n,
        "failed": failed,
        "gates": gates,
        "lines": lines,
        "metrics": {
            "ops_per_s": (attacks_per_s, "1/s"),
            "peak_rss_mb": (own, "MB"),
        },
    }


# traced -------------------------------------------------------------------------

def traced_honest_batch(w: wl.Workload, tracer: tr.Tracer, size: int, seed: int):
    """Replay estimate_acceptance's sessions with spans.

    Each worker range gets its own fresh (params, prover): a pool worker
    unpickles its own copy, and pickling drops the F_r cache.
    """
    counts = dict.fromkeys(TALLY_KEYS, 0)
    receivers_per_range = []
    for lo, hi in split_range(size, w.workers):
        params, prover = wl.build(w)
        traced = tr.TracedProver(prover, tracer, tr.HONEST_SPANS)
        tracer.seen_receivers = set()
        receivers = set()
        for i in range(lo, hi):
            tracer.current_op = i
            with tracer.span(tr.SESSION):
                with tracer.span(tr.RNG_INIT):
                    rng = np.random.default_rng([seed, i])
                with tracer.span(tr.RUN_SESSION):
                    record = verifier.run_session(params, traced, rng)
                with tracer.span(tr.V2_DECIDE):
                    ok, reason = verifier.v2_decide(params, record)
            receivers.add(record.t[1])
            counts["trials"] += 1
            counts["accepts"] += ok
            counts[f"reason.{reason}"] += 1
            if reason == "non-unique-coin":
                counts["nonunique_accepts"] += ok
            else:
                counts["unique_trials"] += 1
                counts["unique_accepts"] += ok
        receivers_per_range.append(receivers)
    hit = {}
    for receivers in receivers_per_range:
        for r in receivers:
            hit[r] = hit.get(r, 0) + 1
    duplicates = sum(c - 1 for c in hit.values())
    return counts, duplicates


def trace_honest(w: wl.Workload, seed: int, toy: bool, tracer: tr.Tracer) -> dict:
    size = w.toy_batch if toy else w.batch
    n_batches = 1 if toy else w.trace_ops
    untraced = untraced_single = traced_wall = 0.0
    agg = dict.fromkeys(TALLY_KEYS, 0)
    duplicates, gates = 0, []
    for b in range(n_batches):
        s = call_seed(seed, b)
        params, prover = wl.build(w)
        t0 = time.perf_counter()
        report = verifier.estimate_acceptance(params, prover, size, s, w.workers)
        untraced += time.perf_counter() - t0
        if w.workers > 1:
            params, prover = wl.build(w)
            t0 = time.perf_counter()
            verifier.estimate_acceptance(params, prover, size, s, 1)
            untraced_single += time.perf_counter() - t0
        t0 = time.perf_counter()
        with tr.instrumented(tracer, type(params.scheme)):
            counts, dup = traced_honest_batch(w, tracer, size, s)
        traced_wall += time.perf_counter() - t0
        duplicates += dup
        want = tallies(report)
        same = counts == want
        gates.append({
            "name": f"trace_reproduces_batch{b}",
            "ok": same,
            "detail": f"traced {counts} vs untraced {want}",
        })
        for k in agg:
            agg[k] += counts[k]
    gates += honest_gates(w, agg)
    # The traced replay runs its worker ranges one after another, so its
    # overhead is measured against the one-worker untraced time.
    reference = untraced_single if w.workers > 1 else untraced
    extra = {
        "commitment.duplicate_fills": (duplicates, "count"),
        "verifier.workers_speedup": (untraced_single / untraced if w.workers > 1 else 0.0, "ratio"),
    }
    return finish_trace(tracer, gates, agg["trials"], reference, traced_wall, agg, extra)


def trace_bind(w: wl.Workload, seed: int, toy: bool, tracer: tr.Tracer) -> dict:
    params, prover = wl.build(w)
    n = 1 if toy else w.trace_ops
    untraced = traced_wall = 0.0
    gates, agg = [], {"gl_queries": 0, "candidates_tried": 0, "successes": 0}
    bad = 0
    for i in range(n):
        t0 = time.perf_counter()
        plain = adversaries.binding_attack(params, prover, np.random.default_rng([seed, i]))
        untraced += time.perf_counter() - t0
        traced_prover = tr.TracedProver(prover, tracer, tr.CLAW_SPANS)
        tracer.current_op = i
        t0 = time.perf_counter()
        with tr.instrumented(tracer, type(params.scheme)):
            with tracer.span(tr.ATTACK):
                result = adversaries.binding_attack(params, traced_prover, np.random.default_rng([seed, i]))
        traced_wall += time.perf_counter() - t0
        same = (result.to_json_dict(), result.transcript, result.decommit0, result.decommit1) == (
            plain.to_json_dict(), plain.transcript, plain.decommit0, plain.decommit1
        )
        gates.append({"name": f"trace_reproduces_attack{i}", "ok": same, "detail": str(result.to_json_dict())})
        bad += not attack_ok(params, result)
        agg["gl_queries"] += result.gl_queries
        agg["candidates_tried"] += result.candidates_tried
        agg["successes"] += result.success
    if bad:
        gates.append({
            "name": "openings_verify",
            "ok": False,
            "ops": bad,
            "detail": f"{bad} attacks failed open_verify",
        })
    extra = {
        "commitment.duplicate_fills": (0, "count"),
        "verifier.workers_speedup": (0.0, "ratio"),
    }
    return finish_trace(tracer, gates, n, untraced, traced_wall, None, extra, agg)


def finish_trace(tracer, gates, ops, untraced, traced_wall, honest, extra, bind=None) -> dict:
    s = tr.Summary(tracer)
    fills, hits = s.calls(tr.FILL), s.calls(tr.PARTITION_HIT)
    fill_s = s.total_s(tr.FILL)
    d_wht, d_rej = s.parents_with_child(tr.SAMPLE_D, tr.WHT)
    le2 = sum(1 for v in tracer.support.values() if v <= 2)
    prover_self = sum(s.self_s(name) for name in tr.CLAW_SPANS.values())
    honest = honest or {}
    bind = bind or {}
    m = {
        "commitment.fill_s": (fill_s, "s"),
        "commitment.fills": (fills, "count"),
        "commitment.fill_ms_per_seed": (1000 * fill_s / fills if fills else 0.0, "ms"),
        "commitment.partition_hit_s": (s.total_s(tr.PARTITION_HIT), "s"),
        "commitment.partition_hits": (hits, "count"),
        "commitment.cache_hit_ratio": (hits / (hits + fills) if hits + fills else 0.0, "ratio"),
        "commitment.consistent_mask_s": (s.total_s(tr.CONSISTENT_MASK), "s"),
        "commitment.consistent_mask_calls": (s.calls(tr.CONSISTENT_MASK), "count"),
        "coherent_prover.commit_s": (s.total_s(tr.HONEST_SPANS["commit_message"]), "s"),
        "coherent_prover.hash_measure_s": (s.total_s(tr.HONEST_SPANS["hash_response"]), "s"),
        "coherent_prover.v0_s": (s.total_s(tr.HONEST_SPANS["v0_response"]), "s"),
        "coherent_prover.d_s": (s.total_s(tr.HONEST_SPANS["d_response"]), "s"),
        "coherent_prover.eta_s": (s.total_s(tr.HONEST_SPANS["eta_response"]), "s"),
        "coherent_prover.d_wht_calls": (d_wht, "count"),
        "coherent_prover.d_rejection_calls": (d_rej, "count"),
        "coherent_prover.support_after_hash_le2": (le2, "count"),
        "coherent_prover.support_after_hash_gt2": (len(tracer.support) - le2, "count"),
        "coherent_prover.sample_d_s": (s.total_s(tr.SAMPLE_D), "s"),
        "coherent_prover.hash_outcome_law_s": (s.total_s("coherent_prover.hash_outcome_law"), "s"),
        "coherent_prover.commit_alpha_law_s": (s.total_s("coherent_prover.commit_alpha_law"), "s"),
        "coherent_prover.residual_for_d_s": (s.total_s("coherent_prover.residual_for_d"), "s"),
        "hashing.sample_s": (s.total_s(tr.SAMPLE_HASH), "s"),
        "hashing.sample_calls": (s.calls(tr.SAMPLE_HASH), "count"),
        "hashing.eval_many_s": (s.total_s(tr.EVAL_MANY), "s"),
        "hashing.eval_many_calls": (s.calls(tr.EVAL_MANY), "count"),
        "verifier.rng_init_s": (s.total_s(tr.RNG_INIT), "s"),
        "verifier.run_session_s": (s.total_s(tr.RUN_SESSION), "s"),
        "verifier.v1_self_s": (s.self_s(tr.RUN_SESSION), "s"),
        "verifier.grid_s": (
            s.total_s(tr.BEST_GRID) + s.total_under_s(tr.CONSISTENT_MASK, tr.RUN_SESSION), "s"
        ),
        "verifier.v2_decide_s": (s.total_s(tr.V2_DECIDE), "s"),
        "verifier.v2_count_s": (s.total_s(tr.V2_COUNT), "s"),
        **{f"verifier.reason.{k}": (honest.get(f"reason.{k}", 0), "count") for k in REASONS},
        "verifier.unique_ratio": (
            honest["unique_trials"] / honest["trials"] if honest else 0.0, "ratio"
        ),
        "adversaries.first_phase_s": (s.first_child_offset_s(tr.ATTACK, tr.GL), "s"),
        "adversaries.gl_s": (s.total_s(tr.GL), "s"),
        "adversaries.predict_s": (s.total_s(tr.PREDICT), "s"),
        "adversaries.gl_self_s": (s.self_s(tr.GL), "s"),
        "adversaries.d_response_s": (s.total_s(tr.CLAW_SPANS["d_response"]), "s"),
        "adversaries.eta_response_s": (s.total_s(tr.CLAW_SPANS["eta_response"]), "s"),
        "adversaries.prover_self_s": (prover_self, "s"),
        "adversaries.gl_queries": (bind.get("gl_queries", 0), "count"),
        "adversaries.candidates_tried": (bind.get("candidates_tried", 0), "count"),
        "adversaries.success_ratio": (bind["successes"] / ops if bind else 0.0, "ratio"),
        "bits.wht_s": (s.total_s(tr.WHT), "s"),
        "bits.wht_calls": (s.calls(tr.WHT), "count"),
        "bits.rng_from_key_s": (s.total_s(tr.RNG_FROM_KEY), "s"),
        "bits.rng_from_key_calls": (s.calls(tr.RNG_FROM_KEY), "count"),
        "trace.ops": (ops, "count"),
        "trace.spans": (s.spans, "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.overhead_ratio": (traced_wall / untraced - 1, "ratio"),
        "trace.uncovered_ratio": (1 - s.top_level_s / traced_wall, "ratio"),
        **extra,
    }
    failed = failed_ops(ops, gates)
    lines = [
        f"traced {ops} ops: {traced_wall:.3f} s traced vs {untraced:.3f} s untraced "
        f"(overhead {m['trace.overhead_ratio'][0]:+.1%}); top-level spans cover "
        f"{s.top_level_s / traced_wall:.1%} of the traced wall time, {s.spans} spans",
    ]
    return {"attempted": ops, "failed": failed, "gates": gates, "lines": lines, "metrics": m}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--trace-out", default=None, help="gzip TSV file for the spans")
    args = ap.parse_args()
    w = wl.WORKLOADS[args.workload]
    if args.trace:
        tracer = tr.Tracer()
        run = trace_honest if w.kind == "honest" else trace_bind
        out = run(w, args.seed, args.toy, tracer)
        if args.trace_out:
            tracer.write(args.trace_out)
    else:
        run = run_honest if w.kind == "honest" else run_bind
        out = run(w, args.seed, args.seconds, args.toy)
    out["numpy"] = np.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
