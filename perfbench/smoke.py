"""Smoke run: every workload at toy length, untraced and traced.

    python3 perfbench/smoke.py

Run from the repository root; takes about a minute.  For each workload it
checks that run.py exits 0 with "correct": true and no failed operation,
that the metrics are exactly BENCHMARK.json's end-to-end list (--trace 0)
or per-layer list (--trace 1), each with its declared unit, that the
traced replay reproduced the untraced verdict tallies, and that the layers
each workload runs read more than 0, so a traced function that stopped
being called shows.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

# Per-layer metrics that must read more than 0 on each workload's toy run.
# Together they cover every function tracing.py wraps.
NONZERO = {
    "honest-l12-cold": [
        "commitment.fills", "commitment.fill_s", "commitment.consistent_mask_calls",
        "verifier.grid_s", "verifier.v2_count_s", "hashing.sample_calls",
        "hashing.eval_many_calls", "coherent_prover.commit_s",
    ],
    "honest-l8-uniform": [
        "commitment.partition_hits", "bits.wht_calls", "coherent_prover.sample_d_s",
        "coherent_prover.hash_outcome_law_s", "coherent_prover.commit_alpha_law_s",
        "coherent_prover.residual_for_d_s", "coherent_prover.hash_measure_s",
        "verifier.v2_count_s",
    ],
    "bind-const-l5": [
        "adversaries.gl_queries", "adversaries.gl_s", "adversaries.predict_s",
        "adversaries.d_response_s", "bits.rng_from_key_calls", "hashing.sample_calls",
        "hashing.eval_many_calls", "commitment.consistent_mask_calls",
        "coherent_prover.sample_d_s",
    ],
    "honest-l12-w2": ["commitment.fills", "verifier.workers_speedup"],
}


def check(workload: str, trace: int, declared: dict[str, str]) -> list[str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(wl.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace), "--toy"],
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return [f"exit code {proc.returncode}"] + lines[-5:]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        units = sorted(n for n in set(declared) & set(emitted) if declared[n] != emitted[n])
        problems.append(f"metrics differ: missing {missing}, extra {extra}, unit mismatch {units}")
    if trace:
        replays = [line for line in lines if line.startswith("gate trace_reproduces_")]
        if not replays or any(" ok:" not in line for line in replays):
            problems.append(f"traced tallies not reproduced: {replays}")
        zero = [n for n in NONZERO[workload] if not result["metrics"].get(n, {}).get("value")]
        if zero:
            problems.append(f"layers that should have run read 0: {zero}")
    return problems


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = [
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    ]
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(wl.WORKLOADS) or sorted(NONZERO) != sorted(names):
        print(f"BENCHMARK.json workloads {names} differ from workloads.py")
        return 1
    for name in names:
        for trace in (0, 1):
            problems = check(name, trace, declared[trace])
            print(f"{name} trace={trace}: {'ok' if not problems else 'FAILED'}")
            for p in problems:
                print(f"  {p}")
            if problems:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
