"""Steadiness check and baseline record for every workload.

    python3 perfbench/baseline.py [--out FILE]

Run from the repository root.  For each workload of BENCHMARK.json it
runs run.py --trace 0 for run_seconds once per seed (seeds DEFAULT_SEED ..
DEFAULT_SEED + RUNS - 1, one run at a time), reports each end-to-end
metric's median and quartile spread (q3 - q1) / median against
BENCHMARK.json's bound, then makes one traced run at DEFAULT_SEED.
With --out it writes everything, with the machine, to FILE
(perfbench/BENCH_baseline.json holds the record for the commit that added
the benchmark).  Exits 1 when a spread reaches a third of its bound, or a
run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

# Runs per workload, one seed each.
RUNS = 10


def run(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n" + "\n".join(lines))
    result = json.loads(lines[-1])
    result["run_wall_s"] = time.perf_counter() - t0
    return result, lines[:-1]


def program_commit() -> str | None:
    """HEAD of the checkout when it is a git repository (None otherwise)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "program_commit": program_commit(),
        "run_seconds": bench["run_seconds"],
        "runs_per_workload": RUNS,
        "workloads": {},
    }
    steady = True
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for k in range(RUNS):
            result, lines = run(name, wl.DEFAULT_SEED + k, 0)
            if k == 0:
                record["machine"] = json.loads(next(l for l in lines if l.startswith("machine "))[8:])
            runs.append({"seed": wl.DEFAULT_SEED + k, **result})
            print(f"{name} seed {wl.DEFAULT_SEED + k}: "
                  + ", ".join(f"{m} {v['value']:.5g}" for m, v in result["metrics"].items())
                  + f" ({result['run_wall_s']:.1f} s)", flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < bound / 3
            steady &= ok
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            print(f"  {metric}: median {med:.5g}, spread {spread:.3%} (bound {bound:.0%})"
                  f"{'' if ok else '  <-- not below a third of the bound'}", flush=True)
        traced, lines = run(name, wl.DEFAULT_SEED, 1)
        print("  traced: " + next(l for l in lines if l.startswith("traced ")), flush=True)
        record["workloads"][name] = {"summary": summary, "runs": runs, "traced": traced}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
