"""perfbench: the ivpoq benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--toy]

Run from the repository root.  Each call measures one workload (see
workloads.py) in a fresh process, checks its outputs, prints what it
measured line by line and ends with one JSON line:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

--trace 0 gives the end-to-end metrics (set-up time from fresh
processes, then the timed workload); --trace 1 gives the per-layer
metrics from a traced replay and writes its spans to
perfbench/out/<workload>-seed<N>.spans.tsv.gz.  The exit code is 0 when
every correctness gate passes, 1 when one fails (the JSON line is still
printed) and 2 when the run could not start.  --toy shrinks every batch
to a few sessions for smoke runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

SETUP_PAIRS = 10
# Wall time of setup_probe.py --reference (interpreter start and `import
# numpy`) on the machine the baseline was recorded on; setup_s is this
# times the set-up probe's time over the reference probe's.
SETUP_REF_S = 0.14
# Every run must end within 180 s; leave room for set-up and reporting.
CHILD_TIMEOUT_S = 150


def machine(numpy_version: str) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(wl.THREAD_PINS)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def probe_wall(arg: str, env: dict) -> float:
    """Seconds from starting setup_probe.py with `arg` until it says "ready"."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), arg],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
    finally:
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe {arg} exited with code {code}")
    return elapsed


def time_setup(workload: str, env: dict) -> tuple[list[float], list[float]]:
    """(set-up probe, reference probe) wall times of SETUP_PAIRS adjacent pairs.

    The order within a pair alternates, so a host that speeds up or slows
    down during the pairs favours neither probe.
    """
    probes, refs = [], []
    for i in range(SETUP_PAIRS):
        if i % 2:
            refs.append(probe_wall("--reference", env))
            probes.append(probe_wall(workload, env))
        else:
            probes.append(probe_wall(workload, env))
            refs.append(probe_wall("--reference", env))
    return probes, refs


def main() -> int:
    ap = argparse.ArgumentParser(description="ivpoq benchmark: one workload per call")
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument(
        "--seed",
        type=int,
        default=wl.DEFAULT_SEED,
        help=f"workload seed (default {wl.DEFAULT_SEED}; re-check claims on {wl.HELD_OUT_SEED})",
    )
    ap.add_argument("--seconds", type=float, default=None,
                    help="untraced measuring window (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="tiny batches, for smoke runs")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    root = os.getcwd()
    problem = wl.check_checkout(root)
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            args.seconds = float(json.load(fh)["run_seconds"])
    env = child_env(root)
    w = wl.WORKLOADS[args.workload]

    metrics = {}
    setup = None
    if not args.trace:
        try:
            setup = time_setup(w.name, env)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2

    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", w.name,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.toy:
        cmd.append("--toy")
    if args.trace:
        cmd += ["--trace-out", os.path.join(HERE, "out", f"{w.name}-seed{args.seed}.spans.tsv.gz")]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload process exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: workload process exited with code {proc.returncode}", file=sys.stderr)
        return 2
    out = json.loads(lines[-1])

    print(f"perfbench {w.name} seed={args.seed} trace={args.trace} seconds={args.seconds:g}"
          f"{' toy' if args.toy else ''}: {w.why}")
    print(f"machine {json.dumps(machine(out['numpy']), sort_keys=True)}")
    if setup is not None:
        # Each probe is scaled by the reference probe next to it: both
        # start an interpreter and import numpy, so host speed cancels.
        probes, refs = setup
        ratio = statistics.median(p / r for p, r in zip(probes, refs))
        metrics["setup_s"] = (SETUP_REF_S * ratio, "s")
        print(f"setup_s {metrics['setup_s'][0]:.6g} s (median over {len(probes)} fresh processes of "
              f"{SETUP_REF_S:g} s x set-up / reference probe time; {statistics.median(probes):.6g} s "
              f"unscaled, reference {statistics.median(refs):.6g} s)")
    for line in out["lines"]:
        print(line)
    for gate in out["gates"]:
        print(f"gate {gate['name']} {'ok' if gate['ok'] else 'FAILED'}: {gate['detail']}")
    print(f"failed_ops_frac {out['failed'] / out['attempted']:.6g} ratio "
          f"({out['failed']} of {out['attempted']} attempted)")
    for name, (value, unit) in out["metrics"].items():
        metrics[name] = (value, unit)
    correct = all(g["ok"] for g in out["gates"]) and out["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
