"""Machine-speed calibration for timings taken on a shared host.

On a small shared virtual machine the same work can take 25-50% longer from one
second to the next, because other tenants load the same cores.  A short
fixed calibration loop, run right before and right after each timed
block (a fraction of a second to a few seconds of work), measures the
host's speed at that moment; workload.py scales the end-to-end timings to
a host that runs the loop at CAL_REF units per second.  The loop mixes what the workloads spend their time on:
SHA-256 of short messages (the hm2 F_r fill), interpreter-bound Python
and small dict updates.  It uses only the standard library and never
touches ivpoq, so no change to the program can move it.

Raw (unscaled) figures are printed next to every scaled one.
"""

from __future__ import annotations

import hashlib
import time

# Units per second of _unit() on the machine the baseline was recorded on
# (2-vCPU Intel Xeon VM, Python 3.11.7); see BENCH_baseline.json.
CAL_REF = 1200.0
# A speed sample lasts CAL_SHARE of the block timed before it, and at
# least CAL_S seconds: short blocks need samples close in time, long ones
# (a process-pool call) samples that average over more of the block.
CAL_S = 0.15
CAL_SHARE = 0.25

_MSGS = [x.to_bytes(2, "big") for x in range(512)]


def _unit() -> int:
    copy = hashlib.sha256(b"perfbench").copy
    acc = 0
    for m in _MSGS:
        h = copy()
        h.update(m)
        acc ^= h.digest()[0]
    counts: dict[int, int] = {}
    for i in range(1500):
        key = (i * 2654435761) & 63
        counts[key] = counts.get(key, 0) + (i & 7)
    return acc + len(counts)


def speed(seconds: float) -> float:
    """Calibration units per second, measured over about `seconds`."""
    t0 = time.perf_counter()
    n = 0
    while True:
        _unit()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return n / elapsed


class Clock:
    """Chained calibration: each timed block sits between two speed samples."""

    def __init__(self):
        self.last = speed(CAL_S)

    def scale(self, block_s: float) -> float:
        """Measure again after a block of `block_s` seconds; return
        CAL_REF / (mean speed of the samples before and after it)."""
        before, self.last = self.last, speed(max(CAL_S, CAL_SHARE * block_s))
        return CAL_REF / ((before + self.last) / 2)
