"""Confidence-interval helpers for the Monte-Carlo estimators, all at 99%."""

from __future__ import annotations

import math

# Two-sided 99% normal quantile.
Z99 = 2.5758293035489004
# The Hoeffding bound's two-sided error probability.
ALPHA = 0.01


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at z = Z99."""
    if n <= 0:
        return 0.0, 1.0
    p = successes / n
    z2 = Z99 * Z99
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = (Z99 / denom) * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def hoeffding_halfwidth(n: int) -> float:
    """Two-sided Hoeffding bound half-width: P(|mean - p| >= w) <= ALPHA."""
    if n <= 0:
        return 1.0
    return math.sqrt(math.log(2.0 / ALPHA) / (2.0 * n))
