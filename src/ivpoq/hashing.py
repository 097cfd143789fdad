"""Pairwise-independent hash families {0,1}^ell -> [k].

The protocol samples one family, ``affine-mod-prime`` (HashFn):
h(x) = ((a.x + b) mod P) mod k for the one prime P = 2^61 - 1 and every
k from 1 to K_MAX = 2^(ELL_CAP+1), which bounds the grid's
k = ceil((1+eps)^j) <= 2^(ell+1).  It is within bias 2k/P + (k/P)^2 < 2^-34.99
of exact pairwise independence, which is negligible against desk-scale
sampling error.  A HashFn keeps its prime, so a saved member of another
prime still evaluates.

The lemma check enumerates ``gf2-affine`` (Gf2AffineHash):
h(x) = A.x xor v over GF(2), codomain size k = 2^j.  It is exactly
pairwise independent, and the whole family is enumerable at ell <= 3.

The codomain [k] is represented 0-indexed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .bits import ELL_CAP, check_ell, dot2

AFFINE_MOD_PRIME = "affine-mod-prime"

# The family's prime, and the largest codomain size it serves.
P = (1 << 61) - 1
K_MAX = 1 << (ELL_CAP + 1)
# Constants of the uint64 kernel.
_M61 = np.uint64(P)
_U24, _U37, _U61 = np.uint64(24), np.uint64(37), np.uint64(61)
_LOW24 = np.uint64((1 << 24) - 1)
_LOW37 = np.uint64((1 << 37) - 1)
# Up to this many seeds, eval_many computes with Python ints.
_SCALAR_MAX = 32


@dataclass(frozen=True)
class HashFn:
    """An affine-mod-prime member x -> ((a x + b) mod p) mod k."""

    ell: int
    k: int
    a: int
    b: int
    p: int

    def eval(self, x: int) -> int:
        return ((self.a * x + self.b) % self.p) % self.k

    def eval_many(self, xs) -> np.ndarray:
        """Vectorized eval for int arrays (falls back to a scalar loop)."""
        arr = np.asarray(xs, dtype=np.int64)
        if arr.size == 0:
            return arr.copy()
        if self.p == P and arr.size > _SCALAR_MAX:
            return _eval_m61(arr, np.uint64(self.a), np.uint64(self.b), np.uint64(self.k))
        return _eval_ints(self.a, self.b, self.p, self.k, arr)

    def to_json_dict(self) -> dict:
        return {
            "family": AFFINE_MOD_PRIME, "ell": self.ell, "k": self.k, "a": self.a, "b": self.b, "p": self.p
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "HashFn":
        if d["family"] != AFFINE_MOD_PRIME:
            raise ValueError(f"unknown hash family {d['family']!r}")
        return cls(ell=d["ell"], k=d["k"], a=d["a"], b=d["b"], p=d["p"])


def _eval_m61(arr: np.ndarray, a, b, k) -> np.ndarray:
    """((a*x + b) mod (2^61 - 1)) mod k for int64 seeds x < 2^24.

    a, b and k are uint64 scalars, or uint64 arrays shaped like arr (one
    member per seed).  Split a = a_hi 2^24 + a_lo and reduce a_hi*x*2^24
    with 2^61 = 1 (mod p); x < 2^24 keeps every product in range.
    """
    x = arr.view(np.uint64)
    t = (a >> _U24) * x
    tot = (t >> _U37) + ((t & _LOW37) << _U24) + (a & _LOW24) * x
    tot += b
    # tot < 2^63, so one fold leaves it below 2p; below p, tot - p wraps
    # past tot, so the minimum is the reduced value either way.
    tot = (tot & _M61) + (tot >> _U61)
    tot = np.minimum(tot, tot - _M61)
    return (tot % k).view(np.int64)


def _eval_ints(a: int, b: int, p: int, k: int, xs: np.ndarray) -> np.ndarray:
    """One member on int64 seeds in Python ints: exact for every prime, and
    faster than numpy on few seeds."""
    return np.array([(a * x + b) % p % k for x in xs.tolist()], dtype=np.int64)


class HashColumns(NamedTuple):
    """Members as uint64 columns: member i is x -> ((a[i] x + b[i]) mod P) mod k[i]."""

    a: np.ndarray
    b: np.ndarray
    k: np.ndarray

    def take(self, rows) -> "HashColumns":
        return HashColumns(*(col[rows] for col in self))

    def member(self, ell: int, i: int) -> HashFn:
        return HashFn(ell, int(self.k[i]), int(self.a[i]), int(self.b[i]), P)


def eval_segments(hashes: HashColumns, xs: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Each member of hashes applied to its run of seeds, concatenated:
    member i evaluates the lens[i] int64 seeds of xs after the runs of the
    members before it, in one kernel call with per-seed (a, b, k)."""
    return _eval_m61(xs, *(np.repeat(col, lens) for col in hashes))


def _check_ks(ell: int, ks) -> None:
    """Raise ValueError unless ell is in range and 1 <= k <= K_MAX for every k of ks."""
    check_ell(ell)
    if np.min(ks) < 1:
        raise ValueError("k must be >= 1")
    if np.max(ks) > K_MAX:
        raise ValueError(f"k must be <= K_MAX = {K_MAX}, got {np.max(ks)}")


def sample_hash(ell: int, k: int, rng: np.random.Generator) -> HashFn:
    """Draw a member uniformly: a, then b, each below P."""
    _check_ks(ell, k)
    a, b = int(rng.integers(P)), int(rng.integers(P))
    return HashFn(ell, k, a, b, P)


def sample_hash_pairs(ell: int, ks, streams) -> HashColumns:
    """Two members with codomain ks[i] for each row i of a SessionStreams,
    drawn as sample_hash(ell, ks[i], rng) twice on that row's stream.

    Returns the columns of [h0 of row 0, h1 of row 0, h0 of row 1, ...];
    every row draws a0, b0, a1, b1 in sample_hash's order.
    """
    ks = np.asarray(ks)
    _check_ks(ell, ks)
    coeffs = np.array([streams.integers(P) for _ in range(4)], dtype=np.uint64)  # a0, b0, a1, b1
    return HashColumns(coeffs[0::2].T.ravel(), coeffs[1::2].T.ravel(), np.repeat(ks.astype(np.uint64), 2))


def pairwise_bias_bound(h: HashFn) -> float:
    """Worst-case deviation of pair probabilities from 1/k^2: 2k/p + (k/p)^2."""
    r = h.k / h.p
    return 2 * r + r * r


class Gf2AffineHash(NamedTuple):
    """A gf2-affine member x -> A.x xor shift, k = 2^j: rows[i] is the GF(2)
    mask producing output bit j-1-i (row 0 gives the most significant bit)."""

    ell: int
    k: int
    rows: tuple[int, ...]
    shift: int

    def eval(self, x: int) -> int:
        y = 0
        for row in self.rows:
            y = (y << 1) | dot2(row, x)
        return y ^ self.shift


def enumerate_gf2_affine(ell: int, k: int) -> Iterator[Gf2AffineHash]:
    """Yield every gf2-affine member {0,1}^ell -> [k]: 2^(j*(ell+1)) of them
    for k = 2^j, so callers should keep ell <= 3."""
    if k & (k - 1):
        raise ValueError(f"gf2-affine needs a power-of-two k, got {k}")
    j = k.bit_length() - 1
    for packed in range(1 << (ell * j)):
        rows = tuple((packed >> (ell * i)) & ((1 << ell) - 1) for i in range(j))
        for shift in range(k):
            yield Gf2AffineHash(ell, k, rows, shift)
