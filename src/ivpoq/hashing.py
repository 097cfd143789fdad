"""Pairwise-independent hash families {0,1}^ell -> [k].

The protocol samples one family, ``affine-mod-prime`` (HashFn):
h(x) = ((a.x + b) mod p) mod k for a fixed prime p >= max(2^ell, 2^40 * k).
It serves every k >= 1, as the grid's k = ceil((1+eps)^j) needs, and is
within bias 2k/p + (k/p)^2 of exact pairwise independence, which is
negligible against desk-scale sampling error.

The lemma check enumerates ``gf2-affine`` (Gf2AffineHash):
h(x) = A.x xor v over GF(2), codomain size k = 2^j.  It is exactly
pairwise independent, and the whole family is enumerable at ell <= 3.

The codomain [k] is represented 0-indexed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .bits import check_ell, parity

AFFINE_MOD_PRIME = "affine-mod-prime"

# Mersenne primes large enough for every desk-scale (ell, k).
_PRIMES = ((1 << 61) - 1, (1 << 89) - 1, (1 << 127) - 1)
# Constants of the 2^61 - 1 fast path.
_M61 = np.uint64(_PRIMES[0])
_U24, _U37, _U61 = np.uint64(24), np.uint64(37), np.uint64(61)
_LOW24 = np.uint64((1 << 24) - 1)
_LOW37 = np.uint64((1 << 37) - 1)
# Up to this many seeds, eval_many computes with Python ints.
_SCALAR_MAX = 32


# Prime p serves the k <= p >> 40 (p >= 2^40 k); each exceeds 2^ell at ell <= 24.
_K_CUTOFFS = [p >> 40 for p in _PRIMES]


def _prime_index(ell: int, ks):
    """The index in _PRIMES of the least prime p >= max(2^ell, 2^40 k), elementwise."""
    if np.max(ks) > _K_CUTOFFS[-1]:
        raise ValueError(f"no configured prime covers ell={ell}, k={np.max(ks)}")
    return np.searchsorted(_K_CUTOFFS[:-1], ks)


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

    __call__ = eval

    def eval_many(self, xs) -> np.ndarray:
        """Vectorized eval for int arrays (falls back to a scalar loop)."""
        arr = np.asarray(xs, dtype=np.int64)
        if arr.size == 0:
            return arr.copy()
        if self.p == _PRIMES[0] and arr.size > _SCALAR_MAX:
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
    """Members as columns: member i is x -> ((a[i] x + b[i]) mod p[i]) mod k[i].

    p is an object array.  a, b and k are uint64 when every p is 2^61 - 1
    and object arrays of Python ints otherwise, so eval_segments can tell
    the kernel's case by a's dtype.
    """

    a: np.ndarray
    b: np.ndarray
    k: np.ndarray
    p: np.ndarray

    def take(self, rows) -> "HashColumns":
        return HashColumns(*(col[rows] for col in self))

    def member(self, ell: int, i: int) -> HashFn:
        return HashFn(ell, int(self.k[i]), int(self.a[i]), int(self.b[i]), int(self.p[i]))


def eval_segments(hashes: HashColumns, xs: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Each member of hashes applied to its run of seeds, concatenated.

    Member i evaluates the lens[i] int64 seeds of xs after the runs of the
    members before it.  uint64 columns make one kernel call with per-seed
    (a, b, k); Python-int columns go member by member.
    """
    if hashes.a.dtype == np.uint64:
        return _eval_m61(xs, *(np.repeat(col, lens) for col in hashes[:3]))
    runs = np.split(xs, np.cumsum(lens)[:-1])
    return np.concatenate([
        _eval_ints(a, b, p, k, run) for a, b, k, p, run in zip(*hashes, runs)
    ])


def sample_hash(ell: int, k: int, rng: np.random.Generator) -> HashFn:
    """Draw a member uniformly: a, then b, each below the prime for (ell, k)."""
    check_ell(ell)
    if k < 1:
        raise ValueError("k must be >= 1")
    p = _PRIMES[_prime_index(ell, k)]
    a = _uniform_below(p, rng)
    b = _uniform_below(p, rng)
    return HashFn(ell, k, a, b, p)


def _uniform_below(p: int, rng: np.random.Generator) -> int:
    """Uniform int in [0, p) for p beyond the 64-bit draw range."""
    if p <= 1 << 63:
        return int(rng.integers(p))
    nbits = p.bit_length()
    nbytes = (nbits + 7) // 8
    mask = (1 << nbits) - 1
    while True:
        v = int.from_bytes(rng.bytes(nbytes), "big") & mask
        if v < p:
            return v


def sample_hash_pairs(ell: int, ks, streams) -> HashColumns:
    """Two members with codomain ks[i] for each row i of a SessionStreams,
    drawn as sample_hash(ell, ks[i], rng) twice on that row's stream.

    Returns the columns of [h0 of row 0, h1 of row 0, h0 of row 1, ...].
    Each row's four draws (a0, b0, a1, b1) come in sample_hash's order;
    rows that share a prime draw together.
    """
    check_ell(ell)
    ks = np.asarray(ks)  # object where a k exceeds int64
    if ks.min() < 1:
        raise ValueError("k must be >= 1")
    at = _prime_index(ell, ks)
    coeffs = np.zeros((4, len(ks)), dtype=np.uint64 if not at.any() else object)
    for i in np.flatnonzero(np.bincount(at)).tolist():
        rows = np.flatnonzero(at == i)
        for col in coeffs:
            col[rows] = _uniform_below_rows(_PRIMES[i], streams, rows)
    cols = coeffs[0::2].T.ravel(), coeffs[1::2].T.ravel(), np.repeat(ks, 2).astype(coeffs.dtype)
    return HashColumns(*cols, np.repeat(np.array(_PRIMES, dtype=object)[at], 2))


def _uniform_below_rows(p: int, streams, rows: np.ndarray):
    """_uniform_below(p, rng) on each of streams' rows: int64 for p <= 2^63,
    Python ints above."""
    if p <= 1 << 63:
        return streams.integers(p, rows)
    nbits = p.bit_length()
    mask = (1 << nbits) - 1
    out, pending = [0] * len(rows), list(range(len(rows)))
    while pending:
        blobs = streams.bytes((nbits + 7) // 8, rows[pending])
        vals = [int.from_bytes(blob, "big") & mask for blob in blobs]
        for q, v in zip(pending, vals):
            out[q] = v
        pending = [q for q, v in zip(pending, vals) if v >= p]
    return out


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
            y = (y << 1) | parity(row & x)
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
