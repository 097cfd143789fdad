"""Bit-vector helpers shared across the protocol modules.

Bit strings of length ell are represented as Python ints in [0, 2**ell);
bit i of the string is the coefficient of 2**i.  GF(2) inner products are
popcount parities of ANDed ints.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Support sets and Walsh-Hadamard transforms are Theta(2**ell).
ELL_CAP = 24


def _parity16() -> np.ndarray:
    """Parity of every 16-bit value: fold the halves together with XOR
    until bit 0 holds the parity of all sixteen bits."""
    v = np.arange(1 << 16, dtype=np.uint16)
    for shift in (8, 4, 2, 1):
        v ^= v >> shift
    return (v & 1).astype(np.uint8)


PARITY16 = _parity16()


def dot2(a: int, b: int) -> int:
    """GF(2) inner product of two bit vectors."""
    return (a & b).bit_count() & 1


def parity_u32(vals: np.ndarray) -> np.ndarray:
    """Vectorized bit parity for arrays of ints < 2**32."""
    v = np.asarray(vals, dtype=np.uint32)
    return PARITY16[v & 0xFFFF] ^ PARITY16[v >> 16]


def check_ell(ell: int) -> None:
    if not 1 <= ell <= ELL_CAP:
        raise ValueError(f"ell={ell} outside supported range [1, {ELL_CAP}]")


def to_bytes(x: int, ell: int) -> bytes:
    return int(x).to_bytes((ell + 7) // 8, "big")


def to_hex(x: int, ell: int) -> str:
    return to_bytes(x, ell).hex()


def from_hex(s: str) -> int:
    return int.from_bytes(bytes.fromhex(s), "big") if s else 0


def wht(vec: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the last axis, exact over int64.

    out[..., d] = sum_x (-1)^(d.x) vec[..., x], so a matrix is transformed
    row by row.  The last axis must have power-of-two length.  Entries
    stay integers throughout; no rounding happens here.
    """
    src = np.array(vec, dtype=np.int64, copy=True)
    shape = src.shape
    n = shape[-1]
    if n & (n - 1):
        raise ValueError("WHT length must be a power of two")
    # Constant-geometry butterflies between two buffers: each stage writes
    # the sums and differences of adjacent pairs to the two halves, and
    # after log2(n) stages the pair shuffles compose to the identity.
    dst = np.empty_like(src)
    for _ in range(n.bit_length() - 1):
        pairs = src.reshape(*shape[:-1], n // 2, 2)
        halves = dst.reshape(*shape[:-1], 2, n // 2)
        np.add(pairs[..., 0], pairs[..., 1], out=halves[..., 0, :])
        np.subtract(pairs[..., 0], pairs[..., 1], out=halves[..., 1, :])
        src, dst = dst, src
    return src


def key_hash(*parts: bytes | int | str, base=None):
    """The SHA-256 state of a key: each part's length, then its bytes, an
    int as 16 signed big-endian bytes and a str as UTF-8.  Given base, the
    state of a key prefix, a copy of it is extended, so keys that share
    the prefix hash it once."""
    h = hashlib.sha256() if base is None else base.copy()
    for p in parts:
        if isinstance(p, int):
            p = p.to_bytes(16, "big", signed=True)
        elif isinstance(p, str):
            p = p.encode()
        h.update(len(p).to_bytes(4, "big"))
        h.update(p)
    return h


def rng_from_key(*parts: bytes | int | str) -> np.random.Generator:
    """Deterministic RNG derived from a tuple of values via SHA-256:
    default_rng of key_hash's digest read as a big-endian int, which is
    the row streams.SessionStreams.from_digests seeds from that digest.

    Used by replayable classical provers: the same key always yields the
    same stream, independent streams for distinct keys.
    """
    return np.random.default_rng(int.from_bytes(key_hash(*parts).digest(), "big"))
