"""Classical bit-commitment schemes in explicit message-function form.

A scheme is a pair of deterministic message functions: the sender's
round-j message is f_j(b, x, m_1, ..., m_{2j-2}) and the receiver's is
g_j(r, m_1, ..., m_{2j-1}), where b is the committed bit, x the sender's
ell-bit seed, r the receiver's ell-bit seed and m_* the transcript so
far (alternating sender/receiver, empty messages permitted).  Both seeds
have the same length, which is what makes the transcript-probability
identity of the coherent execution exact.

Three registered schemes:

* ``hm2``   -- 2-round statistically-hiding instantiation: beta_1 = r,
  alpha_2 = (F_r(x), e_r(x) xor b) where F_r compresses x to ell-a bits
  (truncated SHA-256 of r||x) and e_r(x) = <r, x> over GF(2) is a
  2-universal 1-bit extractor.  Hiding is a leftover-hash effect that
  grows with a; binding is heuristic and brute-forceable by design.
* ``ident`` -- reveals (b, x) in the first message: perfectly binding,
  not hiding at all.  A control for falsifying completeness claims.
* ``const`` -- every message is a constant: perfectly hiding, openable
  to both bits.  The designed non-binding control and the reduction's
  breakable target.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from .bits import check_ell, parity_u32, to_bytes

Transcript = tuple[bytes, ...]  # flat (alpha_1, beta_1, ..., alpha_L, beta_L)

# Per-scheme seed-bucket caches are bounded to roughly this many bytes.
_CACHE_BYTES = 1 << 28
# Seeds hashed per decode in an F_r fill: bounds the digests held at once.
_FILL_BLOCK = 1 << 10


class CommitScheme:
    """Base class: generic brute-force implementations of everything."""

    name = "abstract"
    rounds = 1

    def __init__(self, ell: int):
        check_ell(ell)
        self.ell = ell

    # message functions -------------------------------------------------
    def sender_msg(self, j: int, b: int, x: int, prefix: Transcript) -> bytes:
        """f_j: the sender's round-j message."""
        raise NotImplementedError

    def receiver_msg(self, j: int, r: int, prefix: Transcript) -> bytes:
        """g_j: the receiver's round-j message (prefix ends with alpha_j)."""
        raise NotImplementedError

    def _check_round(self, j: int, prefix: Transcript, want: int) -> None:
        if not 1 <= j <= self.rounds:
            raise ValueError(f"round {j} out of range for {self.name}")
        if len(prefix) != want:
            raise ValueError(f"round-{j} prefix must have {want} messages, got {len(prefix)}")

    # derived operations -------------------------------------------------
    def open_verify(self, t: Transcript, b: int, x: int) -> bool:
        """Replay f_j(b, x, .) against the transcript's sender messages."""
        if len(t) != 2 * self.rounds:
            raise ValueError(f"transcript must have {2 * self.rounds} messages")
        for j in range(1, self.rounds + 1):
            if self.sender_msg(j, b, x, t[: 2 * j - 2]) != t[2 * j - 2]:
                return False
        return True

    def consistent_mask(self, t: Transcript, b: int) -> np.ndarray:
        """Boolean mask over {0,1}^ell of seeds replaying every alpha_j."""
        mask = np.ones(1 << self.ell, dtype=bool)
        for x in range(1 << self.ell):
            if mask[x]:
                mask[x] = self.open_verify(t, b, x)
        return mask

    def consistent_set(self, t: Transcript, b: int) -> list[int]:
        return [int(x) for x in np.flatnonzero(self.consistent_mask(t, b))]

    def receiver_mask(self, t: Transcript) -> np.ndarray:
        """Mask of receiver seeds r replaying every beta_j of t."""
        n = 1 << self.ell
        mask = np.ones(n, dtype=bool)
        for r in range(n):
            for j in range(1, self.rounds + 1):
                if self.receiver_msg(j, r, t[: 2 * j - 1]) != t[2 * j - 1]:
                    mask[r] = False
                    break
        return mask

    # coherent-execution fast path ----------------------------------------
    def alpha_partition(self, j: int, xs0: np.ndarray, xs1: np.ndarray, prefix: Transcript):
        """Label both branches' seeds with integer keys of their round-j message.

        Returns (keys0, keys1, n_keys, decode); the key space is shared
        across branches and decode maps a key back to message bytes.
        The generic path calls f_j per element; structured schemes
        override with vectorized versions.
        """
        table: dict[bytes, int] = {}
        inv: list[bytes] = []

        def intern(b: int, xs: np.ndarray) -> np.ndarray:
            keys = np.empty(len(xs), dtype=np.int64)
            for i, x in enumerate(xs):
                msg = self.sender_msg(j, b, int(x), prefix)
                key = table.get(msg)
                if key is None:
                    key = table[msg] = len(inv)
                    inv.append(msg)
                keys[i] = key
            return keys

        keys0 = intern(0, xs0)
        keys1 = intern(1, xs1)
        return keys0, keys1, len(inv), inv.__getitem__

    # housekeeping ---------------------------------------------------------
    def params_dict(self) -> dict:
        return {"name": self.name, "ell": self.ell}


class ConstScheme(CommitScheme):
    """One round; both messages are the empty string regardless of input."""

    name = "const"
    rounds = 1

    def sender_msg(self, j, b, x, prefix):
        self._check_round(j, prefix, 0)
        return b""

    def receiver_msg(self, j, r, prefix):
        self._check_round(j, prefix, 1)
        return b""

    def consistent_mask(self, t, b):
        ok = t == (b"", b"")
        return np.full(1 << self.ell, ok, dtype=bool)

    def receiver_mask(self, t):
        ok = t == (b"", b"")
        return np.full(1 << self.ell, ok, dtype=bool)

    def alpha_partition(self, j, xs0, xs1, prefix):
        zeros = np.zeros(len(xs0), dtype=np.int64), np.zeros(len(xs1), dtype=np.int64)
        return zeros[0], zeros[1], 1, (lambda key: b"")


class IdentScheme(CommitScheme):
    """One round; alpha_1 = b || x reveals the entire commitment."""

    name = "ident"
    rounds = 1

    def sender_msg(self, j, b, x, prefix):
        self._check_round(j, prefix, 0)
        return bytes([b]) + to_bytes(x, self.ell)

    def receiver_msg(self, j, r, prefix):
        self._check_round(j, prefix, 1)
        return b""

    def consistent_mask(self, t, b):
        mask = np.zeros(1 << self.ell, dtype=bool)
        alpha = t[0]
        if len(alpha) == 1 + (self.ell + 7) // 8 and alpha[0] == b:
            x = int.from_bytes(alpha[1:], "big")
            if x < 1 << self.ell:
                mask[x] = True
        return mask

    def receiver_mask(self, t):
        ok = t[1] == b""
        return np.full(1 << self.ell, ok, dtype=bool)


class Hm2Scheme(CommitScheme):
    """Two rounds, statistically hiding for ell - a >> 1.

    Round 1: alpha_1 = "" and beta_1 = r (the receiver seed doubles as
    the compressing-function key and the extractor mask; the seed-length
    equality leaves no spare bits for separate fields).
    Round 2: alpha_2 = F_r(x) || (e_r(x) xor b), beta_2 = "".
    """

    name = "hm2"
    rounds = 2

    def __init__(self, ell: int, a: int = 8):
        super().__init__(ell)
        if not 1 <= a < ell:
            raise ValueError(f"need 1 <= a < ell, got a={a}, ell={ell}")
        self.a = a
        self.out_bits = ell - a
        self._seed_bytes = (ell + 7) // 8
        self._out_bytes = (self.out_bits + 7) // 8
        self._buckets: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()
        self._max_cached = max(4, _CACHE_BYTES // (5 << ell))
        self._xbytes: list[bytes] | None = None

    # the compressing function and the extractor -------------------------
    def compress(self, r: int, x: int) -> int:
        """F_r(x): leading ell-a bits of SHA-256(tag || r || x)."""
        digest = hashlib.sha256(
            b"hm2" + to_bytes(r, self.ell) + to_bytes(x, self.ell)
        ).digest()
        return int.from_bytes(digest[:4], "big") >> (32 - self.out_bits)

    def extract(self, r: int, x: int) -> int:
        """e_r(x): GF(2) inner product of the seed mask with x."""
        return (r & x).bit_count() & 1

    def _bucket(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """(F_r(x), e_r(x)) for every x, cached per receiver seed."""
        hit = self._buckets.get(r)
        if hit is not None:
            self._buckets.move_to_end(r)
            return hit
        n = 1 << self.ell
        if self._xbytes is None:
            nb = self._seed_bytes
            self._xbytes = [x.to_bytes(nb, "big") for x in range(n)]
        copy = hashlib.sha256(b"hm2" + to_bytes(r, self.ell)).copy
        fvals = np.empty(n, dtype=np.int32)
        for lo in range(0, n, _FILL_BLOCK):
            digests = []
            for xb in self._xbytes[lo : lo + _FILL_BLOCK]:
                h = copy()
                h.update(xb)
                digests.append(h.digest())
            # Word 0 of each 32-byte digest, big-endian, as compress() reads it.
            words = np.frombuffer(b"".join(digests), dtype=">u4")[::8]
            fvals[lo : lo + len(digests)] = words >> (32 - self.out_bits)
        evals = parity_u32(np.arange(n, dtype=np.uint32) & np.uint32(r)).astype(np.int8)
        self._buckets[r] = (fvals, evals)
        if len(self._buckets) > self._max_cached:
            self._buckets.popitem(last=False)
        return fvals, evals

    # message functions ----------------------------------------------------
    def sender_msg(self, j, b, x, prefix):
        self._check_round(j, prefix, 2 * (j - 1))
        if j == 1:
            return b""
        r = self._seed_from_beta1(prefix[1])
        y0 = self.compress(r, x)
        c = self.extract(r, x) ^ b
        return to_bytes(y0, self.out_bits) + bytes([c])

    def receiver_msg(self, j, r, prefix):
        self._check_round(j, prefix, 2 * j - 1)
        if j == 1:
            return to_bytes(r, self.ell)
        return b""

    def _seed_from_beta1(self, beta1: bytes) -> int:
        if len(beta1) != self._seed_bytes:
            raise ValueError("malformed receiver message")
        r = int.from_bytes(beta1, "big")
        if r >= 1 << self.ell:
            raise ValueError("malformed receiver message")
        return r

    # structured fast paths --------------------------------------------------
    def consistent_mask(self, t, b):
        if len(t) != 4:
            raise ValueError("transcript must have 4 messages")
        if t[0] != b"" or t[3] != b"":
            return np.zeros(1 << self.ell, dtype=bool)
        r = self._seed_from_beta1(t[1])
        alpha2 = t[2]
        if len(alpha2) != self._out_bytes + 1 or alpha2[-1] > 1:
            return np.zeros(1 << self.ell, dtype=bool)
        y0 = int.from_bytes(alpha2[:-1], "big")
        c = alpha2[-1]
        fvals, evals = self._bucket(r)
        return (fvals == y0) & (evals == (c ^ b))

    def receiver_mask(self, t):
        mask = np.zeros(1 << self.ell, dtype=bool)
        mask[self._seed_from_beta1(t[1])] = True
        return mask

    def alpha_partition(self, j, xs0, xs1, prefix):
        if j == 1:
            z0 = np.zeros(len(xs0), dtype=np.int64)
            z1 = np.zeros(len(xs1), dtype=np.int64)
            return z0, z1, 1, (lambda key: b"")
        r = self._seed_from_beta1(prefix[1])
        fvals, evals = self._bucket(r)
        keys0 = (fvals[xs0].astype(np.int64) << 1) | evals[xs0]
        keys1 = (fvals[xs1].astype(np.int64) << 1) | (evals[xs1] ^ 1)

        def decode(key: int) -> bytes:
            return to_bytes(int(key) >> 1, self.out_bits) + bytes([int(key) & 1])

        return keys0, keys1, 2 << self.out_bits, decode

    def params_dict(self):
        return {"name": self.name, "ell": self.ell, "a": self.a}

    def __getstate__(self):
        # The F_r cache and seed bytes stay in this process; a copy rebuilds them.
        state = dict(self.__dict__)
        state["_buckets"] = OrderedDict()
        state["_xbytes"] = None
        return state


_REGISTRY = {"const": ConstScheme, "ident": IdentScheme, "hm2": Hm2Scheme}


def make_scheme(name: str, ell: int, **params) -> CommitScheme:
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}; choose from {sorted(_REGISTRY)}")
    return cls(ell, **params)


def run_classical_commit(scheme: CommitScheme, b: int, x: int, r: int) -> Transcript:
    """Honest classical commit phase; returns the full transcript."""
    msgs: list[bytes] = []
    for j in range(1, scheme.rounds + 1):
        msgs.append(scheme.sender_msg(j, b, x, tuple(msgs)))
        msgs.append(scheme.receiver_msg(j, r, tuple(msgs)))
    return tuple(msgs)


def transcript_distributions(scheme: CommitScheme) -> dict[Transcript, tuple[int, int]]:
    """Exact per-bit transcript counts over all (x, r): {t: (n_b0, n_b1)}.

    Pr[t | b] = counts[t][b] / 2^(2 ell).  Full enumeration; keep ell small.
    """
    n = 1 << scheme.ell
    counts: dict[Transcript, list[int]] = {}
    for b in (0, 1):
        for r in range(n):
            for x in range(n):
                t = run_classical_commit(scheme, b, x, r)
                counts.setdefault(t, [0, 0])[b] += 1
    return {t: (c[0], c[1]) for t, c in counts.items()}


def hiding_distance(
    scheme: CommitScheme,
    num_transcripts: int = 0,
    rng: np.random.Generator | None = None,
    exact_ell_cap: int = 10,
) -> float:
    """Statistical distance between transcript laws for b=0 and b=1.

    Exact (full (x, r) enumeration) when 2^(2 ell) is small enough,
    otherwise a Monte-Carlo average over num_transcripts receiver seeds
    with the inner sum over x kept exact.  The sampled estimator matches
    the exact distance whenever the receiver messages pin down the seed
    (true for hm2); for other schemes it is an upper bound.
    """
    if scheme.ell <= exact_ell_cap:
        counts = transcript_distributions(scheme)
        scale = 1 << (2 * scheme.ell)
        return sum(abs(c0 - c1) for c0, c1 in counts.values()) / (2 * scale)
    if num_transcripts <= 0 or rng is None:
        raise ValueError("need num_transcripts and rng above the exact cap")
    n = 1 << scheme.ell
    total = 0.0
    for _ in range(num_transcripts):
        r = int(rng.integers(n))
        per_t: dict[Transcript, list[int]] = {}
        for b in (0, 1):
            for x in range(n):
                t = run_classical_commit(scheme, b, x, r)
                per_t.setdefault(t, [0, 0])[b] += 1
        total += sum(abs(c0 - c1) for c0, c1 in per_t.values()) / (2 * n)
    return total / num_transcripts
