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
from typing import Callable, NamedTuple

import numpy as np

from .bits import check_ell, parity_u32, to_bytes

Transcript = tuple[bytes, ...]  # flat (alpha_1, beta_1, ..., alpha_L, beta_L)

# Per-scheme seed-bucket caches are bounded to roughly this many bytes.
_CACHE_BYTES = 1 << 28
# Seeds hashed per decode in an F_r fill: bounds the digests held at once.
# A multiple of 256, so each block holds whole runs of one seed's high bytes.
_FILL_BLOCK = 1 << 10
# The one-byte strings, each a seed's last byte in an F_r fill.
_LAST_BYTES = [bytes([v]) for v in range(256)]


class CommitRoundLaw(NamedTuple):
    """Exact law of one round's sender message over a support state (S0, S1).

    The message with integer key keys[i] (keys ascending) is observed on
    counts[i] of the |S0|+|S1| branches; alpha(i) is its bytes, and
    split(i) is the (s0, s1) pair of ascending int64 seeds the state
    collapses to then.  Splits are made on demand, so a sampler pays only
    for the branch it takes.
    """

    keys: np.ndarray
    counts: np.ndarray
    decode: Callable[[int], bytes]
    split_key: Callable[[int], tuple[np.ndarray, np.ndarray]]

    def alpha(self, i: int) -> bytes:
        return self.decode(int(self.keys[i]))

    def split(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        return self.split_key(int(self.keys[i]))

    def index_of(self, alpha: bytes) -> int | None:
        for i in range(len(self.counts)):
            if self.alpha(i) == alpha:
                return i
        return None


def one_class_law(xs0: np.ndarray, xs1: np.ndarray, msg: bytes) -> CommitRoundLaw:
    """A round whose message is msg on every branch: the state survives whole."""
    size = len(xs0) + len(xs1)
    counts = np.array([size] if size else [], dtype=np.int64)
    keys = np.zeros(len(counts), dtype=np.int64)
    return CommitRoundLaw(keys, counts, lambda key: msg, lambda key: (xs0, xs1))


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

    def consistent_seeds(self, t: Transcript, b: int) -> np.ndarray:
        """X_{b,t}: the seeds replaying every alpha_j, as ascending int64."""
        return np.flatnonzero(self.consistent_mask(t, b)).astype(np.int64, copy=False)

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
        """The exact law of the round-j message over the state (xs0, xs1).

        The generic path calls f_j per element and interns the messages
        as integer keys; structured schemes override it.
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
        both = np.bincount(keys0, minlength=len(inv)) + np.bincount(keys1, minlength=len(inv))
        alive = np.flatnonzero(both)
        return CommitRoundLaw(
            alive, both[alive], inv.__getitem__, lambda key: (xs0[keys0 == key], xs1[keys1 == key])
        )

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

    def alpha_partition(self, j, xs0, xs1, prefix):
        return one_class_law(xs0, xs1, b"")


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


class Hm2Table(NamedTuple):
    """One receiver seed's F_r table, indexed by message key.

    Seed x's round-2 message on branch 0 has key k(x) = F_r(x)<<1 | e_r(x)
    (branch 1 flips the low bit).  order holds the seeds stably sorted by
    key, so class k is order[starts[k]:starts[k+1]] and ascending.
    """

    order: np.ndarray
    starts: np.ndarray

    def seeds(self, key: int) -> np.ndarray:
        """Class `key` as ascending int64 seeds."""
        return self.order[self.starts[key] : self.starts[key + 1]].astype(np.int64)


class Hm2Rows(NamedTuple):
    """Rows of sessions, each with its receiver seed's table: orders[i] is
    row i's seed order and starts[inv[i]] its class starts (int64), one
    starts row per distinct seed."""

    orders: list
    inv: np.ndarray
    starts: np.ndarray

    def commit_keys(self, us: np.ndarray) -> np.ndarray:
        """Round 2's key K of each row from the full state, as sample_index
        picks it with draw u < 2^(ell+1) over the full-state alpha_partition's
        counts: the cumulative count through key 2m+1 is 2 starts[2m+2] and
        through key 2m it is starts[2m] + starts[2m+2].  Each table's pair
        ends, offset by its index times 2^ell + 1, make one ascending array."""
        width = self.starts[0, -1] + 1
        ends = self.starts[:, 2::2] + width * np.arange(len(self.starts))[:, None]
        m = ends.ravel().searchsorted(width * self.inv + (us >> 1), side="right")
        m -= ends.shape[1] * self.inv
        return 2 * m + (self.starts[self.inv, 2 * m] + self.starts[self.inv, 2 * m + 2] <= us)

    def classes(self, keys: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Class keys[i] of each row's table as a view (its narrow seed
        dtype) and the views' lengths; a negative key is the empty class."""
        at = np.maximum(keys, 0)
        lo = self.starts[self.inv, at]
        hi = np.where(keys < 0, lo, self.starts[self.inv, at + 1])
        return [o[s:e] for o, s, e in zip(self.orders, lo.tolist(), hi.tolist())], hi - lo


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
        n = 1 << ell
        self._n_keys = 2 << self.out_bits
        # Narrowest dtypes for keys (a fill temporary), seeds and class
        # offsets; keys of 16 bits or fewer make the stable argsort a radix sort.
        self._dtypes = tuple(np.min_scalar_type(v) for v in (self._n_keys - 1, n - 1, n))
        entry = n * self._dtypes[1].itemsize + (self._n_keys + 1) * self._dtypes[2].itemsize
        self._buckets: OrderedDict[int, Hm2Table] = OrderedDict()
        self._max_cached = max(4, _CACHE_BYTES // entry)

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

    def _bucket(self, r: int) -> Hm2Table:
        """r's table of every seed indexed by message key, cached per receiver seed."""
        hit = self._buckets.get(r)
        if hit is not None:
            self._buckets.move_to_end(r)
            return hit
        n = 1 << self.ell
        key_t, seed_t, start_t = self._dtypes
        prefix = hashlib.sha256(b"hm2" + to_bytes(r, self.ell))
        # Seeds x..x+255 with x a multiple of 256 share every byte but the
        # last: hash the shared bytes once per run, then each last byte.
        run, high = min(n, 256), self._seed_bytes - 1
        keys = np.empty(n, dtype=key_t)
        for lo in range(0, n, _FILL_BLOCK):
            digests = []
            for x in range(lo, min(lo + _FILL_BLOCK, n), run):
                shared = prefix.copy()
                shared.update((x >> 8).to_bytes(high, "big"))
                copy = shared.copy
                for last in _LAST_BYTES[:run]:
                    h = copy()
                    h.update(last)
                    digests.append(h.digest())
            # Word 0 of each 32-byte digest, big-endian, as compress() reads it.
            words = np.frombuffer(b"".join(digests), dtype=">u4")[::8]
            keys[lo : lo + len(digests)] = words >> (32 - self.out_bits)
        keys <<= 1
        keys |= parity_u32(np.arange(n, dtype=np.uint32) & np.uint32(r))
        starts = np.zeros(self._n_keys + 1, dtype=start_t)
        starts[1:] = np.bincount(keys, minlength=self._n_keys).cumsum()
        table = Hm2Table(np.argsort(keys, kind="stable").astype(seed_t), starts)
        self._buckets[r] = table
        if len(self._buckets) > self._max_cached:
            self._buckets.popitem(last=False)
        return table

    def _decode_key(self, key: int) -> bytes:
        return to_bytes(int(key) >> 1, self.out_bits) + bytes([int(key) & 1])

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
    def transcript_key(self, t) -> tuple[int, int]:
        """(r, K) for transcript t: X_{b,t} is class K ^ b of r's table, and
        K is -1 where no seed replays t.  A t of the wrong length or with a
        malformed beta_1 raises ValueError."""
        if len(t) != 4:
            raise ValueError("transcript must have 4 messages")
        if t[0] != b"" or t[3] != b"":
            return 0, -1
        r = self._seed_from_beta1(t[1])
        alpha2 = t[2]
        if len(alpha2) != self._out_bytes + 1 or alpha2[-1] > 1:
            return r, -1
        key = int.from_bytes(alpha2[:-1], "big") << 1 | alpha2[-1]
        return r, (key if key < self._n_keys else -1)

    def transcript(self, r: int, key: int) -> Transcript:
        """The transcript whose transcript_key is (r, key), for key >= 0."""
        return (b"", to_bytes(r, self.ell), self._decode_key(key), b"")

    def consistent_seeds(self, t, b):
        r, key = self.transcript_key(t)
        if key < 0:
            return np.empty(0, dtype=np.int64)
        return self._bucket(r).seeds(key ^ b)

    def consistent_mask(self, t, b):
        mask = np.zeros(1 << self.ell, dtype=bool)
        mask[self.consistent_seeds(t, b)] = True
        return mask

    def alpha_partition(self, j, xs0, xs1, prefix):
        if j == 1:
            return one_class_law(xs0, xs1, b"")
        if len(xs0) != 1 << self.ell or len(xs1) != 1 << self.ell:
            return super().alpha_partition(j, xs0, xs1, prefix)
        # The full state (its seeds are distinct): message key K is seen on
        # branch 0's class K and on branch 1's class K^1, so both keys of a
        # pair (2m, 2m+1) count the pair's seeds, starts[2m+2] - starts[2m],
        # and the splits are slices.
        table = self._bucket(self._seed_from_beta1(prefix[1]))
        both = np.repeat(np.diff(table.starts[::2].astype(np.int64)), 2)
        alive = np.flatnonzero(both)
        return CommitRoundLaw(
            alive, both[alive], self._decode_key, lambda key: (table.seeds(key), table.seeds(key ^ 1))
        )

    def rows(self, rs: np.ndarray) -> "Hm2Rows":
        """The tables of receiver seeds rs, one lookup per distinct seed."""
        distinct, inv = np.unique(rs, return_inverse=True)
        tables = [self._bucket(r) for r in distinct.tolist()]
        starts = np.stack([t.starts for t in tables]).astype(np.int64)
        return Hm2Rows([tables[i].order for i in inv.tolist()], inv, starts)

    def params_dict(self):
        return {"name": self.name, "ell": self.ell, "a": self.a}

    def __getstate__(self):
        # The F_r cache stays in this process; a copy refills it.
        state = dict(self.__dict__)
        state["_buckets"] = OrderedDict()
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


def commit_leaves(scheme: CommitScheme, r: int):
    """Yield (t, s0, s1) for every full transcript t of receiver seed r.

    s_b holds the seeds that send t on bit b, as ascending int64, split
    off the full state round by round through alpha_partition.
    """
    xs = np.arange(1 << scheme.ell, dtype=np.int64)

    def walk(prefix: Transcript, xs0: np.ndarray, xs1: np.ndarray):
        j = len(prefix) // 2 + 1
        law = scheme.alpha_partition(j, xs0, xs1, prefix)
        for i in range(len(law.counts)):
            with_alpha = prefix + (law.alpha(i),)
            t = with_alpha + (scheme.receiver_msg(j, r, with_alpha),)
            if j == scheme.rounds:
                yield (t, *law.split(i))
            else:
                yield from walk(t, *law.split(i))

    return walk((), xs, xs)


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


def hiding_distance(scheme: CommitScheme) -> float:
    """Exact statistical distance between the transcript laws for b=0 and b=1.

    Every receiver seed's commit_leaves walk (2^ell walks), with the count
    differences of each transcript summed over seeds before taking magnitudes.
    """
    n = 1 << scheme.ell
    diffs: dict[Transcript, int] = {}
    for r in range(n):
        for t, s0, s1 in commit_leaves(scheme, r):
            diffs[t] = diffs.get(t, 0) + len(s0) - len(s1)
    return sum(abs(d) for d in diffs.values()) / (2 * n * n)


def sampled_hiding_distance(
    scheme: CommitScheme, num_transcripts: int, rng: np.random.Generator
) -> float:
    """hiding_distance averaged over num_transcripts sampled receiver seeds.

    The inner sum over (b, x) stays exact (one commit_leaves walk per seed).
    It matches the exact distance when the receiver messages pin down the
    seed (true for hm2); for other schemes it is an upper bound.
    """
    n = 1 << scheme.ell
    total = 0.0
    for _ in range(num_transcripts):
        leaves = commit_leaves(scheme, int(rng.integers(n)))
        total += sum(abs(len(s0) - len(s1)) for _, s0, s1 in leaves) / (2 * n)
    return total / num_transcripts
