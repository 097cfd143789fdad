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
import mmap
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .bits import check_ell, dot2, parity_u32, to_bytes

Transcript = tuple[bytes, ...]  # flat (alpha_1, beta_1, ..., alpha_L, beta_L)

# An hm2 scheme's slab of F_r tables is bounded to roughly this many bytes.
_CACHE_BYTES = 1 << 28
# Seeds hashed per decode in an F_r fill: bounds the digests held at once.
# A multiple of 256, so each block holds whole runs of one seed's high bytes.
_FILL_BLOCK = 1 << 10
# The one-byte strings, each a seed's last byte in an F_r fill.
_LAST_BYTES = [bytes([v]) for v in range(256)]
# Seeds per run of ClassRows.runs: the honest hash step and V2's counts hash
# a run at a time, in a kernel of about a dozen int64 arrays of that length.
_RUN_SEEDS = 1 << 12


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


def one_class_law(xs0: np.ndarray, xs1: np.ndarray, msg: bytes) -> CommitRoundLaw:
    """A round whose message is msg on every branch: the state survives whole."""
    size = len(xs0) + len(xs1)
    counts = np.array([size] if size else [], dtype=np.int64)
    keys = np.zeros(len(counts), dtype=np.int64)
    return CommitRoundLaw(keys, counts, lambda key: msg, lambda key: (xs0, xs1))


class ClassRows(NamedTuple):
    """Rows of sessions, each with its receiver seed's table: row i reads
    table slot[i], whose seed order is orders[slot[i]] and class starts
    starts[slot[i]], one slab row each.  Class k of a table is
    order[starts[k]:starts[k+1]], ascending, and X_{b,t} is class key ^ b
    for t's transcript_key.  An hm2 row is good until the next fill."""

    orders: np.ndarray
    starts: np.ndarray
    slot: np.ndarray

    def classes(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Class keys[i] of each row's table as its offset into the flat
        orders and its length; a negative key is the empty class."""
        at = np.maximum(keys, 0)
        lo = self.starts[self.slot, at].astype(np.int64)
        hi = np.where(keys < 0, lo, self.starts[self.slot, at + 1])
        return lo + self.slot * self.orders.shape[1], hi - lo

    def seeds(self, offsets: np.ndarray, lens: np.ndarray) -> np.ndarray:
        """The classes at offsets, of lengths lens, concatenated as int64 seeds."""
        ends = np.cumsum(lens)
        at = np.repeat(offsets - ends + lens, lens) + np.arange(ends[-1])
        return self.orders.reshape(-1)[at].astype(np.int64)

    def runs(self, offsets: np.ndarray, lens: np.ndarray, group: int = 1):
        """Yield (a, b, xs, seg) for runs of classes a..b-1, consecutive whole
        groups of group classes whose seeds sum to at most _RUN_SEEDS, or one
        group that exceeds it alone: xs is the run's seeds and seg each
        seed's class index."""
        sizes = lens.reshape(-1, group).sum(axis=1)
        ends = np.cumsum(sizes)
        a = 0
        while a < len(sizes):
            b = max(a + 1, int(np.searchsorted(ends, ends[a] - sizes[a] + _RUN_SEEDS, side="right")))
            lo, hi = group * a, group * b
            yield lo, hi, self.seeds(offsets[lo:hi], lens[lo:hi]), np.repeat(np.arange(lo, hi), lens[lo:hi])
            a = b


class CommitScheme:
    """Base class: the transcript encoding, honest commit law and brute-force replays."""

    name = "abstract"
    rounds = 1
    # The one round whose message depends on (b, x), 0 if none: every
    # other round sends one message on every branch.
    keyed_round = 0

    def __init__(self, ell: int):
        check_ell(ell)
        self.ell = ell
        self.capacity = 1 << ell  # receiver seeds whose tables are held at once

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

    # the transcript encoding ----------------------------------------------
    # transcript_key(t) is (r, key): X_{b,t} is class key ^ b of r's table
    # in rows, and key is -1 where no seed replays t; a t of the wrong
    # length raises ValueError.  transcript(r, key) gives t back for
    # key >= 0.  Every receiver seed reads the one _table, an (order,
    # starts) pair, unless a scheme overrides rows.

    def transcript_key(self, t: Transcript) -> tuple[int, int]:
        raise NotImplementedError

    def transcript(self, r: int, key: int) -> Transcript:
        raise NotImplementedError

    def rows(self, rs: np.ndarray) -> ClassRows:
        """The tables of receiver seeds rs: the one table as a one-row slab."""
        order, starts = self._table
        return ClassRows(order[None], starts[None], np.zeros(len(rs), dtype=np.intp))

    def _class(self, r: int, key: int) -> np.ndarray:
        """Class key of r's table as ascending int64 seeds, a slice of its slab row."""
        tables = self.rows(np.array([r]))
        order, starts = tables.orders[tables.slot[0]], tables.starts[tables.slot[0]]
        return order[starts[key] : starts[key + 1]].astype(np.int64)

    def _check_length(self, t: Transcript) -> None:
        if len(t) != 2 * self.rounds:
            raise ValueError(f"transcript must have {2 * self.rounds} messages")

    # derived operations -------------------------------------------------
    def open_verify(self, t: Transcript, b: int, x: int) -> bool:
        """Replay f_j(b, x, .) against the transcript's sender messages."""
        self._check_length(t)
        for j in range(1, self.rounds + 1):
            if self.sender_msg(j, b, x, t[: 2 * j - 2]) != t[2 * j - 2]:
                return False
        return True

    def consistent_seeds(self, t: Transcript, b: int) -> np.ndarray:
        """X_{b,t}: the seeds replaying every alpha_j, as ascending int64."""
        r, key = self.transcript_key(t)
        return self._class(r, key ^ b) if key >= 0 else np.empty(0, dtype=np.int64)

    def consistent_mask(self, t: Transcript, b: int) -> np.ndarray:
        """X_{b,t} as a boolean mask over {0,1}^ell."""
        mask = np.zeros(1 << self.ell, dtype=bool)
        mask[CommitScheme.consistent_seeds(self, t, b)] = True
        return mask

    # the honest commit law ------------------------------------------------
    def alpha_partition(self, j: int, xs0: np.ndarray, xs1: np.ndarray, prefix: Transcript):
        """The exact law of the round-j message over the state (xs0, xs1).

        The keyed round is read off the full state's table: message key K
        is seen on branch 0's class K and on branch 1's class K^1, so both
        keys of a pair (2m, 2m+1) count the pair's seeds, starts[2m+2] -
        starts[2m], and the splits are slices.  Any other state there
        raises ValueError.
        """
        self._check_round(j, prefix, 2 * j - 2)
        if j != self.keyed_round:
            return one_class_law(xs0, xs1, self.sender_msg(j, 0, 0, prefix))
        if len(xs0) != 1 << self.ell or len(xs1) != 1 << self.ell:
            raise ValueError(f"{self.name} round {j} has a law on the full state only")
        # The prefix, padded with empty messages, names its receiver seed.
        r, _ = self.transcript_key(prefix + (b"",) * (2 * self.rounds - len(prefix)))
        tables = self.rows(np.array([r]))
        both = np.repeat(np.diff(tables.starts[tables.slot[0], ::2].astype(np.int64)), 2)
        alive = np.flatnonzero(both)
        return CommitRoundLaw(
            alive, both[alive], lambda key: self.transcript(r, key)[2 * j - 2],
            # Looked up at the split: a fill since then may have reused r's slab row.
            lambda key: tuple(self._class(r, key ^ b) for b in (0, 1)),
        )

    def commit_keys(self, rows: ClassRows, streams) -> np.ndarray:
        """Each row's honest commit key, drawn on its SessionStreams row as
        HonestSession draws: one integers(2^(ell+1)) a round, every state
        full.  In the keyed round draw u picks K over alpha_partition's
        counts: the cumulative count through key 2m+1 is 2 starts[2m+2] and
        through key 2m it is starts[2m] + starts[2m+2].  Each distinct table's
        pair ends, offset by its index times 2^ell + 1, make one ascending array."""
        keys = np.zeros(len(rows.slot), dtype=np.int64)
        for j in range(1, self.rounds + 1):
            us = streams.integers(2 << self.ell)
            if j == self.keyed_round:
                tables, inv = np.unique(rows.slot, return_inverse=True)
                starts = rows.starts[tables].astype(np.int64)
                width = starts[0, -1] + 1
                ends = starts[:, 2::2] + width * np.arange(len(tables))[:, None]
                m = ends.ravel().searchsorted(width * inv + (us >> 1), side="right")
                m -= ends.shape[1] * inv
                keys = 2 * m + (starts[inv, 2 * m] + starts[inv, 2 * m + 2] <= us)
        return keys

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

    def transcript_key(self, t):
        self._check_length(t)
        return 0, (0 if t == (b"", b"") else -1)

    def transcript(self, r, key):
        return b"", b""

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        # Classes 0 and 1 both hold every seed.
        n = 1 << self.ell
        xs = np.arange(n, dtype=np.min_scalar_type(n - 1))
        return np.concatenate((xs, xs)), np.array([0, n, 2 * n], dtype=np.min_scalar_type(2 * n))

    def consistent_seeds(self, t, b):
        # Through the mask: perfbench's smoke run requires consistent_mask
        # calls on bind-const-l5.
        return np.flatnonzero(self.consistent_mask(t, b)).astype(np.int64, copy=False)


class IdentScheme(CommitScheme):
    """One round; alpha_1 = b || x reveals the entire commitment."""

    name = "ident"
    rounds = 1
    keyed_round = 1

    def sender_msg(self, j, b, x, prefix):
        self._check_round(j, prefix, 0)
        return bytes([b]) + to_bytes(x, self.ell)

    def receiver_msg(self, j, r, prefix):
        self._check_round(j, prefix, 1)
        return b""

    def transcript_key(self, t):
        """(0, 2x + b) for t = (b || x, ""), else (0, -1)."""
        self._check_length(t)
        if t[1] != b"" or len(t[0]) != 1 + (self.ell + 7) // 8 or t[0][0] > 1:
            return 0, -1
        key = int.from_bytes(t[0][1:], "big") << 1 | t[0][0]
        return 0, (key if key < 2 << self.ell else -1)

    def transcript(self, r, key):
        return self.sender_msg(1, key & 1, key >> 1, ()), b""

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        # Class 2x is {x} and class 2x + 1 is empty.
        n = 1 << self.ell
        starts = ((np.arange(2 * n + 1) + 1) >> 1).astype(np.min_scalar_type(n))
        return np.arange(n, dtype=np.min_scalar_type(n - 1)), starts


class Hm2Scheme(CommitScheme):
    """Two rounds, statistically hiding for ell - a >> 1.

    Round 1: alpha_1 = "" and beta_1 = r (the receiver seed doubles as
    the compressing-function key and the extractor mask; the seed-length
    equality leaves no spare bits for separate fields).
    Round 2: alpha_2 = F_r(x) || (e_r(x) xor b), beta_2 = "".
    """

    name = "hm2"
    rounds = 2
    keyed_round = 2

    def __init__(self, ell: int, a: int = 8):
        super().__init__(ell)
        if not 1 <= a < ell:
            raise ValueError(f"need 1 <= a < ell, got a={a}, ell={ell}")
        self.a = a
        self.out_bits = ell - a
        self._seed_bytes = (ell + 7) // 8
        n = 1 << ell
        self._n_keys = 2 << self.out_bits
        # Narrowest dtypes for keys (a fill temporary), seeds and class
        # offsets; keys of 16 bits or fewer make the stable argsort a radix sort.
        self._dtypes = tuple(np.min_scalar_type(v) for v in (self._n_keys - 1, n - 1, n))
        entry = n * self._dtypes[1].itemsize + (self._n_keys + 1) * self._dtypes[2].itemsize
        self._max_cached = max(4, _CACHE_BYTES // entry)
        # The slab: capacity rows of seed orders, then as many of class starts,
        # in one zeroed anonymous mapping, so that the kernel backs only rows a
        # fill writes.  slot[r] is r's row or -1, tick a row's last use (LRU).
        self.capacity = cap = min(n, self._max_cached)
        slab = mmap.mmap(-1, cap * entry, flags=mmap.MAP_PRIVATE)
        self._orders = np.frombuffer(slab, self._dtypes[1], cap * n).reshape(cap, n)
        self._starts = np.frombuffer(slab, self._dtypes[2], offset=self._orders.nbytes).reshape(cap, -1)
        self._slot = np.full(n, -1, dtype=np.int32)
        self._tick = np.zeros(cap, dtype=np.int64)
        self._clock = 0

    # the compressing function and the extractor -------------------------
    def compress(self, r: int, x: int) -> int:
        """F_r(x): leading ell-a bits of SHA-256(tag || r || x)."""
        digest = hashlib.sha256(
            b"hm2" + to_bytes(r, self.ell) + to_bytes(x, self.ell)
        ).digest()
        return int.from_bytes(digest[:4], "big") >> (32 - self.out_bits)

    def extract(self, r: int, x: int) -> int:
        """e_r(x): GF(2) inner product of the seed mask with x."""
        return dot2(r, x)

    def rows(self, rs: np.ndarray) -> ClassRows:
        """The tables of receiver seeds rs, filling those missing from the slab."""
        self._clock += 1
        slots = self._slot[rs]
        self._tick[slots[slots >= 0]] = self._clock
        for r in sorted(set(rs[slots < 0].tolist())):  # np.unique's hash path costs 1.4 MB RSS
            self._fill(r)
        return ClassRows(self._orders, self._starts, self._slot[rs].astype(np.intp))

    def _fill(self, r: int) -> None:
        """Write r's table into the least recently used slab row: every seed
        indexed by message key, where seed x's round-2 message on branch 0
        has key k(x) = F_r(x)<<1 | e_r(x) and branch 1 flips the low bit."""
        s = int(self._tick.argmin())
        if self._tick[s] == self._clock:
            raise RuntimeError(f"one lookup names more than {self.capacity} receiver seeds")
        self._slot[self._slot == s] = -1
        n = 1 << self.ell
        prefix = hashlib.sha256(b"hm2" + to_bytes(r, self.ell))
        # Seeds x..x+255 with x a multiple of 256 share every byte but the
        # last: hash the shared bytes once per run, then each last byte.
        run, high = min(n, 256), self._seed_bytes - 1
        keys = np.empty(n, dtype=self._dtypes[0])
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
        self._starts[s, 1:] = np.bincount(keys, minlength=self._n_keys).cumsum()
        self._orders[s] = np.argsort(keys, kind="stable")
        self._slot[r], self._tick[s] = s, self._clock

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

    # the transcript encoding ----------------------------------------------
    def transcript_key(self, t):
        """(r, alpha_2's key) for t = ("", r, alpha_2, ""); a malformed
        beta_1 raises ValueError."""
        self._check_length(t)
        if t[0] != b"" or t[3] != b"":
            return 0, -1
        r = self._seed_from_beta1(t[1])
        if len(t[2]) != 1 + (self.out_bits + 7) // 8 or t[2][-1] > 1:
            return r, -1
        key = int.from_bytes(t[2][:-1], "big") << 1 | t[2][-1]
        return r, (key if key < self._n_keys else -1)

    def transcript(self, r, key):
        return (b"", to_bytes(r, self.ell), self._decode_key(key), b"")

    def params_dict(self):
        return {"name": self.name, "ell": self.ell, "a": self.a}

    def __reduce__(self):
        # A copy is built anew: it reserves its own empty slab and refills it.
        return type(self), (self.ell, self.a)


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


def transcript_distributions(scheme: CommitScheme) -> dict[Transcript, tuple[int, ...]]:
    """Exact transcript counts over all (b, x, r), with the sizes of the seed
    sets that send each t: {t: (n_0, n_1, |R_t|, |X_{0,t}|, |X_{1,t}|)}.

    Pr[t | b] = n_b / 2^(2 ell).  (r, x) sends t on bit b exactly when r
    replays t's receiver messages and x its sender messages, so R_t and
    X_{b,t} are the replayed sets.  Full enumeration; keep ell small.
    """
    n = 1 << scheme.ell
    seen: dict[Transcript, tuple[list[int], set[int], tuple[set[int], set[int]]]] = {}
    for b in (0, 1):
        for r in range(n):
            for x in range(n):
                t = run_classical_commit(scheme, b, x, r)
                if t not in seen:
                    seen[t] = ([0, 0], set(), (set(), set()))
                counts, rs, xs = seen[t]
                counts[b] += 1
                rs.add(r)
                xs[b].add(x)
    return {t: (*c, len(rs), *map(len, xs)) for t, (c, rs, xs) in seen.items()}


def hiding_distance(scheme: CommitScheme, rs=None) -> float:
    """Statistical distance between the transcript laws for b=0 and b=1,
    averaged over receiver seeds rs (every seed when None, which is exact;
    repeats count).

    Every receiver seed that sends t sees the same X_{b,t} (the rectangle
    identity), so t's count differences add with one sign across seeds:
    the distance is the mean over r of sum_m ||class 2m| - |class 2m+1||
    / 2^ell on r's table, and a sample of seeds estimates it without bias.
    """
    rs = np.arange(1 << scheme.ell) if rs is None else np.asarray(rs, dtype=np.int64)
    if not len(rs):
        raise ValueError("hiding_distance needs at least one receiver seed")
    if rs.min() < 0 or rs.max() >= 1 << scheme.ell:
        raise ValueError(f"receiver seeds must lie in [0, 2^{scheme.ell})")
    total = 0
    for lo in range(0, len(rs), scheme.capacity):
        tables = scheme.rows(rs[lo : lo + scheme.capacity])
        for slot, count in zip(*np.unique(tables.slot, return_counts=True)):
            starts = tables.starts[slot].astype(np.int64)
            total += int(count) * int(np.abs(2 * starts[1::2] - starts[:-1:2] - starts[2::2]).sum())
    return total / ((1 << scheme.ell) * len(rs))
