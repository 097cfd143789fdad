"""numpy's default_rng([seed, i]) streams for many sessions i, drawn together.

A session's stream is a pure function of (seed, i): SeedSequence hashes
the entropy words of [seed, i], or [*seed, i] for a tuple seed, into a
pool of four 32-bit words, draws four 64-bit words from it, and seeds
PCG64 with them.  SessionStreams holds that PCG64 state for every
session of a range as uint64 arrays and makes one draw for many
sessions in one pass of numpy operations, with numpy's own algorithms,
so each session sees exactly the values its own Generator would give:

* the 128-bit LCG step, multiplied in 32-bit limbs, with XSL-RR output;
* next32 from the bit generator's persistent buffer: one 64-bit output
  serves two next32 calls, low half first;
* integers(n) as Generator.integers(n) with int64 output: no draw for
  n = 1, Lemire's method on next32 up to 2^32 (at 2^32 a plain next32,
  as numpy draws it) and 128-bit Lemire on next64 above; one bound for
  all rows drawn runs only its regime;
* random() as (next64 >> 11) * 2^-53.

Keyed rows seed one row per SHA-256 digest d as default_rng(int.from_bytes(d,
"big")) does, which is bits.rng_from_key's generator for the key hashed to
d; its entropy is the int's little-endian words, seven or fewer when the
top ones are zero.  Session rows and keyed rows take one seeding path,
extra words masked per row: each row is a column of one matrix of entropy
words, zeros above its own word count, and SeedSequence's mix runs as
(4, rows) matrix operations, so one seeding of a batch of keys costs
about as much as ten default_rng calls, whatever the batch size.

The first SessionStreams of a process checks a short probe against
default_rng and raises RuntimeError on any difference, so a numpy whose
Generator algorithms changed cannot make the block engine diverge from
run_session silently.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_U32 = np.uint32
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_S11, _S16, _S32, _S58, _S63 = _U64(11), _U32(16), _U64(32), _U64(58), _U64(63)
# SeedSequence: a pool of four words and its hash constants.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
# PCG64's 128-bit multiplier: high word, low word and the low word's 32-bit limbs.
_MUL = 0x2360ED051FC65DA44385DF649FCCF645
_MUL_HI, _MUL_LO = _U64(_MUL >> 64), _U64(_MUL & (2**64 - 1))
_MUL_L0, _MUL_L1 = _U64(_MUL & 0xFFFFFFFF), _U64((_MUL >> 32) & 0xFFFFFFFF)
_TWO_M53 = 1.0 / 9007199254740992.0
# integers(n)'s regimes, 0 to 2, are the number of these edges at or below n.
_EDGES = np.array([2, (1 << 32) + 1], dtype=_U64)


def _at(value, idx):
    """value[idx] for one value per row; a single value is every row's."""
    return value[idx] if np.ndim(value) else value


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads off a non-negative int."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return words


@cache
def _step_columns(init: int, mult: int, count: int) -> np.ndarray:
    """SeedSequence's first count hash steps from init as a (2, count, 1)
    array of xor and multiplier columns, built on first use for each count:
    each step XORs the current constant in, advances it and multiplies by
    the new one."""
    steps = []
    for _ in range(count):
        nxt = init * mult & 0xFFFFFFFF
        steps.append((init, nxt))
        init = nxt
    columns = np.array(steps, dtype=_U32).T[..., None]
    columns.setflags(write=False)
    return columns


def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul
    return value ^ (value >> _S16)


def _mix(x, y):
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> _S16)


def _pool(words: np.ndarray, widths) -> np.ndarray:
    """SeedSequence's mix_entropy on columns of entropy words, as a
    (4, rows) array: column r holds row r's widths[r] words, zeros above.

    SeedSequence hashes a missing pool word as 0, so the first four words
    need no mask; a word past the fourth is mixed only into the rows whose
    entropy reaches it.  Hash steps that read no pool word written since
    run as one operation: the four initial steps, the three of each pool
    source and the four of every extra word; only the mixes into the pool
    run in order.
    """
    xor, mul = _step_columns(_INIT_A, _MULT_A, _POOL * max(_POOL, len(words)))
    first = np.zeros((_POOL, words.shape[1]), dtype=_U32)
    first[: len(words)] = words[:_POOL]
    pool = _hashmix(first, xor[:_POOL], mul[:_POOL])
    at = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor[at : at + 3], mul[at : at + 3]))
        at += 3
    # Each extra word is hashed for every pool word in turn: (extra words, 4, rows).
    extra = _hashmix(words[_POOL:, None], *(c[at:].reshape(-1, _POOL, 1) for c in (xor, mul)))
    for word, hashed in enumerate(extra, _POOL):
        pool = np.where(word < widths, _mix(pool, hashed), pool)
    return pool


def _pcg_seeds(pool: np.ndarray) -> np.ndarray:
    """generate_state(4, uint64): eight 32-bit words, paired little-endian,
    as (seed high, seed low, increment high, increment low) rows."""
    xor, mul = _step_columns(_INIT_B, _MULT_B, 8)
    words = _hashmix(pool[np.arange(8) % _POOL], xor, mul).astype(_U64)
    return words[0::2] | (words[1::2] << _S32)


def _mulhi(x, y0, y1):
    """The high 64 bits of x * y for uint64 x and y = y1 2^32 + y0 (y0, y1 < 2^32)."""
    x0, x1 = x & _LOW32, x >> _S32
    lo_lo, lo_hi, hi_lo = x0 * y0, x0 * y1, x1 * y0
    mid = (lo_lo >> _S32) + (lo_hi & _LOW32) + (hi_lo & _LOW32)
    return x1 * y1 + (lo_hi >> _S32) + (hi_lo >> _S32) + (mid >> _S32)


def _step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * MUL + inc mod 2^128, on (high, low) words."""
    new_hi = hi * _MUL_LO + lo * _MUL_HI + _mulhi(lo, _MUL_L0, _MUL_L1)
    new_lo = lo * _MUL_LO + inc_lo
    return new_hi + inc_hi + (new_lo < inc_lo), new_lo


def _session_words(seed: int | tuple[int, ...], lo: int, hi: int):
    """The entropy [*prefix, i] of every session lo <= i < hi as (words, widths):
    the prefix's words, then i's low word and its high word, nonzero only
    where i has two words."""
    if not (0 <= lo < 1 << 64 and lo <= hi <= 1 << 64):
        raise ValueError(f"sessions [{lo}, {hi}) are not a range of uint64s")
    prefix = [w for part in (seed if isinstance(seed, tuple) else (seed,)) for w in _words(part)]
    i = _U64(lo) + np.arange(hi - lo, dtype=_U64)
    words = np.empty((len(prefix) + 2, hi - lo), dtype=_U32)
    words[:-2] = np.array(prefix, dtype=_U32)[:, None]
    words[-2], words[-1] = i & _LOW32, i >> _S32
    return words, len(prefix) + 1 + (words[-1] != 0)


def _digest_words(digests: list[bytes]):
    """The entropy of int.from_bytes(d, "big") for every 32-byte digest d as
    (words, widths): its eight words lowest first, of which SeedSequence reads
    those up to the highest nonzero one (one word for zero)."""
    big_endian = np.frombuffer(b"".join(digests), dtype=">u4").reshape(len(digests), 8)
    words = big_endian[:, ::-1].T.astype(_U32)
    return words, np.maximum(((words != 0) * np.arange(1, 9)[:, None]).max(axis=0), 1)


class SessionStreams:
    """The Generators default_rng([seed, i]) for lo <= i < hi, drawn row-wise;
    a tuple seed is an entropy prefix, default_rng([*seed, i]).  Keyed rows,
    from_digests, are default_rng(int.from_bytes(digest, "big")) instead.

    Row r is session lo + r.  Each draw method takes rows, an int array
    of distinct rows (all rows when None), and advances only those
    streams; n may be one bound or one bound per row.
    """

    def __init__(self, seed: int | tuple[int, ...], lo: int, hi: int):
        _check_numpy()
        self._seed(*_session_words(seed, lo, hi))

    @classmethod
    def from_digests(cls, digests: list[bytes]) -> "SessionStreams":
        """Keyed rows: row w is default_rng(int.from_bytes(digests[w], "big"))
        for 32-byte digests, all rows seeded together."""
        _check_numpy()
        streams = cls.__new__(cls)
        streams._seed(*_digest_words(digests))
        return streams

    def _seed(self, words: np.ndarray, widths) -> None:
        """Seed row r as default_rng seeds from column r of the (W, rows)
        entropy words, of which it reads widths[r]."""
        seed_hi, seed_lo, inc_hi, inc_lo = _pcg_seeds(_pool(words, widths))
        # pcg64_srandom_r: inc = 2 initseq + 1; one step from 0, which lands
        # on inc; add the seed; step.
        inc_hi, inc_lo = (inc_hi << _U64(1)) | (inc_lo >> _S63), (inc_lo << _U64(1)) | _U64(1)
        s_lo = inc_lo + seed_lo
        s_hi = inc_hi + seed_hi + (s_lo < seed_lo)
        self._hi, self._lo = _step(s_hi, s_lo, inc_hi, inc_lo)
        self._inc_hi, self._inc_lo = inc_hi, inc_lo
        # The buffered upper half of a 64-bit output, or -1 when empty.
        self._buf = np.full(words.shape[1], -1, dtype=np.int64)
        self._all = np.arange(words.shape[1])

    def _rows(self, rows) -> np.ndarray:
        return self._all if rows is None else np.asarray(rows, dtype=np.intp)

    def _next64(self, rows: np.ndarray) -> np.ndarray:
        hi, lo = _step(self._hi[rows], self._lo[rows], self._inc_hi[rows], self._inc_lo[rows])
        self._hi[rows], self._lo[rows] = hi, lo
        # XSL-RR: the two words XORed, rotated right by the top six state bits.
        x, rot = hi ^ lo, hi >> _S58
        return (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))

    def _next32(self, rows: np.ndarray) -> np.ndarray:
        buf = self._buf[rows]
        fresh = buf < 0
        out = buf.astype(_U64)
        if fresh.any():
            value = self._next64(rows[fresh])
            out[fresh] = value & _LOW32
            buf[fresh] = (value >> _S32).astype(np.int64)
        buf[~fresh] = -1
        self._buf[rows] = buf
        return out

    def integers(self, n, rows=None) -> np.ndarray:
        """Generator.integers(n) for each row, 1 <= n <= 2^63, as int64."""
        rows = self._rows(rows)
        n = np.asarray(n, dtype=_U64)
        if n.size and n.min() == 0:
            raise ValueError("high <= 0")
        regimes = _EDGES.searchsorted(n, side="right")
        if not n.ndim:
            return self._draw(regimes, rows, n[()]).view(np.int64)
        out = np.zeros(rows.shape, dtype=_U64)
        for regime in range(1, len(_EDGES) + 1):
            idx = np.flatnonzero(regimes == regime)
            if len(idx):
                out[idx] = self._draw(regime, rows[idx], n[idx])
        return out.view(np.int64)

    def _draw(self, regime, rows, n) -> np.ndarray:
        """integers(n) on rows in one regime, n one bound or one per row."""
        if regime == 0:
            return np.zeros(len(rows), dtype=_U64)
        return (self._lemire32 if regime == 1 else self._lemire64)(rows, n)

    def _lemire32(self, rows, n) -> np.ndarray:
        """Lemire's bounded draw on next32, n <= 2^32: m >> 32 of m = next32 * n,
        drawn again while m's low word is below 2^32 mod n."""
        threshold = (_U64(1 << 32) - n) % n
        out = np.empty(len(rows), dtype=_U64)
        pending = np.arange(len(rows))
        while len(pending):
            m = self._next32(rows[pending]) * _at(n, pending)
            out[pending] = m >> _S32
            pending = pending[(m & _LOW32) < _at(threshold, pending)]
        return out

    def _lemire64(self, rows, n) -> np.ndarray:
        """Lemire's bounded draw on next64, the 128-bit product in 32-bit limbs."""
        threshold = (~n + _U64(1)) % n  # 2^64 mod n
        n0, n1 = n & _LOW32, n >> _S32
        out = np.empty(len(rows), dtype=_U64)
        pending = np.arange(len(rows))
        while len(pending):
            x = self._next64(rows[pending])
            out[pending] = _mulhi(x, _at(n0, pending), _at(n1, pending))
            pending = pending[x * _at(n, pending) < _at(threshold, pending)]
        return out

    def random(self, rows=None) -> np.ndarray:
        """Generator.random() for each row."""
        return (self._next64(self._rows(rows)) >> _S11).astype(np.float64) * _TWO_M53


# A fixed draw program whose outputs the streams must reproduce for
# sessions 0..2 of a two-word seed and for a keyed row of seven entropy
# words (a digest whose top word is zero): every integers path and
# random(), with the next32 buffer left full and empty in turn.
_PROBE_SEED = (7 << 40) | 12345
_PROBE_DIGEST = bytes(4) + bytes(range(7, 35))
_PROBE = (
    ("integers", 3), ("integers", 1 << 32), ("integers", 3 * 2**30 + 5), ("random",),
    ("integers", (1 << 61) - 1), ("integers", 5), ("integers", 2**63), ("integers", 1),
    ("integers", 2**32 + 1), ("integers", 1 << 32), ("integers", 2**32 - 1),
)


@cache
def _check_numpy() -> None:
    """Raise RuntimeError unless SessionStreams reproduces default_rng here."""
    streams, keyed = SessionStreams.__new__(SessionStreams), SessionStreams.__new__(SessionStreams)
    streams._seed(*_session_words(_PROBE_SEED, 0, 3))
    keyed._seed(*_digest_words([_PROBE_DIGEST]))
    rows = [(streams, i, np.random.default_rng([_PROBE_SEED, i])) for i in range(3)]
    rows.append((keyed, 0, np.random.default_rng(int.from_bytes(_PROBE_DIGEST, "big"))))
    for mine, row, rng in rows:
        for name, *args in _PROBE:
            want, got = getattr(rng, name)(*args), getattr(mine, name)(*args, [row])[0]
            if got != want:
                raise RuntimeError(
                    f"ivpoq.streams does not reproduce numpy {np.__version__}'s "
                    f"default_rng: {name}{tuple(args)} gave {got!r}, numpy {want!r}"
                )
