"""The efficient first-phase verifier V1 and the inefficient decider V2.

V1 drives one protocol session: coherent commit (playing the receiver),
hash-pair challenge, and the two-challenge measurement phase.  The
first two are run_preamble and the last is run_challenge; sessions,
binding attacks and conditional estimates all run the first phase
through them, so each prover reply is validated in one place.  V2 is a
pure function of the resulting record: V1 appends three fair coin bits
to the transcript, so the 7/8-acceptance branch of V2 is derandomized
and every run replays to the same verdict.

run_block is the lockstep engine for honest sessions: a block of them
advances step by step, each on its own stream with run_session's draws
(SessionStreams makes each draw for the whole block at once), while the
hashing, the y law and the Hadamard transforms run once for the block,
and it returns the block as a SessionBlock of columns.  decide_block is
V2 over a block, in array operations on its columns, and tally counts the
verdicts of any stream of records, each block_size of them made one
block.  SessionRecords are built only at the edges: SessionBlock.records
(the CLI's run and the tests) and SessionBlock.from_records (tally).

V2's hard steps (counting consistent preimages and finding witnesses)
go through count_consistent_preimages, a brute-force stand-in for the
three NP-oracle queries an efficient-but-oracle-aided decider would
make: existence, witness search, and a second-element check.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import stats
from .bits import dot2, from_hex, parity_u32, to_hex
from .coherent_prover import (
    _BLOCK_BYTES, HonestProver, HonestSession, SupportState, eta0_probs, hadamard_draws
)
from .commitment import ClassRows, CommitScheme, Transcript
from .hashing import HashColumns, HashFn, eval_segments, hash_columns, sample_hash, sample_hash_pairs
from .streams import SessionStreams

GRID_UNIFORM = "uniform"
GRID_ORACLE = "oracle"

REASON_PASS = "unique-claw-pass"
REASON_FAIL = "unique-claw-fail"
REASON_COIN = "non-unique-coin"


class ProtocolViolation(RuntimeError):
    """A prover message failed validation (wrong size, range, or type)."""


def compute_m(ell: int, epsilon: float) -> int:
    """Minimal m with (1+epsilon)^m >= 2^(ell+1)."""
    return len(grid_sizes(ell, epsilon))


@lru_cache(maxsize=256)
def grid_sizes(ell: int, epsilon: float) -> tuple[int, ...]:
    """k_j = ceil((1+epsilon)^j) for j = 0..m-1, powers taken at 80 digits."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    ks = []
    with localcontext() as ctx:
        ctx.prec = 80
        base = Decimal(1) + Decimal(epsilon)
        target = Decimal(1 << (ell + 1))
        val = Decimal(1)
        while val < target:
            ks.append(int(val.to_integral_value(rounding="ROUND_CEILING")))
            val *= base
    return tuple(ks)


@lru_cache(maxsize=256)
def _grid_bounds(ell: int, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """The grid sizes k_j and floor((1+epsilon) k_j), in exact rationals, as arrays."""
    ks = grid_sizes(ell, epsilon)
    return np.array(ks), np.array([math.floor((1 + Fraction(epsilon)) * k) for k in ks])


def _grid_ends(ell: int, epsilon: float, sizes0):
    """For each size0 (an int or an array of them), the first and the stop
    of the grid indices j with k_j <= 2*size0 <= (1+epsilon) k_j.

    Both k_j and floor((1+epsilon) k_j) are nondecreasing in j, so the
    indices form one contiguous run, found with two bisections.  It is
    nonempty whenever 1 <= size0 <= 2^ell.
    """
    ks, caps = _grid_bounds(ell, epsilon)
    targets = 2 * np.asarray(sizes0, dtype=np.int64)
    return np.searchsorted(caps, targets, side="left"), np.searchsorted(ks, targets, side="right")


def grid_brackets(ell: int, epsilon: float, size0: int) -> range:
    """The grid indices j with k_j <= 2*size0 <= (1+epsilon) k_j, ascending."""
    first, stop = _grid_ends(ell, epsilon, size0)
    return range(int(first), int(stop))


@dataclass
class ProtocolParams:
    """Everything V1 needs to run sessions against a scheme."""

    scheme: CommitScheme
    epsilon: float = 0.01
    grid_mode: str = GRID_UNIFORM
    m: int = field(init=False)
    ks: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.grid_mode not in (GRID_UNIFORM, GRID_ORACLE):
            raise ValueError(f"unknown grid mode {self.grid_mode!r}")
        self.m = compute_m(self.scheme.ell, self.epsilon)
        self.ks = grid_sizes(self.scheme.ell, self.epsilon)

    @property
    def ell(self) -> int:
        return self.scheme.ell

    def best_grid_index(self, size0: int) -> int | None:
        """Smallest j whose k = ceil((1+eps)^j) brackets 2*size0, or None."""
        brackets = grid_brackets(self.ell, self.epsilon, size0)
        return brackets[0] if brackets else None


@dataclass
class SessionRecord:
    """The first-phase transcript plus V1's appended decision coin."""

    scheme: str
    ell: int
    t: Transcript
    j: int
    k: int
    h0: HashFn
    h1: HashFn
    y: int
    v1: int
    xi: int
    bprime: int | None = None
    xprime: int | None = None
    d: int | None = None
    v2: int | None = None
    eta: int | None = None
    v2coin: int = 0
    verdict: bool | None = None
    verdict_reason: str | None = None

    def to_json_dict(self) -> dict:
        branch = (
            {"bprime": self.bprime, "xprime": to_hex(self.xprime, self.ell)}
            if self.v1 == 0
            else {"d": to_hex(self.d, self.ell), "v2": self.v2, "eta": self.eta}
        )
        return {
            "scheme": self.scheme,
            "ell": self.ell,
            "t": [m.hex() for m in self.t],
            "j": self.j,
            "k": self.k,
            "h0": self.h0.to_json_dict(),
            "h1": self.h1.to_json_dict(),
            "y": self.y,
            "v1": self.v1,
            "xi": to_hex(self.xi, self.ell),
            "branch": branch,
            "v2coin": self.v2coin,
            "verdict": self.verdict,
            "verdict_reason": self.verdict_reason,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SessionRecord":
        branch = d["branch"]
        rec = cls(
            scheme=d["scheme"],
            ell=d["ell"],
            t=tuple(bytes.fromhex(m) for m in d["t"]),
            j=d["j"],
            k=d["k"],
            h0=HashFn.from_json_dict(d["h0"]),
            h1=HashFn.from_json_dict(d["h1"]),
            y=d["y"],
            v1=d["v1"],
            xi=from_hex(d["xi"]),
            v2coin=d["v2coin"],
            verdict=d["verdict"],
            verdict_reason=d["verdict_reason"],
        )
        if rec.v1 == 0:
            rec.bprime = branch["bprime"]
            rec.xprime = from_hex(branch["xprime"])
        else:
            rec.d = from_hex(branch["d"])
            rec.v2 = branch["v2"]
            rec.eta = branch["eta"]
        return rec


# SessionRecord's int fields, which a SessionBlock holds as columns.
_COLUMNS = ("j", "y", "v1", "xi", "bprime", "xprime", "d", "v2", "eta", "v2coin")


class SessionBlock(NamedTuple):
    """Sessions as columns: row i is one session's record without its verdict.

    cols holds the _COLUMNS fields as int64 columns, 0 where a row's
    branch has no such field, and transcript i as cols["r"][i] and
    cols["key"][i], its scheme's transcript_key (key -1 where no seed
    replays it).  Member 2i + b of hashes is row i's h_b.
    """

    scheme: CommitScheme
    hashes: HashColumns
    cols: dict

    @classmethod
    def from_records(cls, scheme: CommitScheme, records: list[SessionRecord]) -> "SessionBlock":
        """The block of records; each transcript is parsed once, raising
        ValueError where consistent_seeds would."""
        cols = {name: np.array([getattr(rec, name) or 0 for rec in records], dtype=np.int64)
                for name in _COLUMNS}
        parsed = np.array([scheme.transcript_key(rec.t) for rec in records], dtype=np.int64)
        cols["r"], cols["key"] = parsed.reshape(-1, 2).T
        return cls(scheme, hash_columns([h for rec in records for h in (rec.h0, rec.h1)]), cols)

    def records(self) -> list[SessionRecord]:
        """Each row as the SessionRecord that run_session makes for it; a row
        whose transcript no seed replays (key -1) raises ValueError."""
        scheme, ell, out = self.scheme, self.scheme.ell, []
        for i, vals in enumerate(zip(*(col.tolist() for col in self.cols.values()))):
            row = dict(zip(self.cols, vals))
            r, key = row.pop("r"), row.pop("key")
            if key < 0:
                raise ValueError(f"row {i}: the block keeps no transcript that no seed replays")
            t = scheme.transcript(r, key)
            for name in ("d", "v2", "eta") if row["v1"] == 0 else ("bprime", "xprime"):
                row[name] = None
            h0, h1 = self.hashes.member(ell, 2 * i), self.hashes.member(ell, 2 * i + 1)
            out.append(SessionRecord(scheme.name, ell, t, k=h0.k, h0=h0, h1=h1, **row))
        return out


def check_reply(value, bound: int, what: str) -> int:
    """A prover's integer reply in [0, bound); anything else is a violation."""
    if not isinstance(value, (int, np.integer)) or not 0 <= int(value) < bound:
        raise ProtocolViolation(f"{what} out of range")
    return int(value)


def check_v0_reply(reply, ell: int) -> tuple[int, int]:
    """Validate a preimage-test reply (b', x') and return it as ints."""
    try:
        bprime, xprime = reply
    except (TypeError, ValueError):
        raise ProtocolViolation("malformed measurement response") from None
    return check_reply(bprime, 2, "b'"), check_reply(xprime, 1 << ell, "x'")


def run_commit(scheme: CommitScheme, session, r: int) -> Transcript:
    """The commit rounds: the session's alpha_j, the receiver's beta_j = g_j(r, .)."""
    msgs: list[bytes] = []
    for j in range(1, scheme.rounds + 1):
        alpha = session.commit_message(j, tuple(msgs))
        if not isinstance(alpha, bytes):
            raise ProtocolViolation("sender message must be bytes")
        msgs.append(alpha)
        msgs.append(scheme.receiver_msg(j, r, tuple(msgs)))
    return tuple(msgs)


def run_coherent_commit(
    scheme: CommitScheme, receiver_randomness: int, rng: np.random.Generator
) -> tuple[Transcript, SupportState]:
    """Coherent commit phase: each alpha_j is measured, never chosen.

    At round j the observed message has Pr[alpha] proportional to the
    number of (b, x) branches consistent with it; the support sets are
    filtered to the matching seeds and the receiver replies g_j(r, ...).
    """
    session = HonestSession(scheme, rng)
    return run_commit(scheme, session, receiver_randomness), session.state


def run_preamble(params: ProtocolParams, session, rng: np.random.Generator) -> tuple[tuple, int]:
    """Commit rounds, grid choice and hash pair; returns ((t, h0, h1, y), j).

    Draw order: receiver seed, (grid index when uniform or unbracketed),
    h0, h1.
    """
    scheme = params.scheme
    r = int(rng.integers(1 << scheme.ell))
    t = run_commit(scheme, session, r)
    j_idx = None
    if params.grid_mode == GRID_ORACLE:
        j_idx = params.best_grid_index(int(scheme.consistent_mask(t, 0).sum()))
    if j_idx is None:
        j_idx = int(rng.integers(params.m))
    k = params.ks[j_idx]
    h0 = sample_hash(scheme.ell, k, rng)
    h1 = sample_hash(scheme.ell, k, rng)
    y = check_reply(session.hash_response(t, h0, h1), k, "y")
    return (t, h0, h1, y), j_idx


def run_challenge(
    params: ProtocolParams, session, prefix: tuple, j: int, rng: np.random.Generator
) -> SessionRecord:
    """The preimage or measurement test on a fixed prefix, plus the decision coin.

    Draw order: v1, xi, (v2 when v1=1), decision coin.
    """
    t, h0, h1, y = prefix
    ell = params.ell
    v1 = int(rng.integers(2))
    xi = int(rng.integers(1 << ell))
    record = SessionRecord(
        scheme=params.scheme.name, ell=ell, t=t, j=j, k=h0.k, h0=h0, h1=h1, y=y, v1=v1, xi=xi
    )
    if v1 == 0:
        record.bprime, record.xprime = check_v0_reply(session.v0_response(t, h0, h1, y, xi), ell)
    else:
        record.d = check_reply(session.d_response(t, h0, h1, y, xi), 1 << ell, "d")
        record.v2 = int(rng.integers(2))
        eta = session.eta_response(t, h0, h1, y, xi, record.d, record.v2)
        record.eta = check_reply(eta, 2, "eta")
    record.v2coin = int(rng.integers(8))
    return record


def run_session(
    params: ProtocolParams, prover, rng: np.random.Generator
) -> SessionRecord:
    """One full first phase.  Deterministic given the RNG stream.

    Draws as run_preamble then run_challenge.  Prover messages are
    validated; a malformed one raises ProtocolViolation.
    """
    session = prover.new_session(rng)
    prefix, j = run_preamble(params, session, rng)
    return run_challenge(params, session, prefix, j, rng)


def count_consistent_preimages(
    scheme: CommitScheme, t: Transcript, h: HashFn, y: int, b: int
) -> tuple[int, int | None]:
    """Classify |X_{b,t} n h^-1(y)| as 0, 1 or 2 ("many") with a witness.

    Filtering X_{b,t} by h stands in for the decider's three NP-oracle
    uses; the witness is the lexicographically least element.
    """
    xs = scheme.consistent_seeds(t, b)
    if len(xs) == 0:
        return 0, None
    hits = xs[h.eval_many(xs) == y]
    if len(hits) == 0:
        return 0, None
    return min(len(hits), 2), int(hits[0])


def v2_decide(params: ProtocolParams, record: SessionRecord) -> tuple[bool, str]:
    """The second-phase decision, a pure function of the record.

    Sessions without a unique claw accept on 7 of the 8 coin values.
    On unique-claw sessions the preimage test (v1=0) checks x' against
    the claw element selected by b', and the measurement test (v1=1)
    checks eta against the clause selected by xi.(x0 xor x1).
    """
    scheme = params.scheme
    c0, x0 = count_consistent_preimages(scheme, record.t, record.h0, record.y, 0)
    # Unless c0 is 1 the verdict is the coin, whatever the b=1 count.
    c1, x1 = (
        count_consistent_preimages(scheme, record.t, record.h1, record.y, 1)
        if c0 == 1
        else (None, None)
    )
    return _verdict(record, c0, x0, c1, x1)


def _verdict(record: SessionRecord, c0, x0, c1, x1) -> tuple[bool, str]:
    if c0 != 1 or c1 != 1:
        return record.v2coin < 7, REASON_COIN
    if record.v1 == 0:
        ok = record.xprime == (x0 if record.bprime == 0 else x1)
    else:
        xi = record.xi
        if dot2(xi, x0) != dot2(xi, x1):
            ok = record.eta == dot2(xi, x0)
        else:
            ok = record.eta == (record.v2 ^ dot2(record.d, x0 ^ x1))
    return ok, (REASON_PASS if ok else REASON_FAIL)


# the lockstep engine -----------------------------------------------------------

# Sessions whose streams run_block draws together: SessionStreams costs
# per numpy call, not per session, so a block spans many sessions.
STREAM_SESSIONS = 1024


def block_size(scheme: CommitScheme) -> int:
    """STREAM_SESSIONS, or fewer where the scheme holds fewer tables than receiver seeds."""
    return STREAM_SESSIONS if scheme.capacity >= 1 << scheme.ell else min(STREAM_SESSIONS, scheme.capacity)


def run_block(params: ProtocolParams, seed: int, lo: int, hi: int) -> SessionBlock:
    """Honest sessions lo..hi-1, advanced step by step in lockstep.

    Row i - lo equals run_session(params, HonestProver(params.scheme),
    default_rng([seed, i])): SessionStreams makes each session's draws on
    that stream, in run_session's order, one numpy pass per draw for the
    whole block, while the deterministic work between draws also runs
    once per block: the commit's key (the scheme's commit_keys), the hash
    kernel on every session's support, the y law as a segmented sort, and
    the Hadamard measurement as one hadamard_draws call.
    """
    ell, scheme, n = params.ell, params.scheme, hi - lo
    streams = SessionStreams(seed, lo, hi)
    cols, tables, firsts, lens = _commit_step(scheme, streams)
    # Grid index and hash pair.  An honest commit leaves S0 = X_{0,t}.
    js = np.full(n, -1, dtype=np.int64)
    if params.grid_mode == GRID_ORACLE:
        first, stop = _grid_ends(ell, params.epsilon, lens[0::2])
        js = np.where(first < stop, first, js)
    unset = np.flatnonzero(js < 0)
    js[unset] = streams.integers(params.m, unset)
    hashes = sample_hash_pairs(ell, np.array(params.ks)[js], streams)
    ys, xs, seg = _hash_step(params, streams, tables, firsts, lens, hashes)
    offsets = np.concatenate(([0], np.bincount(seg, minlength=2 * n).cumsum()))
    sizes = offsets[2::2] - offsets[:-1:2]
    # The challenge: v1 and xi, then the preimage test or d, v2 and eta.
    v1s, xis = streams.integers(2), streams.integers(1 << ell)
    v0_rows, v1_rows = np.flatnonzero(v1s == 0), np.flatnonzero(v1s)
    at = offsets[2 * v0_rows] + streams.integers(sizes[v0_rows], v0_rows)
    bprime, xprime, ds, v2s, etas, a0, a1 = np.zeros((7, n), dtype=np.int64)
    bprime[v0_rows], xprime[v0_rows] = at >= offsets[2 * v0_rows + 1], xs[at]
    small = sizes[v1_rows] <= 2
    for rows, draw_d in ((v1_rows[small], _d_by_rejection), (v1_rows[~small], _d_by_wht)):
        ds[rows], a0[rows], a1[rows] = draw_d(ell, streams, rows, offsets, xs, seg, xis)
    v2s[v1_rows] = streams.integers(2, v1_rows)
    etas[v1_rows] = streams.random(v1_rows) >= eta0_probs(a0[v1_rows], a1[v1_rows], v2s[v1_rows])
    cols.update(j=js, y=ys, v1=v1s, xi=xis, bprime=bprime, xprime=xprime, d=ds, v2=v2s, eta=etas)
    cols["v2coin"] = streams.integers(8)
    return SessionBlock(scheme, hashes, cols)


def _commit_step(scheme: CommitScheme, streams: SessionStreams):
    """Each session's receiver seed r and honest commit key, as the columns
    r and key, their tables, and the supports S0, S1 of session 0, S0 of
    session 1, ..., classes key and key ^ 1 of r's table, as offsets and lengths."""
    rs = streams.integers(1 << scheme.ell)
    tables = scheme.rows(rs)
    keys = scheme.commit_keys(tables, streams)
    firsts, lens = np.stack((tables.classes(keys), tables.classes(keys ^ 1)), axis=-1)
    return {"r": rs, "key": keys}, tables, firsts.ravel(), lens.ravel()


def _runs(sizes: np.ndarray, budget: int):
    """Consecutive ranges [a, b) of sessions whose sizes sum to at most
    budget, or of one session where a single size exceeds it."""
    ends = np.cumsum(sizes)
    a = 0
    while a < len(sizes):
        b = int(np.searchsorted(ends, ends[a] - sizes[a] + budget, side="right"))
        yield a, max(a + 1, b)
        a = max(a + 1, b)


def _hash_step(
    params: ProtocolParams, streams: SessionStreams, tables: ClassRows, firsts, lens, hashes: HashColumns
):
    """Every session's y and the support seeds that survive it.

    Seeds sit in segments 2i + b (session i, branch b), the lens[2i + b]
    seeds at firsts[2i + b] of the tables, hashed by member 2i + b.  y is
    the u-th smallest hash value of session i's seeds for its draw u,
    which is sample_index over np.unique's counts.  The kernel runs on
    runs of sessions of at most _BLOCK_BYTES >> 8 seeds.  Returns (ys,
    seeds, segments) of the survivors, in segment order.
    """
    sizes = lens[0::2] + lens[1::2]
    us = streams.integers(sizes)
    shift = max(params.ks).bit_length()
    ys, kept_xs, kept_seg = [], [], []
    for a, b in _runs(sizes, _BLOCK_BYTES >> 8):
        xs = tables.seeds(firsts[2 * a : 2 * b], lens[2 * a : 2 * b])
        hv = eval_segments(hashes.take(slice(2 * a, 2 * b)), xs, lens[2 * a : 2 * b])
        seg = np.repeat(np.arange(2 * a, 2 * b), lens[2 * a : 2 * b])
        ranked = np.sort(((seg >> 1) << shift) | hv)
        part = sizes[a:b]
        y = ranked[np.cumsum(part) - part + us[a:b]] & ((1 << shift) - 1)
        kept = hv == y[(seg >> 1) - a]
        ys.append(y)
        kept_xs.append(xs[kept])
        kept_seg.append(seg[kept])
    return np.concatenate(ys), np.concatenate(kept_xs), np.concatenate(kept_seg)


def _clauses(xs, seg, xis) -> np.ndarray:
    """The clause c = xi.x ^ b of each survivor x in segment 2i + b."""
    return parity_u32(xs & xis[seg >> 1]).astype(np.int64) ^ (seg & 1)


def _d_by_rejection(ell, streams, rows, offsets, xs, seg, xis):
    """sample_d's rejection loop for sessions rows, of one or two survivors.

    d is uniform over the d whose residual amplitudes (a_0(d), a_1(d))
    do not both vanish; both vanish only when the two survivors share a
    clause and d.(x ^ x') = 1.  Returns d, a_0(d) and a_1(d) per row.
    """
    first = offsets[2 * rows]
    two = offsets[2 * rows + 2] - first == 2
    x0, x1 = xs[first], xs[first + two]
    c0, c1 = _clauses(x0, seg[first], xis), _clauses(x1, seg[first + two], xis)
    out = np.zeros((3, len(rows)), dtype=np.int64)
    pending = np.arange(len(rows))
    while len(pending):
        d = streams.integers(1 << ell, rows[pending])
        s0 = 1 - 2 * parity_u32(d & x0[pending]).astype(np.int64)
        s1 = (1 - 2 * parity_u32(d & x1[pending]).astype(np.int64)) * two[pending]
        amp0 = s0 * (c0[pending] == 0) + s1 * (c1[pending] == 0)
        amp1 = s0 * (c0[pending] == 1) + s1 * (c1[pending] == 1)
        done = (amp0 != 0) | (amp1 != 0)
        out[:, pending[done]] = d[done], amp0[done], amp1[done]
        pending = pending[~done]
    return out


def _d_by_wht(ell, streams, rows, offsets, xs, seg, xis):
    """sample_d's Hadamard path for sessions rows, of three or more survivors:
    each row's draw u, then hadamard_draws with session rows[w] as
    measurement w.  Returns d, a_0(d) and a_1(d) per row."""
    us = streams.integers((offsets[2 * rows + 2] - offsets[2 * rows]) << ell, rows)
    row_of = np.full(len(xis), -1, dtype=np.int64)
    row_of[rows] = np.arange(len(rows))
    w = row_of[seg >> 1]
    on = w >= 0
    return hadamard_draws(ell, xs[on], 2 * w[on] + (seg[on] & 1), xis[rows], us)


_REASONS = (REASON_PASS, REASON_FAIL, REASON_COIN)


def decide_block(params: ProtocolParams, block: SessionBlock) -> list[tuple[bool, str]]:
    """v2_decide on each row of block, as array operations on its columns."""
    rows = np.arange(len(block.cols["j"]))
    c0, x0 = _count_block(params.scheme, block, rows, 0)
    # As in v2_decide, the b=1 count is made only where the b=0 count is 1.
    c1, x1 = np.zeros((2, len(rows)), dtype=np.int64)
    pending = rows[c0 == 1]
    c1[pending], x1[pending] = _count_block(params.scheme, block, pending, 1)
    claw, cols = (c0 == 1) & (c1 == 1), block.cols
    p0, p1 = parity_u32(cols["xi"] & x0), parity_u32(cols["xi"] & x1)
    ok = np.where(
        cols["v1"] == 0,
        cols["xprime"] == np.where(cols["bprime"] == 0, x0, x1),
        cols["eta"] == np.where(p0 != p1, p0, cols["v2"] ^ parity_u32(cols["d"] & (x0 ^ x1))),
    )
    accepted = np.where(claw, ok, cols["v2coin"] < 7).tolist()
    reasons = np.where(claw, np.where(ok, 0, 1), 2).tolist()
    return list(zip(accepted, map(_REASONS.__getitem__, reasons)))


def _count_block(scheme: CommitScheme, block: SessionBlock, rows: np.ndarray, b: int):
    """count_consistent_preimages(scheme, t, h_b, y, b) on the block's rows,
    as (counts capped at 2, least witnesses, 0 where there is none).  X_{b,t}
    is class key ^ b of r's table, hashed in runs of at most
    _BLOCK_BYTES >> 8 seeds, as in _hash_step."""
    counts, witness = np.zeros((2, len(rows)), dtype=np.int64)
    if not len(rows):
        return counts, witness
    tables = scheme.rows(block.cols["r"][rows])
    firsts, lens = tables.classes(block.cols["key"][rows] ^ b)
    hashes, ys = block.hashes.take(2 * rows + b), block.cols["y"][rows]
    for a, c in _runs(lens, _BLOCK_BYTES >> 8):
        xs = tables.seeds(firsts[a:c], lens[a:c])
        sid = np.repeat(np.arange(a, c), lens[a:c])
        hits = eval_segments(hashes.take(slice(a, c)), xs, lens[a:c]) == ys[sid]
        counts[a:c] = n = np.bincount(sid[hits] - a, minlength=c - a)
        # Each set is ascending, so a row's first hit is its least witness.
        witness[a:c][n > 0] = xs[hits][(np.cumsum(n) - n)[n > 0]]
    return np.minimum(counts, 2), witness


def tally(params: ProtocolParams, records) -> Counter:
    """How often each v2_decide verdict (accepted, reason) occurs over records.

    records may be any iterable, a generator included; it is decided
    block_size records at a time, each chunk made a SessionBlock for
    decide_block.
    """
    verdicts, records = Counter(), iter(records)
    while chunk := list(itertools.islice(records, block_size(params.scheme))):
        verdicts.update(decide_block(params, SessionBlock.from_records(params.scheme, chunk)))
    return verdicts


def count_accepts(verdicts: Counter) -> int:
    """The number of accepted records in a tally."""
    return sum(n for (ok, _), n in verdicts.items() if ok)


@dataclass
class AcceptanceReport:
    """Monte-Carlo acceptance estimate with its per-branch breakdown."""

    trials: int
    accepts: int
    rate: float
    ci_lo: float
    ci_hi: float
    hoeffding_halfwidth: float
    p_good: float
    unique_trials: int
    unique_accepts: int
    unique_rate: float
    unique_ci: tuple[float, float]
    nonunique_trials: int
    nonunique_accepts: int
    nonunique_rate: float
    nonunique_ci: tuple[float, float]
    by_reason: dict
    seed: int

    def to_json_dict(self) -> dict:
        d = dict(self.__dict__)
        d["unique_ci"] = list(self.unique_ci)
        d["nonunique_ci"] = list(self.nonunique_ci)
        return d

    def csv_row(self, params: ProtocolParams, mode_label: str) -> dict:
        return {
            "scheme": params.scheme.name,
            "ell": params.ell,
            "epsilon": params.epsilon,
            "mode": mode_label,
            "trials": self.trials,
            "rate": self.rate,
            "ci_lo": self.ci_lo,
            "ci_hi": self.ci_hi,
            "p_good": self.p_good,
            "seed": self.seed,
        }


def _acceptance_counts(params, prover, start, stop, seed) -> Counter:
    if type(prover) is HonestProver and prover.scheme is params.scheme:
        verdicts, size = Counter(), block_size(params.scheme)
        for lo in range(start, stop, size):
            block = run_block(params, seed, lo, min(lo + size, stop))
            verdicts.update(decide_block(params, block))
        return verdicts
    rngs = (np.random.default_rng([seed, i]) for i in range(start, stop))
    return tally(params, (run_session(params, prover, rng) for rng in rngs))


def estimate_acceptance(
    params: ProtocolParams,
    prover,
    trials: int,
    seed: int = 0,
    workers: int = 1,
) -> AcceptanceReport:
    """Estimate V2's acceptance rate over independent sessions.

    Session i always uses the RNG stream derived from (seed, i), so the
    result is independent of the worker count; worker tallies merge by
    summation.  The honest prover's sessions run in lockstep blocks
    (run_block), any other prover's through run_session one at a time;
    both give the same records, and tally decides them.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    chunks = _split_range(trials, workers)
    if len(chunks) == 1:
        parts = [_acceptance_counts(params, prover, 0, trials, seed)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [
                pool.submit(_acceptance_counts, params, prover, lo, hi, seed)
                for lo, hi in chunks
            ]
            parts = [f.result() for f in futures]
    verdicts = sum(parts, Counter())
    reasons = {
        reason: verdicts[True, reason] + verdicts[False, reason]
        for reason in (REASON_PASS, REASON_FAIL, REASON_COIN)
    }
    accepts = count_accepts(verdicts)
    unique = reasons[REASON_PASS] + reasons[REASON_FAIL]
    unique_accepts = reasons[REASON_PASS]
    coin_accepts = verdicts[True, REASON_COIN]
    nonunique = trials - unique
    ci_lo, ci_hi = stats.wilson_interval(accepts, trials)
    return AcceptanceReport(
        trials=trials,
        accepts=accepts,
        rate=accepts / trials,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        hoeffding_halfwidth=stats.hoeffding_halfwidth(trials),
        p_good=unique / trials,
        unique_trials=unique,
        unique_accepts=unique_accepts,
        unique_rate=unique_accepts / unique if unique else float("nan"),
        unique_ci=stats.wilson_interval(unique_accepts, unique),
        nonunique_trials=nonunique,
        nonunique_accepts=coin_accepts,
        nonunique_rate=coin_accepts / nonunique if nonunique else float("nan"),
        nonunique_ci=stats.wilson_interval(coin_accepts, nonunique),
        by_reason=reasons,
        seed=seed,
    )


def _split_range(trials: int, workers: int) -> list[tuple[int, int]]:
    workers = max(1, min(workers, trials))
    step = (trials + workers - 1) // workers
    return [(lo, min(lo + step, trials)) for lo in range(0, trials, step)]
