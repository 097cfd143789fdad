"""The efficient first-phase verifier V1 and the inefficient decider V2.

V1 drives one protocol session: coherent commit (playing the receiver),
hash-pair challenge, and the two-challenge measurement phase.  The
first two are run_preamble and the last is run_challenge; sessions and
binding attacks run the first phase through them, so each prover reply
is validated in one place.  V2 is a pure function of the resulting
record: V1 appends three fair coin bits to the transcript, so the
7/8-acceptance branch of V2 is derandomized and every run replays to
the same verdict.

run_block is V1 over a block of sessions in lockstep, each on its own
stream with run_session's draws (SessionStreams makes each draw for the
whole block at once); the prover answers each phase for the whole block
through its block_session generator, V1 checks each reply column, and the
block comes back as a SessionBlock of columns; estimate_acceptance runs
every session through it.  decide_block is V2 over a block, in array
operations on its columns.  A block's SessionRecords are built only by
SessionBlock.records (the CLI's run and the tests).

V2's hard steps (counting consistent preimages and finding witnesses)
go through count_consistent_preimages, a brute-force stand-in for the
three NP-oracle queries an efficient-but-oracle-aided decider would
make: existence, witness search, and a second-element check.
"""

from __future__ import annotations

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
from .commitment import CommitScheme, Transcript
from .hashing import HashColumns, HashFn, eval_segments, sample_hash, sample_hash_pairs
from .streams import SessionStreams

GRID_UNIFORM = "uniform"
GRID_ORACLE = "oracle"

REASON_PASS = "unique-claw-pass"
REASON_FAIL = "unique-claw-fail"
REASON_COIN = "non-unique-coin"


class ProtocolViolation(RuntimeError):
    """A prover message failed validation (wrong size, range, or type)."""


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
        self.ks = grid_sizes(self.scheme.ell, self.epsilon)
        self.m = len(self.ks)

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


def check_reply(value, bound: int, what: str, low: int = 0) -> int:
    """A prover's integer reply (a Python int or bool, or a numpy integer or
    bool scalar) in [low, bound); anything else is a violation."""
    if not isinstance(value, (int, np.integer, np.bool_)) or not low <= int(value) < bound:
        raise ProtocolViolation(f"{what} out of range")
    return int(value)


def v0_pair(reply) -> tuple:
    """A preimage-test reply as its pair (b', x'), unchecked; a non-pair is a violation."""
    try:
        bprime, xprime = reply
    except (TypeError, ValueError):
        raise ProtocolViolation("malformed measurement response") from None
    return bprime, xprime


def check_v0_reply(reply, ell: int) -> tuple[int, int]:
    """Validate a preimage-test reply (b', x') and return it as ints."""
    bprime, xprime = v0_pair(reply)
    return check_reply(bprime, 2, "b'"), check_reply(xprime, 1 << ell, "x'")


def check_column(column, n: int, bound, what: str, low: int = 0) -> np.ndarray:
    """n prover replies in [low, bound) as int64, bound one value or one per
    row: a list or tuple reply by reply as check_reply checks one, an array
    by its integer or bool dtype; anything else is a violation."""
    if isinstance(column, (list, tuple)) and len(column) == n:
        bounds = np.broadcast_to(bound, n).tolist()
        return np.array([check_reply(v, b, what, low) for v, b in zip(column, bounds)], np.int64)
    if isinstance(column, np.ndarray) and column.shape == (n,) and (column.dtype.kind in "biu" or n == 0):
        column = column.astype(np.int64)  # an unsigned reply >= 2^63 wraps below 0
        if ((low <= column) & (column < bound)).all():
            return column
    raise ProtocolViolation(f"{what} out of range")


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


# lockstep blocks ---------------------------------------------------------------

# Sessions whose streams run_block draws together: SessionStreams costs
# per numpy call, not per session, so a block spans many sessions.
STREAM_SESSIONS = 1024


def block_size(scheme: CommitScheme) -> int:
    """STREAM_SESSIONS, or fewer where the scheme holds fewer tables than receiver seeds."""
    return STREAM_SESSIONS if scheme.capacity >= 1 << scheme.ell else min(STREAM_SESSIONS, scheme.capacity)


def run_block(params: ProtocolParams, prover, seed, lo: int, hi: int) -> SessionBlock:
    """V1 on sessions lo..hi-1, phase by phase in lockstep: row i - lo equals
    run_session(params, prover, default_rng([seed, i])), or [*seed, i] for a
    tuple seed, as SessionStreams draws for every row at once.  The prover's
    generator block_session(streams, rs, tables) yields the commit keys (-1
    where no seed replays the transcript); sent the HashColumns, y; sent
    (v1s, xis), ((b', x') of the v1=0 rows, d of the v1=1 rows); sent their
    v2, their eta; check_column checks each reply column before the next
    draw.  The oracle grid reads |X_{0,t}| as class key's length.
    """
    ell, scheme, n = params.ell, params.scheme, hi - lo
    streams = SessionStreams(seed, lo, hi)
    rs = streams.integers(1 << ell)
    tables = scheme.rows(rs)
    replies = prover.block_session(streams, rs, tables)
    keys = check_column(next(replies), n, tables.starts.shape[1] - 1, "commit key", low=-1)
    js = np.full(n, -1, dtype=np.int64)
    if params.grid_mode == GRID_ORACLE:
        first, stop = _grid_ends(ell, params.epsilon, tables.classes(keys)[1])
        js = np.where(first < stop, first, js)
    unset = np.flatnonzero(js < 0)
    js[unset] = streams.integers(params.m, unset)
    hashes = sample_hash_pairs(ell, np.array(params.ks)[js], streams)
    ys = check_column(replies.send(hashes), n, hashes.k[::2].astype(np.int64), "y")
    v1s, xis = streams.integers(2), streams.integers(1 << ell)
    v0_rows, v1_rows = np.flatnonzero(v1s == 0), np.flatnonzero(v1s)
    v0, ds = v0_pair(replies.send((v1s, xis)))
    bprimes, xprimes = v0_pair(v0)
    cols = {name: np.zeros(n, dtype=np.int64) for name in _COLUMNS}
    cols["bprime"][v0_rows] = check_column(bprimes, len(v0_rows), 2, "b'")
    cols["xprime"][v0_rows] = check_column(xprimes, len(v0_rows), 1 << ell, "x'")
    cols["d"][v1_rows] = check_column(ds, len(v1_rows), 1 << ell, "d")
    cols["v2"][v1_rows] = v2s = streams.integers(2, v1_rows)
    cols["eta"][v1_rows] = check_column(replies.send(v2s), len(v1_rows), 2, "eta")
    cols.update(r=rs, key=keys, j=js, y=ys, v1=v1s, xi=xis, v2coin=streams.integers(8))
    return SessionBlock(scheme, hashes, cols)


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
    is class key ^ b of r's table, hashed one tables.runs run at a time."""
    counts, witness = np.zeros((2, len(rows)), dtype=np.int64)
    tables = scheme.rows(block.cols["r"][rows])
    firsts, lens = tables.classes(block.cols["key"][rows] ^ b)
    hashes, ys = block.hashes.take(2 * rows + b), block.cols["y"][rows]
    for a, c, xs, sid in tables.runs(firsts, lens):
        hits = eval_segments(hashes.take(slice(a, c)), xs, lens[a:c]) == ys[sid]
        counts[a:c] = n = np.bincount(sid[hits] - a, minlength=c - a)
        # Each set is ascending, so a row's first hit is its least witness.
        witness[a:c][n > 0] = xs[hits][(np.cumsum(n) - n)[n > 0]]
    return np.minimum(counts, 2), witness


@dataclass
class AcceptanceReport:
    """Monte-Carlo acceptance estimate with its per-branch breakdown; a
    branch's rate is None (JSON null) when no session took that branch."""

    trials: int
    accepts: int
    rate: float
    ci_lo: float
    ci_hi: float
    hoeffding_halfwidth: float
    p_good: float
    unique_trials: int
    unique_accepts: int
    unique_rate: float | None
    unique_ci: tuple[float, float]
    nonunique_trials: int
    nonunique_accepts: int
    nonunique_rate: float | None
    nonunique_ci: tuple[float, float]
    by_reason: dict
    seed: int | tuple[int, ...]

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
    verdicts, size = Counter(), block_size(params.scheme)
    for lo in range(start, stop, size):
        verdicts.update(decide_block(params, run_block(params, prover, seed, lo, min(lo + size, stop))))
    return verdicts


def estimate_acceptance(
    params: ProtocolParams,
    prover,
    trials: int,
    seed: int | tuple[int, ...] = 0,
    workers: int = 1,
) -> AcceptanceReport:
    """Estimate V2's acceptance rate over independent sessions.

    Session i always uses the RNG stream derived from (seed, i), or
    (*seed, i) for a tuple seed, so the result is independent of the
    worker count; worker tallies merge by summation.  Sessions run in
    lockstep blocks of block_size (run_block), each decided by
    decide_block; prover needs a block_session method.
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
    unique = reasons[REASON_PASS] + reasons[REASON_FAIL]
    unique_accepts = reasons[REASON_PASS]
    coin_accepts = verdicts[True, REASON_COIN]
    accepts = unique_accepts + coin_accepts
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
        unique_rate=unique_accepts / unique if unique else None,
        unique_ci=stats.wilson_interval(unique_accepts, unique),
        nonunique_trials=nonunique,
        nonunique_accepts=coin_accepts,
        nonunique_rate=coin_accepts / nonunique if nonunique else None,
        nonunique_ci=stats.wilson_interval(coin_accepts, nonunique),
        by_reason=reasons,
        seed=seed,
    )


def _split_range(trials: int, workers: int) -> list[tuple[int, int]]:
    workers = max(1, min(workers, trials))
    step = (trials + workers - 1) // workers
    return [(lo, min(lo + step, trials)) for lo in range(0, trials, step)]
