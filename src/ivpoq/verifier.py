"""The efficient first-phase verifier V1 and the inefficient decider V2.

V1 drives one protocol session: coherent commit (playing the receiver),
hash-pair challenge, and the two-challenge measurement phase.  The
first two are run_preamble and the last is run_challenge; sessions,
binding attacks and conditional estimates all run the first phase
through them, so each prover reply is validated in one place.  V2 is a
pure function of the resulting record: V1 appends three fair coin bits
to the transcript, so the 7/8-acceptance branch of V2 is derandomized
and every run replays to the same verdict.

V2's hard steps (counting consistent preimages and finding witnesses)
go through count_consistent_preimages, a brute-force stand-in for the
three NP-oracle queries an efficient-but-oracle-aided decider would
make: existence, witness search, and a second-element check.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from decimal import Decimal, getcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import stats
from .bits import dot2, from_hex, to_hex
from .commitment import CommitScheme, Transcript, make_scheme
from .hashing import AFFINE_MOD_PRIME, HashFn, sample_hash

getcontext().prec = 80

GRID_UNIFORM = "uniform"
GRID_ORACLE = "oracle"

REASON_PASS = "unique-claw-pass"
REASON_FAIL = "unique-claw-fail"
REASON_COIN = "non-unique-coin"


class ProtocolViolation(RuntimeError):
    """A prover message failed validation (wrong size, range, or type)."""


@lru_cache(maxsize=256)
def compute_m(ell: int, epsilon: float) -> int:
    """Minimal m with (1+epsilon)^m >= 2^(ell+1)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    base = Decimal(1) + Decimal(epsilon)
    target = Decimal(1 << (ell + 1))
    val = Decimal(1)
    m = 0
    while val < target:
        val *= base
        m += 1
    return m


@lru_cache(maxsize=256)
def grid_sizes(ell: int, epsilon: float) -> tuple[int, ...]:
    """k_j = ceil((1+epsilon)^j) for j = 0..m-1."""
    base = Decimal(1) + Decimal(epsilon)
    target = Decimal(1 << (ell + 1))
    ks = []
    val = Decimal(1)
    while True:
        ceiling = int(val.to_integral_value(rounding="ROUND_CEILING"))
        ks.append(ceiling)
        if val >= target:
            break
        val *= base
    return tuple(ks[: compute_m(ell, epsilon)])


@lru_cache(maxsize=256)
def _grid_caps(ell: int, epsilon: float) -> tuple[int, ...]:
    """floor((1+epsilon) k_j) for each grid size, in exact rationals."""
    one_plus_eps = 1 + Fraction(epsilon)
    return tuple(math.floor(one_plus_eps * k) for k in grid_sizes(ell, epsilon))


def grid_brackets(ell: int, epsilon: float, size0: int) -> range:
    """The grid indices j with k_j <= 2*size0 <= (1+epsilon) k_j, ascending.

    Both k_j and floor((1+epsilon) k_j) are nondecreasing in j, so the
    indices form one contiguous run, found with two bisections.  It is
    nonempty whenever 1 <= size0 <= 2^ell.
    """
    target = 2 * size0
    return range(
        bisect.bisect_left(_grid_caps(ell, epsilon), target),
        bisect.bisect_right(grid_sizes(ell, epsilon), target),
    )


@dataclass
class ProtocolParams:
    """Everything V1 needs to run sessions against a scheme."""

    scheme: CommitScheme
    epsilon: float = 0.01
    grid_mode: str = GRID_UNIFORM
    lam: int = 40
    hash_family: str = AFFINE_MOD_PRIME
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

    def prefix(self) -> tuple:
        return self.t, self.h0, self.h1, self.y

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
    h0 = sample_hash(params.hash_family, scheme.ell, k, rng)
    h1 = sample_hash(params.hash_family, scheme.ell, k, rng)
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


def _acceptance_counts(params, prover, start, stop, seed):
    accepts = unique = unique_accepts = 0
    reasons = {REASON_PASS: 0, REASON_FAIL: 0, REASON_COIN: 0}
    coin_accepts = 0
    for i in range(start, stop):
        rng = np.random.default_rng([seed, i])
        record = run_session(params, prover, rng)
        ok, reason = v2_decide(params, record)
        reasons[reason] += 1
        accepts += ok
        if reason == REASON_COIN:
            coin_accepts += ok
        else:
            unique += 1
            unique_accepts += ok
    return accepts, unique, unique_accepts, coin_accepts, reasons


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
    summation.
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
    accepts = sum(p[0] for p in parts)
    unique = sum(p[1] for p in parts)
    unique_accepts = sum(p[2] for p in parts)
    coin_accepts = sum(p[3] for p in parts)
    reasons = {REASON_PASS: 0, REASON_FAIL: 0, REASON_COIN: 0}
    for p in parts:
        for key, val in p[4].items():
            reasons[key] += val
    nonunique = trials - unique
    return AcceptanceReport(
        trials=trials,
        accepts=accepts,
        rate=accepts / trials,
        ci_lo=stats.wilson_interval(accepts, trials)[0],
        ci_hi=stats.wilson_interval(accepts, trials)[1],
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


def record_to_json(record: SessionRecord) -> str:
    return json.dumps(record.to_json_dict(), sort_keys=True, indent=2)
