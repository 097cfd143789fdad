"""Classical cheating provers and the binding-attack machinery.

Classical provers here are *replayable*: every response is a
deterministic function of (fixed randomness r, transcript prefix,
challenge), realized by seeding a PRF stream per query.  That models a
prover with its coins fixed, which is exactly what the two-challenge
predictor needs: it may query the same prefix twice and must see the
same d both times.

The soundness pipeline is

    predict_claw_parity   -- query (v1=1, xi) for d, replay it, then eta
                             for v2=0 and v2=1 with the same d; XOR the
                             etas with 1.  Whenever both replies would
                             pass the decider on a unique-claw prefix,
                             the output equals xi.(x0 xor x1).
    predict_claw_parities -- the same for a batch of xis, asked of a
                             prover with d_responses as two d columns
                             and two eta columns, each checked.
    goldreich_levin       -- list-decode the inner-product predicate
                             from any such noisy predictor.
    binding_attack        -- assemble a transcript plus decommitments
                             to both bits from the prover's v1=0 answer
                             and the extracted claw difference.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import coherent_prover as cp
from .bits import check_ell, key_hash, parity_u32, rng_from_key, wht
from .coherent_prover import _BLOCK_BYTES
from .commitment import CommitScheme, Transcript, run_classical_commit
from .hashing import HashFn, eval_segments
from .streams import SessionStreams
from .verifier import (
    ProtocolParams,
    ProtocolViolation,
    check_column,
    check_reply,
    check_v0_reply,
    run_commit,
    run_preamble,
    sample_hash,  # noqa: F401  (perfbench/tracing.py patches adversaries.sample_hash)
    v0_pair,
)


class ProverNondeterminism(ProtocolViolation):
    """A replayable prover returned different answers to the same query."""


def _prefix_key(t: Transcript, h0: HashFn, h1: HashFn, y: int) -> bytes:
    parts = [len(t).to_bytes(2, "big")]
    for m in t:
        parts.append(len(m).to_bytes(4, "big") + m)
    for h in (h0, h1):
        parts.append(repr(sorted(h.to_json_dict().items())).encode())
    parts.append(int(y).to_bytes(8, "big"))
    return b"".join(parts)


class _ReplayableProver:
    """Base for classical provers asked row by row, each deterministic given
    (r, query): a subclass gives new_session(rng) and the five row methods."""

    replayable = True

    def block_session(self, streams, rs: np.ndarray, tables):
        """verifier.run_block's replies as lists, each row's session asked as
        run_session asks it; run_block checks each list before a later query
        reads it.  Exact, as a replayable prover draws no stream."""
        scheme, ell = self.scheme, self.scheme.ell
        sessions = [self.new_session(None) for _ in range(len(rs))]
        ts = [run_commit(scheme, session, r) for session, r in zip(sessions, rs.tolist())]
        hashes = yield [scheme.transcript_key(t)[1] for t in ts]
        # Each row's query grows a phase at a time: (t, h0, h1), then y, xi and d.
        queries = [(t, hashes.member(ell, 2 * i), hashes.member(ell, 2 * i + 1)) for i, t in enumerate(ts)]
        queries = [(*q, s.hash_response(*q)) for s, q in zip(sessions, queries)]
        v1s, xis = yield [q[3] for q in queries]
        asked = [(s, (*q, xi), v1) for s, q, xi, v1 in zip(sessions, queries, xis.tolist(), v1s.tolist())]
        v0 = [v0_pair(s.v0_response(*q)) for s, q, v1 in asked if v1 == 0]
        asked = [(s, (*q, s.d_response(*q))) for s, q, v1 in asked if v1]
        v2s = yield ([b for b, _ in v0], [x for _, x in v0]), [q[-1] for _, q in asked]
        yield [s.eta_response(*q, v2) for (s, q), v2 in zip(asked, v2s.tolist())]


class ClassicalHonestProver:
    """Baseline classical strategy with a fixed committed bit and seed.

    Commits classically to (b, x), reports y = h_b(x), answers the
    preimage test with (b, x) and the measurement test with d = 0 and
    eta = xi.x, i.e. it plays the first decision clause assuming its
    own seed sits in the x0 slot.  One fixed choice among many; a
    measured baseline, not a claimed optimum.  It answers in columns.
    """

    def __init__(self, scheme: CommitScheme, b: int, x: int):
        if b not in (0, 1) or not 0 <= x < 1 << scheme.ell:
            raise ValueError(f"need b in {{0, 1}} and x in [0, 2^{scheme.ell}), got b={b}, x={x}")
        self.scheme = scheme
        self.b = b
        self.x = x

    def block_session(self, streams, rs: np.ndarray, tables):
        """verifier.run_block's replies, the commit key once per distinct r."""
        scheme, b, x = self.scheme, self.b, self.x
        distinct, at = np.unique(rs, return_inverse=True)
        keys = [scheme.transcript_key(run_classical_commit(scheme, b, x, r))[1] for r in distinct.tolist()]
        hashes = yield np.array(keys, dtype=np.int64)[at]
        ones = np.ones(len(rs), dtype=np.int64)
        v1s, xis = yield eval_segments(hashes.take(slice(b, None, 2)), x * ones, ones)
        v0_rows, v1_rows = np.flatnonzero(v1s == 0), np.flatnonzero(v1s)
        yield (np.full(len(v0_rows), b), np.full(len(v0_rows), x)), np.zeros(len(v1_rows), dtype=np.int64)
        yield parity_u32(xis[v1_rows] & x)


class UnboundedClawProver(_ReplayableProver):
    """Classical prover that brute-forces the support sets.

    Samples every response from the honest prover's exact conditional
    law, with per-query PRF randomness so replays are consistent.  Over
    fresh randomness its transcript law equals the honest prover's; at
    tiny ell it legitimately defeats binding.
    """

    def __init__(self, scheme: CommitScheme, r: bytes = b""):
        check_ell(scheme.ell)
        self.r = b"unbounded-claw" + r
        self.scheme = scheme
        self._memo = None

    def new_session(self, rng: np.random.Generator) -> "UnboundedClawProver":
        """Same scheme and coins, empty memo: a memo lives for one session."""
        session = copy.copy(self)
        session._memo = None
        return session

    def _rng(self, tag: str, *key_parts) -> np.random.Generator:
        return rng_from_key(self.r, tag, *key_parts)

    # exact honest-law sampling, PRF-randomized per query ------------------
    def commit_message(self, j, prefix):
        # Only the keyed round splits the state, and it is the last round.
        law = cp.commit_alpha_law(self.scheme, cp.SupportState.full(self.scheme.ell), j, prefix)
        rng = self._rng("commit", len(prefix).to_bytes(2, "big"), *prefix)
        return law.alpha(cp.sample_index(law.counts, rng))

    def hash_response(self, t, h0, h1):
        rng = self._rng("y", _prefix_key(t, h0, h1, 0))
        y, state = cp.measure_hash(cp.consistent_state(self.scheme, t), h0, h1, rng)
        self._memo = ((t, h0, h1, y), (state, _prefix_key(t, h0, h1, y), {}))
        return y

    def v0_response(self, t, h0, h1, y, xi):
        state, key, _ = self._post_hash(t, h0, h1, y)
        return cp.answer_v0(state, self._rng("v0", key, xi))

    def d_response(self, t, h0, h1, y, xi):
        state, key, memo = self._post_hash(t, h0, h1, y)
        drawn = memo.get(("d", xi))
        if drawn is None:
            drawn = memo["d", xi] = cp.sample_d(state, xi, self._rng("d", key, xi))
        return drawn[0]

    def eta_response(self, t, h0, h1, y, xi, d, v2):
        state, key, memo = self._post_hash(t, h0, h1, y)
        eta = memo.get(("eta", xi, d, v2))
        if eta is None:
            drawn = memo.get(("d", xi))
            qubit = drawn[1] if drawn and drawn[0] == d else cp.residual_for_d(state, xi, d)
            eta = memo["eta", xi, d, v2] = cp.measure_rotated(qubit, v2, self._rng("eta", key, xi, d, v2))
        return eta

    def d_responses(self, t, h0, h1, y, xis):
        """d_response of every xi in xis as a column, each distinct xi asked once."""
        self.prepare_challenges(t, h0, h1, y, xis)
        distinct, at = np.unique(xis, return_inverse=True)
        return np.array([self.d_response(t, h0, h1, y, xi) for xi in distinct.tolist()], np.int64)[at]

    def eta_responses(self, t, h0, h1, y, xis, ds, v2):
        """eta_response of every (xi, d) row for one v2, each distinct pair asked once."""
        ell = self.scheme.ell
        distinct, at = np.unique((xis << ell) | ds, return_inverse=True)
        etas = [self.eta_response(t, h0, h1, y, q >> ell, q & ((1 << ell) - 1), v2) for q in distinct.tolist()]
        return np.array(etas, np.int64)[at]

    def prepare_challenges(self, t, h0, h1, y, xis):
        """Draw the d and both eta answers of every xi not yet answered, for
        d_responses and eta_responses to read.

        The answers are the ones d_response and eta_response would give,
        from the same per-query coins, drawn as the honest engine draws a
        block: a chunk of xis is a block of copies of the state, its
        _BLOCK_BYTES-bounded transforms as in hadamard_draws.  Copy w's
        d is drawn by the engine's _d_by_rejection (at most two seeds) or
        _d_by_wht on the keyed row of xi_w's "d" coins, then each v2's
        eta as random() >= eta0_probs on the keyed row of its "eta"
        coins: two SessionStreams seedings a chunk, each row the stream
        _rng would build for that key.
        """
        state, key, memo = self._post_hash(t, h0, h1, y)
        new = [xi for xi in dict.fromkeys(np.asarray(xis).tolist()) if ("d", xi) not in memo]
        draw_d = cp._d_by_rejection if state.size <= 2 else cp._d_by_wht
        step = max(1, _BLOCK_BYTES >> (state.ell + 6))
        for lo in range(0, len(new), step):
            chunk = new[lo : lo + step]
            copies = len(chunk)
            offsets = np.concatenate(([0], np.tile((len(state.s0), len(state.s1)), copies).cumsum()))
            d_coins = self._keyed("d", key, [(xi,) for xi in chunk])
            xs, seg = state.segments(copies)
            drawn = draw_d(state.ell, d_coins, np.arange(copies), offsets, xs, seg, np.array(chunk))
            ds, a0, a1 = drawn.tolist()
            # The eta rows: every xi's (xi, d, 0), then every xi's (xi, d, 1).
            queries = [(xi, d, v2) for v2 in (0, 1) for xi, d in zip(chunk, ds)]
            p0 = cp.eta0_probs(np.tile(drawn[1], 2), np.tile(drawn[2], 2), np.repeat((0, 1), copies))
            etas = (self._keyed("eta", key, queries).random() >= p0).astype(np.int64)
            memo.update((("eta", *q), eta) for q, eta in zip(queries, etas.tolist()))
            memo.update((("d", xi), (d, qubit)) for xi, d, qubit in zip(chunk, ds, zip(a0, a1)))

    def _keyed(self, tag: str, key: bytes, tails) -> SessionStreams:
        """Row w is the stream _rng(tag, key, *tails[w]) would build, all seeded at once."""
        head = key_hash(self.r, tag, key)
        return SessionStreams.from_digests([key_hash(*tail, base=head).digest() for tail in tails])

    # state reconstruction --------------------------------------------------
    def _post_hash(self, t, h0, h1, y):
        """(state, prefix key, answers) of the prefix; answers are fixed by (r, prefix, query)."""
        memo = self._memo
        if memo is not None:
            pt, ph0, ph1, py = memo[0]
            if (pt is t and ph0 is h0 and ph1 is h1 and py == y) or memo[0] == (t, h0, h1, y):
                return memo[1]
        state = cp.consistent_state(self.scheme, t, (h0, h1, y))
        if state.size == 0:
            raise ProtocolViolation("claw prover queried on unreachable prefix")
        self._memo = ((t, h0, h1, y), (state, _prefix_key(t, h0, h1, y), {}))
        return self._memo[1]


unbounded_claw_prover = UnboundedClawProver  # the name perfbench imports


# the two-challenge predictor ---------------------------------------------------

def predict_claw_parity(prefix, xi: int, prover) -> int:
    """Query the prover on (v1=1, xi) and both v2 values; XOR the etas.

    Replays the d-query to audit the prover's replayability contract.
    On unique-claw prefixes, whenever both (d, eta) replies would pass
    the decider the returned bit equals xi.(x0 xor x1).
    """
    if not getattr(prover, "replayable", False):
        raise ProtocolViolation("predictor needs a replayable prover")
    t, h0, h1, y = prefix
    d = check_reply(prover.d_response(t, h0, h1, y, xi), 1 << h0.ell, "d")
    if prover.d_response(t, h0, h1, y, xi) != d:
        raise ProverNondeterminism("d changed across replays of one prefix")
    eta_10 = check_reply(prover.eta_response(t, h0, h1, y, xi, d, 0), 2, "eta")
    eta_11 = check_reply(prover.eta_response(t, h0, h1, y, xi, d, 1), 2, "eta")
    return eta_10 ^ eta_11 ^ 1


def predict_claw_parities(prefix, xis: np.ndarray, prover) -> np.ndarray:
    """predict_claw_parity of every xi, asked in columns: the d column twice,
    then the eta column for v2 = 0 and for v2 = 1, each column checked."""
    if not getattr(prover, "replayable", False):
        raise ProtocolViolation("predictor needs a replayable prover")
    t, h0, h1, y = prefix
    n, bound = len(xis), 1 << h0.ell
    ds = check_column(prover.d_responses(t, h0, h1, y, xis), n, bound, "d")
    if not np.array_equal(check_column(prover.d_responses(t, h0, h1, y, xis), n, bound, "d"), ds):
        raise ProverNondeterminism("d changed across replays of one prefix")
    eta0, eta1 = (check_column(prover.eta_responses(t, h0, h1, y, xis, ds, v2), n, 2, "eta") for v2 in (0, 1))
    return eta0 ^ eta1 ^ 1


@dataclass
class PredictionOracle:
    """A batch xi -> bit predictor: fn maps an int64 array of xis to their bits."""

    fn: Callable[[np.ndarray], np.ndarray]
    queries: int = 0

    def query_many(self, xis: np.ndarray) -> np.ndarray:
        self.queries += len(xis)
        return np.asarray(self.fn(xis), dtype=np.int64) & 1


def oracle_from_prover(prefix, prover) -> PredictionOracle:
    """The two-challenge predictor on one prefix: a prover with d_responses
    is asked each batch of xis in columns, any other one xi at a time.
    Either way every query asks it for d twice and eta twice."""
    if hasattr(prover, "d_responses"):
        return PredictionOracle(fn=lambda xis: predict_claw_parities(prefix, xis, prover))
    return PredictionOracle(fn=lambda xis: [predict_claw_parity(prefix, xi, prover) for xi in xis.tolist()])


# Goldreich-Levin list decoding --------------------------------------------------

# At most 2^14 - 1 XOR-combination queries per coordinate.
_GL_MAX_BATCH_LOG2 = 14


def goldreich_levin(
    oracle: PredictionOracle,
    ell: int,
    advantage: float,
    confidence: float,
    rng: np.random.Generator,
) -> list[int]:
    """List-decode all s with Pr_xi[oracle(xi) = xi.s] >= 1/2 + advantage.

    Standard pairwise-independent batching: t seed strings r_1..r_t give
    2^t - 1 XOR-combination queries per coordinate; every guess of the t
    predicate bits yields one candidate via per-coordinate majority
    vote.  The deterministic unit-vector probe is always included, so a
    perfect oracle is decoded exactly.  Candidates are then filtered on
    fresh queries at threshold 1/2 + advantage/2, which caps the list
    at O(1/advantage^2) survivors with high probability.

    Query count is ell * (2^t - 1) + filtering, with
    2^t - 1 >= ell / (4 * advantage^2 * confidence).
    """
    if not 0 < advantage <= 0.5:
        raise ValueError("advantage must lie in (0, 1/2]")
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie in (0, 1)")
    check_ell(ell)
    need = ell / (4.0 * advantage * advantage * confidence)
    t = max(1, int(np.ceil(np.log2(need + 1))))
    t = min(t, _GL_MAX_BATCH_LOG2)

    # unit-vector probe: exact for noiseless linear oracles
    weights = np.int64(1) << np.arange(ell, dtype=np.int64)
    candidates = [int(oracle.query_many(weights) @ weights)]

    seeds = rng.integers(1 << ell, size=t)
    combos = np.zeros(1 << t, dtype=np.int64)
    for j in range(t):
        combos[1 << j : 2 << j] = combos[: 1 << j] ^ seeds[j]

    # coordinate-major: all combos with bit 0 flipped, then bit 1, ...
    queries = (combos[None, 1:] ^ weights[:, None]).ravel()
    votes = oracle.query_many(queries).reshape(ell, -1)

    # Guess g's score on a coordinate is sum_sigma (-1)^(g.sigma) (1 - 2 vote):
    # a WHT of each coordinate's row, with combo 0 (no query) padded as 0.
    scores = wht(np.pad(1 - 2 * votes, ((0, 0), (1, 0))))
    candidates.extend((weights @ (scores < 0)).tolist())
    distinct = np.array(list(dict.fromkeys(candidates)), dtype=np.int64)

    n_test = max(64, int(np.ceil(8.0 / (advantage * advantage))))
    test_xis = rng.integers(1 << ell, size=n_test)
    answers = oracle.query_many(test_xis)
    step = max(1, _BLOCK_BYTES // (8 * n_test))  # candidates per parity matrix of _BLOCK_BYTES
    hits = [np.count_nonzero(parity_u32(distinct[lo : lo + step, None] & test_xis) == answers, axis=1)
            for lo in range(0, len(distinct), step)]
    agree = np.concatenate(hits) / n_test
    kept = [(a, s) for a, s in zip(agree.tolist(), distinct.tolist()) if a >= 0.5 + advantage / 2.0]
    kept.sort(key=lambda pair: (-pair[0], pair[1]))
    return [s for _, s in kept]


# the binding attack --------------------------------------------------------------

# The predictor advantage the attack list-decodes at, and GL's failure bound.
_GL_ADVANTAGE = 0.2
_GL_CONFIDENCE = 0.25


@dataclass
class BindingResult:
    success: bool
    failure_reason: str | None
    transcript: Transcript | None
    decommit0: tuple[int, int] | None
    decommit1: tuple[int, int] | None
    gl_queries: int
    candidates_tried: int

    def to_json_dict(self) -> dict:
        return {
            "success": self.success,
            "failure_reason": self.failure_reason,
            "gl_queries": self.gl_queries,
            "candidates_tried": self.candidates_tried,
        }


def binding_attack(params: ProtocolParams, prover, rng: np.random.Generator) -> BindingResult:
    """Assemble a double opening of one transcript from a cheating prover.

    Plays the commit phase honestly as the receiver, lets the prover fix
    y, collects its v1=0 answer (b', x'), list-decodes the claw
    difference z from the two-challenge predictor, and returns the
    decommitments (0, x'_0), (1, x'_1) with {x'_0, x'_1} = {x', x' xor z}
    ordered by b'.  Success means both openings verify; a prover abort
    or an empty surviving list is reported as failure, never raised.
    """
    scheme = params.scheme
    ell = scheme.ell
    try:
        session = prover.new_session(rng)
        prefix, _ = run_preamble(params, session, rng)
        t, h0, h1, y = prefix
        xi = int(rng.integers(1 << ell))
        bprime, xprime = check_v0_reply(session.v0_response(t, h0, h1, y, xi), ell)

        oracle = oracle_from_prover(prefix, session)
        z_list = goldreich_levin(oracle, ell, _GL_ADVANTAGE, _GL_CONFIDENCE, rng)
    except ProverNondeterminism:
        raise
    except ProtocolViolation as exc:
        return BindingResult(False, str(exc), None, None, None, 0, 0)

    tried = 0
    for z in z_list:
        tried += 1
        if bprime == 0:
            x0, x1 = xprime, xprime ^ z
        else:
            x0, x1 = xprime ^ z, xprime
        if scheme.open_verify(t, 0, x0) and scheme.open_verify(t, 1, x1):
            return BindingResult(
                True, None, t, (0, x0), (1, x1), oracle.queries, tried
            )
    return BindingResult(
        False, "no candidate opened both bits", t, None, None, oracle.queries, tried
    )

