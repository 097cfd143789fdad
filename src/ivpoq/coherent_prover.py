"""The honest quantum prover, simulated exactly.

The prover's state between the commit phase and the final challenge is
always of the form (sum_{x in S0} |0,x> + sum_{x in S1} |1,x>) / norm:
every operation up to the Hadamard measurement is a classical-function
filter, so amplitudes stay uniform and nonnegative and the state is
fully described by the pair of support sets.  The first nonuniform
object is the 2-amplitude residual qubit left after the d-measurement.

Every measurement with rational outcome probabilities is sampled from
integer counts with sample_index, so its law is exact; the *_law
functions expose those counts for tests and for classical simulators
that need them.  Only the pi/8-rotated eta measurement, whose
probabilities involve cos^2(pi/8), draws a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bits import check_ell, dot2, parity_u32, wht
from .commitment import ClassRows, CommitRoundLaw, CommitScheme, Transcript
from .hashing import HashColumns, HashFn, eval_segments
from .verifier import run_commit

COS_PI8 = np.cos(np.pi / 8)
SIN_PI8 = np.sin(np.pi / 8)
# Conditional acceptance of the honest prover on a two-singleton state:
# 1/2 * 1 + 1/2 * cos^2(pi/8).
HONEST_UNIQUE_RATE = 0.5 + 0.5 * COS_PI8**2

# Bytes of the largest arrays of a batched step: hadamard_draws takes
# _BLOCK_BYTES >> (ell + 6) measurements at a time, each with about four
# arrays of 2 x 2^ell int64 (amplitudes, the transform's buffer, weights).
_BLOCK_BYTES = 1 << 20


class EmptyStateError(RuntimeError):
    """Raised when a measurement is asked of a state with empty support."""


@dataclass
class SupportState:
    """Support sets (S0, S1) of the two committed-bit branches."""

    ell: int
    s0: np.ndarray  # sorted int64 seeds of the |0> branch
    s1: np.ndarray

    @classmethod
    def full(cls, ell: int) -> "SupportState":
        """Every seed on both branches, sharing one read-only array per ell."""
        xs = _all_seeds(ell)
        return cls(ell, xs, xs)

    @property
    def size(self) -> int:
        return len(self.s0) + len(self.s1)

    def segments(self, copies: int = 1):
        """hadamard_draws' seeds and segments for copies measurements of the state."""
        seg = np.repeat(np.arange(2 * copies), np.tile((len(self.s0), len(self.s1)), copies))
        return np.tile(np.concatenate((self.s0, self.s1)), copies), seg


@lru_cache(maxsize=4)  # a process uses one or two lengths; each array is 8 * 2^ell bytes
def _all_seeds(ell: int) -> np.ndarray:
    xs = np.arange(1 << ell, dtype=np.int64)
    xs.setflags(write=False)
    return xs


def sample_index(counts: np.ndarray, rng: np.random.Generator) -> int:
    """Draw i with probability counts[i] / sum(counts), exactly.

    counts are nonnegative integers with a positive sum below 2^63.
    """
    cum = counts.cumsum(dtype=np.int64)
    return int(cum.searchsorted(rng.integers(int(cum[-1])), side="right"))


# commit phase ---------------------------------------------------------------

def commit_alpha_law(
    scheme: CommitScheme, state: SupportState, j: int, prefix: Transcript
) -> CommitRoundLaw:
    """Exact law of the round-j sender message given the current state."""
    return scheme.alpha_partition(j, state.s0, state.s1, prefix)


def consistent_state(scheme: CommitScheme, t: Transcript, hash_step=None) -> SupportState:
    """Brute-force support sets: every (b, x) consistent with transcript t
    and, given hash_step = (h0, h1, y), with h_b(x) = y as well."""
    s0, s1 = scheme.consistent_seeds(t, 0), scheme.consistent_seeds(t, 1)
    if hash_step is not None:
        h0, h1, y = hash_step
        s0, s1 = s0[h0.eval_many(s0) == y], s1[h1.eval_many(s1) == y]
    return SupportState(scheme.ell, s0, s1)


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


# hash measurement ------------------------------------------------------------

def hash_outcome_law(state: SupportState, h0: HashFn, h1: HashFn):
    """Exact law of y as (ys, counts, y0, y1).

    Pr[ys[i]] = counts[i] / |state| with counts[i] = |S0 n h0^-1(ys[i])|
    + |S1 n h1^-1(ys[i])|; y0 and y1 are the hashes of S0 and S1.
    """
    if state.size == 0:
        raise EmptyStateError("hash measurement on empty state")
    y0 = h0.eval_many(state.s0)
    y1 = h1.eval_many(state.s1)
    ys, counts = np.unique(np.concatenate((y0, y1)), return_counts=True)
    return ys, counts, y0, y1


def measure_hash(
    state: SupportState, h0: HashFn, h1: HashFn, rng: np.random.Generator
) -> tuple[int, SupportState]:
    ys, counts, y0, y1 = hash_outcome_law(state, h0, h1)
    y = int(ys[sample_index(counts, rng)])
    return y, SupportState(state.ell, state.s0[y0 == y], state.s1[y1 == y])


# challenge responses ----------------------------------------------------------

def answer_v0(state: SupportState, rng: np.random.Generator) -> tuple[int, int]:
    """Computational-basis measurement: uniform over the surviving branches."""
    if state.size == 0:
        raise EmptyStateError("measurement on empty state")
    idx = int(rng.integers(state.size))
    if idx < len(state.s0):
        return 0, int(state.s0[idx])
    return 1, int(state.s1[idx - len(state.s0)])


def d_outcome_law(state: SupportState, xi: int):
    """Exact law of the Hadamard-basis result d and the residual amplitudes.

    With a_c(d) = sum_{x in S0, xi.x=c} (-1)^(d.x)
                + sum_{x in S1, xi.x=c^1} (-1)^(d.x),
    Pr[d] = (a_0(d)^2 + a_1(d)^2) / (2^ell * |state|) and the residual
    qubit is (a_0(d), a_1(d)).  Computed with one integer Walsh-Hadamard
    transform of the two indicator rows; everything before the final
    normalization is exact integer arithmetic.  The tests' reference for
    hadamard_draws, so it builds its rows on its own.
    """
    if state.size == 0:
        raise EmptyStateError("measurement on empty state")
    check_ell(state.ell)
    indicator = np.zeros((2, 1 << state.ell), dtype=np.int8)
    indicator[parity_u32(xi & state.s0), state.s0] = 1
    indicator[parity_u32(xi & state.s1) ^ 1, state.s1] = 1
    a0, a1 = wht(indicator)
    probs = (a0 * a0 + a1 * a1) / ((1 << state.ell) * state.size)
    return probs, a0, a1


def hadamard_draws(ell: int, xs, seg, xis, us) -> np.ndarray:
    """The Hadamard-basis measurement of many states: (d, a_0(d), a_1(d)) each.

    Measurement w holds the seeds xs in segments 2w + b (branch b), with
    seg ascending.  Seed x of branch b is a 1 in row 2w + (xis[w].x ^ b)
    of a (2 len(xis), 2^ell) indicator matrix, and one WHT of it gives
    the amplitudes a_c(d) of every measurement; transforms run
    _BLOCK_BYTES >> (ell + 6) measurements at a time.  d is the least
    index whose cumulative weight a_0^2 + a_1^2 exceeds us[w], which is
    sample_index's rule for u drawn as integers(2^ell * |S_w|): the
    weights sum to 2^ell times the measurement's seeds.  Returns a
    (3, len(xis)) int64 array of d, a_0(d) and a_1(d).
    """
    xis, us = np.asarray(xis, dtype=np.int64), np.asarray(us, dtype=np.int64)
    rows = seg ^ parity_u32(xs & xis[seg >> 1])
    out = np.zeros((3, len(xis)), dtype=np.int64)
    step = max(1, _BLOCK_BYTES >> (ell + 6))
    for c in range(0, len(xis), step):
        part = slice(*np.searchsorted(seg, [2 * c, 2 * (c + step)]))
        at = np.arange(c, min(c + step, len(xis)))
        indicator = np.zeros((2 * len(at), 1 << ell), dtype=np.int8)
        indicator[rows[part] - 2 * c, xs[part]] = 1
        amps = wht(indicator).reshape(len(at), 2, 1 << ell)
        weights = amps[:, 0] * amps[:, 0]
        weights += amps[:, 1] * amps[:, 1]
        d = (np.cumsum(weights, axis=1, out=weights) <= us[at, None]).sum(axis=1)
        out[:, at] = d, amps[at - c, 0, d], amps[at - c, 1, d]
    return out


def residual_for_d(state: SupportState, xi: int, d: int) -> tuple[int, int]:
    """The residual amplitudes (a0(d), a1(d)) without a full transform."""
    a = [0, 0]
    for x in state.s0:
        a[dot2(xi, int(x))] += -1 if dot2(d, int(x)) else 1
    for x in state.s1:
        a[dot2(xi, int(x)) ^ 1] += -1 if dot2(d, int(x)) else 1
    return a[0], a[1]


def sample_d(
    state: SupportState, xi: int, rng: np.random.Generator
) -> tuple[int, tuple[int, int]]:
    """d and the residual amplitudes (a0(d), a1(d)) it leaves."""
    if state.size <= 2:
        # One or two support points: Pr[d] is uniform on the subcube where
        # the two amplitudes do not cancel, so rejection sampling is exact
        # and sidesteps the full 2^ell transform.
        if state.size == 0:
            raise EmptyStateError("measurement on empty state")
        while True:
            d = int(rng.integers(1 << state.ell))
            qubit = residual_for_d(state, xi, d)
            if qubit != (0, 0):
                return d, qubit
    u = rng.integers(state.size << state.ell)
    d, a0, a1 = hadamard_draws(state.ell, *state.segments(), [xi], [u])[:, 0].tolist()
    return d, (a0, a1)


def eta0_probs(a0, a1, v2):
    """Pr[eta = 0] for the pi/8-rotated measurement selected by v2 on the
    residual qubit (a0, a1), elementwise; int64 and float amplitudes give
    the same floats while a0^2 + a1^2 < 2^53."""
    amp = COS_PI8 * a0 + SIN_PI8 * (1 - 2 * v2) * a1
    return amp * amp / (a0 * a0 + a1 * a1)


def eta0_prob(qubit: tuple, v2: int) -> float:
    """eta0_probs on one residual qubit (a0, a1), which must not be zero."""
    a0, a1 = qubit
    if a0 == 0 and a1 == 0:
        raise EmptyStateError("rotated measurement on a zero vector")
    return eta0_probs(a0, a1, v2)


def measure_rotated(qubit: tuple, v2: int, rng: np.random.Generator) -> int:
    return 0 if rng.random() < eta0_prob(qubit, v2) else 1


# the honest prover as a protocol participant ----------------------------------

class HonestProver:
    """Session factory for the honest (quantum, exactly simulated) prover."""

    replayable = False

    def __init__(self, scheme: CommitScheme):
        self.scheme = scheme

    def new_session(self, rng: np.random.Generator) -> "HonestSession":
        return HonestSession(self.scheme, rng)

    def block_session(self, streams, rs: np.ndarray, tables: ClassRows):
        """verifier.run_block's replies, each row drawing as its HonestSession
        would, the work between draws once per block (the commit keys, the hash
        kernel and y law, d, eta); session i's S0, S1 are classes key, key ^ 1."""
        keys = self.scheme.commit_keys(tables, streams)
        firsts, lens = np.stack((tables.classes(keys), tables.classes(keys ^ 1)), axis=-1).reshape(2, -1)
        hashes = yield keys
        ys, xs, seg = _hash_step(streams, tables, firsts, lens, hashes)
        offsets = np.concatenate(([0], np.bincount(seg, minlength=len(lens)).cumsum()))
        sizes = offsets[2::2] - offsets[:-1:2]
        v1s, xis = yield ys
        v0_rows, v1_rows = np.flatnonzero(v1s == 0), np.flatnonzero(v1s)
        at = offsets[2 * v0_rows] + streams.integers(sizes[v0_rows], v0_rows)
        drawn = np.zeros((3, len(v1_rows)), dtype=np.int64)
        small = sizes[v1_rows] <= 2
        for part, draw_d in ((small, _d_by_rejection), (~small, _d_by_wht)):
            drawn[:, part] = draw_d(self.scheme.ell, streams, v1_rows[part], offsets, xs, seg, xis)
        ds, a0, a1 = drawn
        v2s = yield (at >= offsets[2 * v0_rows + 1], xs[at]), ds
        yield streams.random(v1_rows) >= eta0_probs(a0, a1, v2s)


class HonestSession:
    """One protocol run; the support-set state evolves with each message."""

    def __init__(self, scheme: CommitScheme, rng: np.random.Generator):
        self.scheme = scheme
        self.rng = rng
        self.state = SupportState.full(scheme.ell)
        self.qubit: tuple[int, int] | None = None

    def commit_message(self, j: int, prefix: Transcript) -> bytes:
        law = commit_alpha_law(self.scheme, self.state, j, prefix)
        idx = sample_index(law.counts, self.rng)
        self.state = SupportState(self.scheme.ell, *law.split(idx))
        return law.alpha(idx)

    def hash_response(self, t, h0, h1) -> int:
        y, self.state = measure_hash(self.state, h0, h1, self.rng)
        return y

    def v0_response(self, t, h0, h1, y, xi) -> tuple[int, int]:
        return answer_v0(self.state, self.rng)

    def d_response(self, t, h0, h1, y, xi) -> int:
        d, self.qubit = sample_d(self.state, xi, self.rng)
        return d

    def eta_response(self, t, h0, h1, y, xi, d, v2) -> int:
        return measure_rotated(self.qubit, v2, self.rng)


# the honest prover on a block of sessions -------------------------------------

def _hash_step(streams, tables: ClassRows, firsts, lens, hashes: HashColumns):
    """Every session's y and the support seeds that survive it.

    Seeds sit in segments 2i + b (session i, branch b), the lens[2i + b]
    seeds at firsts[2i + b] of the tables, hashed by member 2i + b.  y is
    the u-th smallest hash value of session i's seeds for its draw u,
    which is sample_index over np.unique's counts.  The kernel runs on
    tables.runs of whole sessions.  Returns (ys, seeds, segments) of the
    survivors, in segment order.
    """
    sizes = lens[0::2] + lens[1::2]
    us = streams.integers(sizes)
    shift = int(hashes.k.max()).bit_length()
    ys, kept_xs, kept_seg = [], [], []
    for a, b, xs, seg in tables.runs(firsts, lens, 2):
        hv = eval_segments(hashes.take(slice(a, b)), xs, lens[a:b])
        ranked = np.sort(((seg >> 1) << shift) | hv)
        part = sizes[a // 2 : b // 2]
        y = ranked[np.cumsum(part) - part + us[a // 2 : b // 2]] & ((1 << shift) - 1)
        kept = hv == y[(seg - a) >> 1]
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
