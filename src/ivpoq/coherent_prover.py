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
from .commitment import CommitRoundLaw, CommitScheme, Transcript
from .hashing import HashFn

COS_PI8 = np.cos(np.pi / 8)
SIN_PI8 = np.sin(np.pi / 8)
# Conditional acceptance of the honest prover on a two-singleton state:
# 1/2 * 1 + 1/2 * cos^2(pi/8).
HONEST_UNIQUE_RATE = 0.5 + 0.5 * COS_PI8**2


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


@lru_cache(maxsize=4)  # a process uses one or two lengths; each array is 8 * 2^ell bytes
def _all_seeds(ell: int) -> np.ndarray:
    xs = np.arange(1 << ell, dtype=np.int64)
    xs.setflags(write=False)
    return xs


@dataclass
class ResidualQubit:
    """Unnormalized real amplitudes (a0, a1) after the d-measurement."""

    a0: float
    a1: float

    @property
    def norm2(self) -> float:
        return self.a0 * self.a0 + self.a1 * self.a1


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
    transform of the two indicator rows (d_amplitudes); everything before
    the final normalization is exact integer arithmetic.
    """
    ((a0, a1),) = d_amplitudes(state, [xi])
    probs = (a0 * a0 + a1 * a1) / ((1 << state.ell) * state.size)
    return probs, a0, a1


def d_amplitudes(state: SupportState, xis) -> np.ndarray:
    """Integer amplitudes a_c(d) for every d, one (2, 2^ell) slice per xi.

    Row c of xi's slice indicates the seeds x of S0 with xi.x = c and of
    S1 with xi.x ^ 1 = c; one WHT over all 2 len(xis) rows gives the
    amplitudes, of shape (len(xis), 2, 2^ell).  A seed lies at most once
    in each branch and in different rows for the two, so each row is a
    0/1 indicator.
    """
    if state.size == 0:
        raise EmptyStateError("measurement on empty state")
    check_ell(state.ell)
    xis = np.asarray(xis, dtype=np.int64)
    seeds = np.concatenate((state.s0, state.s1))
    flip = np.repeat(np.array([0, 1], dtype=np.uint8), (len(state.s0), len(state.s1)))
    rows = 2 * np.arange(len(xis))[:, None] + (parity_u32(xis[:, None] & seeds) ^ flip)
    indicator = np.zeros((2 * len(xis), 1 << state.ell), dtype=np.int8)
    indicator[rows, seeds] = 1
    return wht(indicator).reshape(len(xis), 2, 1 << state.ell)


def residual_for_d(state: SupportState, xi: int, d: int) -> ResidualQubit:
    """The residual amplitudes (a0(d), a1(d)) without a full transform."""
    a = [0, 0]
    for x in state.s0:
        a[dot2(xi, int(x))] += -1 if dot2(d, int(x)) else 1
    for x in state.s1:
        a[dot2(xi, int(x)) ^ 1] += -1 if dot2(d, int(x)) else 1
    return ResidualQubit(float(a[0]), float(a[1]))


def sample_d(
    state: SupportState, xi: int, rng: np.random.Generator
) -> tuple[int, ResidualQubit]:
    if state.size <= 2:
        # One or two support points: Pr[d] is uniform on the subcube where
        # the two amplitudes do not cancel, so rejection sampling is exact
        # and sidesteps the full 2^ell transform.
        if state.size == 0:
            raise EmptyStateError("measurement on empty state")
        while True:
            d = int(rng.integers(1 << state.ell))
            qubit = residual_for_d(state, xi, d)
            if qubit.norm2 > 0:
                return d, qubit
    return draw_d(d_amplitudes(state, [xi])[0], rng)


def draw_d(amps: np.ndarray, rng: np.random.Generator) -> tuple[int, ResidualQubit]:
    """Draw d from one xi's (2, 2^ell) amplitudes, with weights a0^2 + a1^2.

    The weights sum to 2^ell |state| <= 2^49, exact in int64.
    """
    a0, a1 = amps
    d = sample_index(a0 * a0 + a1 * a1, rng)
    return d, ResidualQubit(float(a0[d]), float(a1[d]))


def eta0_probs(a0, a1, v2):
    """Pr[eta = 0] for the pi/8-rotated measurement selected by v2 on the
    residual qubit (a0, a1), elementwise; int64 and float amplitudes give
    the same floats while a0^2 + a1^2 < 2^53."""
    amp = COS_PI8 * a0 + SIN_PI8 * (1 - 2 * v2) * a1
    return amp * amp / (a0 * a0 + a1 * a1)


def eta0_prob(qubit: ResidualQubit, v2: int) -> float:
    """eta0_probs on one residual qubit, which must not be zero."""
    if qubit.norm2 <= 0.0:
        raise EmptyStateError("rotated measurement on a zero vector")
    return eta0_probs(qubit.a0, qubit.a1, v2)


def measure_rotated(qubit: ResidualQubit, v2: int, rng: np.random.Generator) -> int:
    return 0 if rng.random() < eta0_prob(qubit, v2) else 1


# the honest prover as a protocol participant ----------------------------------

class HonestProver:
    """Session factory for the honest (quantum, exactly simulated) prover."""

    replayable = False

    def __init__(self, scheme: CommitScheme):
        self.scheme = scheme

    def new_session(self, rng: np.random.Generator) -> "HonestSession":
        return HonestSession(self.scheme, rng)

    def session_from_prefix(self, prefix, rng: np.random.Generator) -> "HonestSession":
        """Rebuild the post-y state of a session with the given prefix.

        Diagnostic path for conditional-acceptance estimates: the state
        is recomputed by brute force from (t, h0, h1, y).
        """
        session = HonestSession(self.scheme, rng)
        session.state = consistent_state(self.scheme, prefix[0], prefix[1:])
        return session


class HonestSession:
    """One protocol run; the support-set state evolves with each message."""

    def __init__(self, scheme: CommitScheme, rng: np.random.Generator):
        self.scheme = scheme
        self.rng = rng
        self.state = SupportState.full(scheme.ell)
        self.qubit: ResidualQubit | None = None

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
