"""Small fixtures the tests share: a support state from any seed collections,
the identity hash, hash columns and a session block from records, the round
law by interning every branch's message, the seed sets R_t and X_{b,t} by
replaying the message functions, the acceptance rate of a prover resumed
on a fixed prefix, and a row prover scripted by callables, the classical
baseline's row form among them."""

from typing import Callable

import numpy as np

from ivpoq.adversaries import _ReplayableProver
from ivpoq.bits import dot2
from ivpoq.coherent_prover import HonestSession, SupportState, consistent_state
from ivpoq.commitment import CommitRoundLaw, CommitScheme
from ivpoq.hashing import P, HashColumns, HashFn
from ivpoq.verifier import _COLUMNS, SessionBlock, run_challenge, v2_decide


def support_state(ell, s0, s1) -> SupportState:
    """The state on the seeds of s0 and s1, each sorted into int64."""
    return SupportState(
        ell,
        np.array(sorted(int(x) for x in s0), dtype=np.int64),
        np.array(sorted(int(x) for x in s1), dtype=np.int64),
    )


def identity_hash(ell: int) -> HashFn:
    """The member x -> x of affine-mod-prime with k = 2^ell."""
    return HashFn(ell=ell, k=1 << ell, a=1, b=0, p=P)


def hash_columns(members) -> HashColumns:
    """The uint64 columns (a, b, k) of a list of HashFn members mod P."""
    assert all(h.p == P for h in members)
    return HashColumns(*(np.array([getattr(h, name) for h in members], np.uint64) for name in "abk"))


def from_records(scheme, records) -> SessionBlock:
    """The block of SessionRecords (their verdicts dropped); each transcript
    is parsed once, raising ValueError where consistent_seeds would, and one
    that no seed replays becomes key -1."""
    cols = {name: np.array([getattr(rec, name) or 0 for rec in records], dtype=np.int64)
            for name in _COLUMNS}
    parsed = np.array([scheme.transcript_key(rec.t) for rec in records], dtype=np.int64)
    cols["r"], cols["key"] = parsed.reshape(-1, 2).T
    return SessionBlock(scheme, hash_columns([h for rec in records for h in (rec.h0, rec.h1)]), cols)


def interned_law(scheme, j, xs0, xs1, prefix) -> CommitRoundLaw:
    """The exact law of the round-j message over (xs0, xs1) by calling f_j
    on every branch and interning the messages as integer keys, in the
    order they are first sent: the reference for alpha_partition."""
    table: dict[bytes, int] = {}
    inv: list[bytes] = []

    def intern(b, xs):
        keys = np.empty(len(xs), dtype=np.int64)
        for i, x in enumerate(xs):
            msg = scheme.sender_msg(j, b, int(x), prefix)
            key = table.get(msg)
            if key is None:
                key = table[msg] = len(inv)
                inv.append(msg)
            keys[i] = key
        return keys

    keys0, keys1 = intern(0, xs0), intern(1, xs1)
    both = np.bincount(keys0, minlength=len(inv)) + np.bincount(keys1, minlength=len(inv))
    alive = np.flatnonzero(both)
    return CommitRoundLaw(
        alive, both[alive], inv.__getitem__, lambda key: (xs0[keys0 == key], xs1[keys1 == key])
    )


def receiver_seeds(scheme, t) -> list[int]:
    """R_t by brute force: the receiver seeds r whose receiver_msg replays
    every beta_j of t."""
    rounds = range(1, scheme.rounds + 1)
    return [
        r for r in range(1 << scheme.ell)
        if all(scheme.receiver_msg(j, r, t[: 2 * j - 1]) == t[2 * j - 1] for j in rounds)
    ]


def replayed_seeds(scheme, t, b) -> list[int]:
    """X_{b,t} by brute force: the seeds x that open_verify(t, b, x) accepts,
    or none when no receiver seed sends t's receiver messages.  Raises
    ValueError where open_verify or the receiver replay does."""
    xs = [x for x in range(1 << scheme.ell) if scheme.open_verify(t, b, x)]
    return xs if receiver_seeds(scheme, t) else []


def honest_resume(scheme):
    """Resume the honest prover after y on a prefix (t, h0, h1, y): a
    HonestSession whose state is rebuilt by brute force."""

    def resume(prefix, rng):
        session = HonestSession(scheme, rng)
        session.state = consistent_state(scheme, prefix[0], prefix[1:])
        return session

    return resume


def conditional_acceptance(params, prefix, resume, trials, rng) -> float:
    """Monte-Carlo Pr[V2 accepts | fixed (t, h0, h1, y)]: fresh (v1, xi, v2,
    coin) a trial, answered by the session resume(prefix, rng) returns, and
    decided record by record by v2_decide."""
    records = (run_challenge(params, resume(prefix, rng), prefix, 0, rng) for _ in range(trials))
    return sum(v2_decide(params, record)[0] for record in records) / trials


class ScriptedProver(_ReplayableProver):
    """Test double whose responses come from fixed callables.

    Any callable may return None to model an aborting prover; the
    session driver surfaces that as a protocol violation, which the
    binding attack reports as failure.
    """

    def __init__(
        self,
        scheme: CommitScheme,
        commit: Callable | None = None,
        y_fn: Callable | None = None,
        v0_fn: Callable | None = None,
        d_fn: Callable | None = None,
        eta_fn: Callable | None = None,
    ):
        self.scheme = scheme
        self._commit = commit or (lambda j, prefix: scheme.sender_msg(j, 0, 0, prefix))
        self._y = y_fn or (lambda t, h0, h1: 0)
        self._v0 = v0_fn or (lambda t, h0, h1, y, xi: (0, 0))
        self._d = d_fn or (lambda t, h0, h1, y, xi: 0)
        self._eta = eta_fn or (lambda t, h0, h1, y, xi, d, v2: 0)

    def new_session(self, rng):
        return self

    def commit_message(self, j, prefix):
        return self._commit(j, prefix)

    def hash_response(self, t, h0, h1):
        return self._y(t, h0, h1)

    def v0_response(self, t, h0, h1, y, xi):
        return self._v0(t, h0, h1, y, xi)

    def d_response(self, t, h0, h1, y, xi):
        return self._d(t, h0, h1, y, xi)

    def eta_response(self, t, h0, h1, y, xi, d, v2):
        return self._eta(t, h0, h1, y, xi, d, v2)


def classical_rows(scheme, b: int, x: int) -> ScriptedProver:
    """ClassicalHonestProver(scheme, b, x) as row answers, the reference its
    columns must equal: commit to (b, x), y = h_b(x), then (b, x), d = 0 and
    eta = xi.x."""
    return ScriptedProver(
        scheme,
        commit=lambda j, prefix: scheme.sender_msg(j, b, x, prefix),
        y_fn=lambda t, h0, h1: (h1 if b else h0).eval(x),
        v0_fn=lambda t, h0, h1, y, xi: (b, x),
        d_fn=lambda t, h0, h1, y, xi: 0,
        eta_fn=lambda t, h0, h1, y, xi, d, v2: dot2(xi, x),
    )
