"""Small fixtures the tests share: a support state from any seed collections,
the identity hash, hash columns and a session block from records, the round
law by interning every branch's message, the seed sets R_t and X_{b,t} by
replaying the message functions, and the acceptance rate of a prover resumed
on a fixed prefix."""

import numpy as np

from ivpoq.coherent_prover import HonestSession, SupportState, consistent_state
from ivpoq.commitment import CommitRoundLaw
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
