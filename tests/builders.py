"""Small fixtures the tests share: a support state from any seed collections,
the identity hash and the round law by interning every branch's message."""

import numpy as np

from ivpoq.coherent_prover import SupportState
from ivpoq.commitment import CommitRoundLaw
from ivpoq.hashing import HashFn


def support_state(ell, s0, s1) -> SupportState:
    """The state on the seeds of s0 and s1, each sorted into int64."""
    return SupportState(
        ell,
        np.array(sorted(int(x) for x in s0), dtype=np.int64),
        np.array(sorted(int(x) for x in s1), dtype=np.int64),
    )


def identity_hash(ell: int) -> HashFn:
    """The member x -> x of affine-mod-prime with k = 2^ell."""
    return HashFn(ell=ell, k=1 << ell, a=1, b=0, p=(1 << 61) - 1)


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
