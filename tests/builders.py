"""Small fixtures the tests share: a support state from any seed collections,
the identity hash and X_{b,t} by brute-force replay."""

import numpy as np

from ivpoq.coherent_prover import SupportState
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


def replayed_seeds(scheme, t, b) -> list[int]:
    """X_{b,t} by brute force: the seeds x that open_verify(t, b, x) accepts,
    or none when no receiver seed sends t's receiver messages.  Raises
    ValueError where open_verify or receiver_mask does."""
    xs = [x for x in range(1 << scheme.ell) if scheme.open_verify(t, b, x)]
    return xs if scheme.receiver_mask(t).any() else []
