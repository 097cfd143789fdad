"""Joint (y, d, eta) law assembled from the sparse engine's law functions.

The comparison partner of dense_oracle.dense_challenge_law.
"""

from __future__ import annotations

import numpy as np

from ivpoq.coherent_prover import (
    SupportState,
    d_outcome_law,
    eta0_prob,
    hash_outcome_law,
)

from builders import support_state


def sparse_challenge_law(ell, s0, s1, h0, h1, xi, v2):
    state = support_state(ell, s0, s1)
    ys, ycounts, y0, y1 = hash_outcome_law(state, h0, h1)
    law = {}
    for y, py in zip(ys, ycounts / state.size):
        post = SupportState(ell, state.s0[y0 == y], state.s1[y1 == y])
        dprobs, a0, a1 = d_outcome_law(post, xi)
        for d in np.flatnonzero(dprobs > 1e-18):
            p0 = eta0_prob((float(a0[d]), float(a1[d])), v2)
            law[(int(y), int(d), 0)] = py * dprobs[d] * p0
            law[(int(y), int(d), 1)] = py * dprobs[d] * (1 - p0)
    return law
