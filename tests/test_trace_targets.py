"""The benchmark's span wrappers still find every name they patch.

perfbench/tracing.py swaps named ivpoq functions and methods for timed
wrappers and stops with an error when one is missing; entering and
leaving its patch block here makes a rename fail the unit tests too.
"""

import os
import sys

from ivpoq import adversaries, coherent_prover, verifier
from ivpoq.commitment import Hm2Scheme

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import tracing  # noqa: E402


def _targets():
    return (
        verifier.sample_hash,
        adversaries.sample_hash,
        verifier.ProtocolParams.best_grid_index,
        coherent_prover.sample_d,
        Hm2Scheme.alpha_partition,
    )


def test_every_traced_name_exists_and_is_restored():
    before = _targets()
    with tracing.instrumented(tracing.Tracer(), Hm2Scheme):
        assert all(a is not b for a, b in zip(_targets(), before))
    assert _targets() == before
