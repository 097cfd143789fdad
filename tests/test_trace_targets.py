"""The benchmark's span wrappers still find and fire every name they patch.

perfbench/tracing.py swaps named ivpoq functions and methods for timed
wrappers and stops with an error when one is missing; entering and
leaving its patch block here makes a rename fail the unit tests too, and
a traced toy replay checks that the layers the benchmark smoke requires
are still called.
"""

import importlib
import os
import sys

import pytest

from ivpoq import adversaries, coherent_prover, verifier
from ivpoq.commitment import Hm2Scheme

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

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


@pytest.fixture(scope="module")
def workload():
    # perfbench/workload.py imports ivpoq from <cwd>/src and refuses any other copy.
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return importlib.import_module("workload")
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", ["honest-l12-cold", "honest-l8-uniform", "bind-const-l5"])
def test_smoke_layers_fire_on_a_toy_replay(workload, name):
    # The traced toy replay of perfbench/smoke.py, run in this process: a
    # few hm2 oracle-grid or uniform-grid sessions, or one const binding
    # attack.  A layer in smoke.NONZERO that stops being called fails here.
    import smoke
    import workloads

    w = workloads.WORKLOADS[name]
    run = workload.trace_honest if w.kind == "honest" else workload.trace_bind
    out = run(w, workloads.DEFAULT_SEED, True, tracing.Tracer())
    replays = [g for g in out["gates"] if g["name"].startswith("trace_reproduces_")]
    assert replays and all(g["ok"] for g in replays)
    assert [m for m in smoke.NONZERO[name] if not out["metrics"][m][0]] == []
