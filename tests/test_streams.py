"""SessionStreams against numpy's default_rng([seed, i]), draw for draw.

Each test runs one draw program on both: a list of steps, each one
integers(n), random() or bytes(m) for a subset of the sessions, so the
streams advance unevenly and the persistent next32 buffer is left full
in some sessions and empty in others.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ivpoq
from ivpoq import streams as streams_mod
from ivpoq.streams import SessionStreams

# Every integers path: no draw (1), Lemire on next32 (2, 3, 2^32 - 1, and
# 3 2^30 + 5, where it rejects a quarter of the draws), a plain next32
# (2^32) and Lemire on next64 (the rest).
BOUNDS = [1, 2, 3, 3 * 2**30 + 5, 2**32 - 1, 2**32, 2**32 + 1, 2**61 - 1, 2**63]
# Entropy [seed, i] of two words, of three (seed >= 2^32), and of five,
# beyond SeedSequence's pool of four.
SEEDS = [0, 12345, 2**32 + 7, 2**96 + 2**64 + 11]
SESSIONS = 6


def _reference(rngs, step):
    kind, arg, rows = step
    if kind == "integers":
        return [int(rngs[r].integers(n)) for r, n in zip(rows, arg)]
    if kind == "random":
        return [rngs[r].random() for r in rows]
    return [rngs[r].bytes(arg) for r in rows]


def _streams(streams, step):
    kind, arg, rows = step
    if kind == "integers":
        return streams.integers(arg, rows).tolist()
    if kind == "random":
        return streams.random(rows).tolist()
    return streams.bytes(arg, rows)


def _run(seed, lo, program):
    """program on SessionStreams(seed, lo, ...) and on default_rng([seed, i]),
    or default_rng([*seed, i]) for a tuple seed, step by step."""
    streams = SessionStreams(seed, lo, lo + SESSIONS)
    prefix = seed if isinstance(seed, tuple) else (seed,)
    rngs = [np.random.default_rng([*prefix, i]) for i in range(lo, lo + SESSIONS)]
    for step in program:
        assert _streams(streams, step) == _reference(rngs, step), step


def _steps():
    rows = st.lists(st.integers(0, SESSIONS - 1), unique=True).map(sorted)

    def integers(rows):
        return st.lists(
            st.sampled_from(BOUNDS), min_size=len(rows), max_size=len(rows)
        ).map(lambda ns: ("integers", ns, rows))

    return st.one_of(
        rows.flatmap(integers),
        rows.map(lambda rows: ("random", None, rows)),
        st.tuples(st.just("bytes"), st.integers(1, 16), rows),
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.sampled_from(SEEDS),
    lo=st.sampled_from([0, 5, 2**32 - 3]),
    program=st.lists(_steps(), min_size=1, max_size=25),
)
def test_streams_match_default_rng(seed, lo, program):
    # lo = 2^32 - 3 spans sessions of one and of two entropy words.
    _run(seed, lo, program)


# Entropy words of one 32-bit word or of several.
_WORDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**100))


@settings(max_examples=40, deadline=None)
@given(
    seed=_WORDS,
    i=_WORDS,
    lo=st.sampled_from([0, 5, 2**32 - 3]),
    program=st.lists(_steps(), min_size=1, max_size=12),
)
def test_tuple_seed_is_an_entropy_prefix(seed, i, lo, program):
    # SessionStreams((seed, i), lo, hi) row j - lo is default_rng([seed, i, j]).
    _run((seed, i), lo, program)


@pytest.mark.parametrize("seed", SEEDS)
def test_full_word_bound_reads_the_next32_buffer(seed):
    # n = 2^32 is one plain next32, from the buffer when it is full.
    every = list(range(SESSIONS))
    program = [
        ("integers", [3] * SESSIONS, every),
        ("integers", [2**32] * SESSIONS, every),
        ("integers", [2**32] * SESSIONS, every),
        ("integers", [2**32, 2**32], [1, 4]),
        ("random", None, every),
        ("integers", [2**32, 3, 2**32, 2**61 - 1, 2**32, 1], every),
        ("bytes", 12, every),
        ("integers", [2**32] * SESSIONS, every),
    ]
    _run(seed, 9, program)


def test_one_bound_for_all_rows():
    streams = SessionStreams(3, 10, 20)
    rngs = [np.random.default_rng([3, i]) for i in range(10, 20)]
    for n in BOUNDS:
        assert streams.integers(n).tolist() == [int(rng.integers(n)) for rng in rngs]


@pytest.mark.parametrize("n", BOUNDS)
@pytest.mark.parametrize("kind", [int, np.uint64])
def test_one_bound_draws_as_the_same_bound_per_row(n, kind):
    # A single bound draws in its one regime; it must give the values and
    # leave the stream states that the bound repeated per row does, on all
    # rows and on subsets that leave the next32 buffer full in some rows.
    one, per_row = SessionStreams(4, 0, SESSIONS), SessionStreams(4, 0, SESSIONS)
    for rows in (None, [1, 2, 5], [0, 5], None, []):
        count = SESSIONS if rows is None else len(rows)
        assert one.integers(kind(n), rows).tolist() == per_row.integers([n] * count, rows).tolist()
        for state in ("_hi", "_lo", "_buf"):
            assert (getattr(one, state) == getattr(per_row, state)).all(), (rows, state)


def test_zero_bound_raises_like_default_rng():
    with pytest.raises(ValueError) as want:
        np.random.default_rng(0).integers(0)
    with pytest.raises(ValueError) as got:
        SessionStreams(0, 0, 4).integers(0)
    assert str(got.value) == str(want.value)


def test_negative_seed_raises_like_default_rng():
    with pytest.raises(ValueError) as want:
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError) as got:
        SessionStreams(-1, 0, 4)
    assert str(got.value) == str(want.value)


def test_probe_mismatch_names_the_numpy_version(monkeypatch):
    # A different LCG multiplier stands in for a numpy whose PCG64 changed.
    monkeypatch.setattr(streams_mod, "_MUL_LO", streams_mod._MUL_LO ^ np.uint64(2))
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
        streams_mod._check_numpy.__wrapped__()


def test_probe_does_not_run_at_import():
    code = "import ivpoq, ivpoq.streams as s; print(s._check_numpy.cache_info().misses)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ivpoq.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "0"
