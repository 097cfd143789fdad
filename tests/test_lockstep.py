"""Lockstep blocks against the one-session reference.

run_block advances a prover's sessions in lockstep, each on its own
default_rng([seed, i]) stream, and returns them as a SessionBlock of
columns; every record built from the columns must equal run_session's on
that stream, field for field, and decide_block must give v2_decide's
verdict.  The honest cases cover hm2 on both grids at three lengths,
const and ident, and their seeds reach both challenge branches and,
where the scheme allows it, both ways of drawing d; every other prover
answers through its scalar methods, row by row.
"""

import dataclasses
import json
import tracemalloc
from collections import Counter
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivpoq.adversaries import ClassicalHonestProver, ScriptedProver, UnboundedClawProver
from ivpoq import coherent_prover, commitment, hashing, verifier
from ivpoq.coherent_prover import HonestProver, consistent_state
from ivpoq.commitment import make_scheme
from ivpoq.verifier import (
    GRID_ORACLE,
    GRID_UNIFORM,
    REASON_COIN,
    REASON_PASS,
    STREAM_SESSIONS,
    ProtocolParams,
    ProtocolViolation,
    decide_block,
    estimate_acceptance,
    run_block,
    run_session,
    v2_decide,
)

from builders import from_records, replayed_seeds


def _params(name, ell, kwargs, grid):
    sch = make_scheme(name, ell, **kwargs)
    return ProtocolParams(scheme=sch, epsilon=0.01 if ell >= 8 else 0.2, grid_mode=grid)


def _challenge_path(params, record):
    """v0, or how d was drawn: by WHT above two support points, else by rejection."""
    if record.v1 == 0:
        return "v0"
    state = consistent_state(params.scheme, record.t, (record.h0, record.h1, record.y))
    return "wht" if state.size > 2 else "rejection"


CASES = [
    ("hm2", 6, {"a": 3}, GRID_UNIFORM, 120),
    ("hm2", 6, {"a": 3}, GRID_ORACLE, 120),
    ("hm2", 8, {"a": 4}, GRID_UNIFORM, 200),
    ("hm2", 8, {"a": 4}, GRID_ORACLE, 200),
    ("hm2", 12, {"a": 8}, GRID_UNIFORM, 60),
    ("hm2", 12, {"a": 8}, GRID_ORACLE, 60),
    ("const", 5, {}, GRID_UNIFORM, 120),
    ("const", 5, {}, GRID_ORACLE, 120),
    ("ident", 5, {}, GRID_UNIFORM, 80),
]


@pytest.mark.parametrize("name,ell,kwargs,grid,sessions", CASES)
def test_block_records_equal_run_session(name, ell, kwargs, grid, sessions):
    params = _params(name, ell, kwargs, grid)
    seed, lo = 40 + ell, 7
    # Two blocks with uneven bounds: records depend on i alone, not on the block.
    cut = lo + sessions // 3
    blocks = [run_block(params, HonestProver(params.scheme), seed, lo, cut), run_block(params, HonestProver(params.scheme), seed, cut, lo + sessions)]
    records = [record for block in blocks for record in block.records()]
    verdicts = [verdict for block in blocks for verdict in decide_block(params, block)]
    prover = HonestProver(params.scheme)
    paths = set()
    for i, (record, verdict) in enumerate(zip(records, verdicts), start=lo):
        want = run_session(params, prover, np.random.default_rng([seed, i]))
        assert record == want, i
        assert record.to_json_dict() == want.to_json_dict()
        assert verdict == v2_decide(params, want)
        paths.add(_challenge_path(params, want))
    # ident's support after the hash step is one seed, so d is never drawn by WHT.
    assert paths == ({"v0", "rejection"} if name == "ident" else {"v0", "wht", "rejection"})


def _assert_records_equal_run_session(params, seed, lo, records, prover=None):
    prover = prover or HonestProver(params.scheme)
    for i, record in enumerate(records, start=lo):
        assert record == run_session(params, prover, np.random.default_rng([seed, i])), i


def _scalar_verdicts(params, prover, trials, seed):
    """v2_decide over run_session's records on the streams [seed, i]."""
    rngs = (np.random.default_rng([seed, i]) for i in range(trials))
    return Counter(v2_decide(params, run_session(params, prover, rng)) for rng in rngs)


def _assert_report_counts(report, verdicts):
    """Every count an AcceptanceReport derives from its verdicts equals verdicts'."""
    assert report.trials == sum(verdicts.values())
    assert report.by_reason == {
        reason: verdicts[True, reason] + verdicts[False, reason] for reason in report.by_reason
    }
    assert report.unique_accepts == verdicts[True, REASON_PASS]
    assert report.nonunique_accepts == verdicts[True, REASON_COIN]
    assert report.accepts == sum(n for (ok, _), n in verdicts.items() if ok)


def test_block_with_a_seed_of_two_words():
    # A seed >= 2^32 is two entropy words of [seed, i].
    params = _params("hm2", 6, {"a": 3}, GRID_ORACLE)
    seed = (1 << 40) + 3
    _assert_records_equal_run_session(params, seed, 5, run_block(params, HonestProver(params.scheme), seed, 5, 125).records())


def test_blocks_across_a_stream_width_boundary():
    params = _params("hm2", 6, {"a": 3}, GRID_UNIFORM)
    w = STREAM_SESSIONS
    records = [*run_block(params, HonestProver(params.scheme), 3, w - 45, w + 2).records(), *run_block(params, HonestProver(params.scheme), 3, w + 2, w + 61).records()]
    _assert_records_equal_run_session(params, 3, w - 45, records)
    # estimate_acceptance cuts its blocks at multiples of the stream width.
    engine = estimate_acceptance(params, HonestProver(params.scheme), w + 37, seed=3)
    _assert_report_counts(engine, _scalar_verdicts(params, HonestProver(params.scheme), w + 37, 3))


def test_const_l12_full_width_runs_the_chunked_steps(monkeypatch):
    # const keeps all 2^12 seeds on both branches, so a full stream width
    # needs many hash-kernel chunks of _BLOCK_BYTES >> 8 seeds and many WHT
    # chunks of _BLOCK_BYTES >> 18 sessions.
    params = _params("const", 12, {}, GRID_ORACLE)
    calls = Counter()
    for module, name in ((coherent_prover, "eval_segments"), (coherent_prover, "wht")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    records = run_block(params, HonestProver(params.scheme), 8, 0, STREAM_SESSIONS).records()
    monkeypatch.undo()
    assert calls["eval_segments"] > 1 and calls["wht"] > 1, calls
    _assert_records_equal_run_session(params, 8, 0, records)


@pytest.mark.parametrize(
    "name,ell,kwargs,grid,trials",
    [
        ("hm2", 8, {"a": 4}, GRID_UNIFORM, STREAM_SESSIONS + 37),
        ("hm2", 12, {"a": 8}, GRID_ORACLE, STREAM_SESSIONS + 5),
        ("const", 5, {}, GRID_UNIFORM, STREAM_SESSIONS + 300),
    ],
)
def test_estimate_acceptance_engine_matches_scalar_loop(name, ell, kwargs, grid, trials):
    # Two blocks, the last one short, each tallied in several runs of seeds,
    # against v2_decide over run_session's records.
    params = _params(name, ell, kwargs, grid)
    engine = estimate_acceptance(params, HonestProver(params.scheme), trials, seed=17)
    _assert_report_counts(engine, _scalar_verdicts(params, HonestProver(params.scheme), trials, 17))
    assert engine.unique_trials > 0



def test_blocks_no_larger_than_a_four_table_slab(monkeypatch):
    # hm2 at ell=9 with room for four tables: a block of 40 sessions names
    # about 40 receiver seeds and is refused, so estimates cut blocks of
    # four sessions, whose records equal run_session's.
    monkeypatch.setattr(commitment, "_CACHE_BYTES", 0)
    params = _params("hm2", 9, {"a": 4}, GRID_ORACLE)
    sch = params.scheme
    assert sch.capacity == verifier.block_size(sch) == 4
    with pytest.raises(RuntimeError, match="more than 4 receiver seeds"):
        run_block(params, HonestProver(params.scheme), 11, 0, 40)
    records = [rec for lo in range(0, 40, 4) for rec in run_block(params, HonestProver(params.scheme), 11, lo, lo + 4).records()]
    assert len({rec.t[1] for rec in records}) > 4
    _assert_records_equal_run_session(params, 11, 0, records)
    engine = estimate_acceptance(params, HonestProver(sch), 40, seed=11)
    _assert_report_counts(engine, Counter(v2_decide(params, rec) for rec in records))


@pytest.mark.parametrize("name", ["const", "ident"])
def test_honest_estimate_reads_every_x_bt_from_the_class_table(name, monkeypatch):
    # The engine's commit and V2's counts take X_{b,t} as classes of the
    # scheme's table for every scheme, so neither calls consistent_seeds
    # or consistent_mask; the scalar loop, which does, gives the same counts.
    params = _params(name, 5, {}, GRID_ORACLE)
    want = _scalar_verdicts(params, HonestProver(params.scheme), STREAM_SESSIONS + 40, 13)

    def refuse(*args):
        raise AssertionError("X_{b,t} read outside the class table")

    for attr in ("consistent_seeds", "consistent_mask"):
        monkeypatch.setattr(params.scheme, attr, refuse)
    got = estimate_acceptance(params, HonestProver(params.scheme), STREAM_SESSIONS + 40, seed=13)
    _assert_report_counts(got, want)


PROVERS = {
    "classical-honest": lambda sch: ClassicalHonestProver(sch, 0, 21),
    "unbounded-claw": lambda sch: UnboundedClawProver(sch, b"\x03"),
}


@pytest.mark.parametrize("prover", sorted(PROVERS))
@pytest.mark.parametrize(
    "name,ell,kwargs", [("hm2", 6, {"a": 3}), ("const", 5, {}), ("ident", 5, {})]
)
def test_estimate_acceptance_matches_v2_decide_tally(prover, name, ell, kwargs):
    # Every prover's records are decided a block at a time by decide_block;
    # the tally must equal v2_decide's over the same sessions, in two blocks.
    params = _params(name, ell, kwargs, GRID_ORACLE)
    cheater = PROVERS[prover](params.scheme)
    trials = STREAM_SESSIONS + 40
    report = estimate_acceptance(params, cheater, trials, seed=29)
    _assert_report_counts(report, _scalar_verdicts(params, cheater, trials, 29))


def _scripted(sch):
    """A scripted prover whose in-range answers vary with the challenge."""
    low = (1 << sch.ell) - 1
    return ScriptedProver(
        sch,
        y_fn=lambda t, h0, h1: h0.eval(5),
        v0_fn=lambda t, h0, h1, y, xi: (xi & 1, xi ^ (y & low)),
        d_fn=lambda t, h0, h1, y, xi: xi ^ (y & low),
        eta_fn=lambda t, h0, h1, y, xi, d, v2: (xi ^ d ^ v2) & 1,
    )


ALL_PROVERS = {**PROVERS, "honest": HonestProver, "scripted": _scripted}


@pytest.mark.parametrize("prover", sorted(ALL_PROVERS))
@pytest.mark.parametrize("grid", [GRID_UNIFORM, GRID_ORACLE])
@pytest.mark.parametrize(
    "name,ell,kwargs", [("hm2", 6, {"a": 3}), ("const", 5, {}), ("ident", 5, {})]
)
def test_every_prover_block_records_equal_run_session(prover, grid, name, ell, kwargs):
    # run_block is V1 alone: the honest prover answers a block in columns,
    # the replayable provers through their scalar methods row by row, and
    # either way the records equal run_session's, in two uneven blocks.
    params = _params(name, ell, kwargs, grid)
    player = ALL_PROVERS[prover](params.scheme)
    blocks = [run_block(params, player, 41, 3, 30), run_block(params, player, 41, 30, 90)]
    records = [record for block in blocks for record in block.records()]
    assert {record.v1 for record in records} == {0, 1}
    _assert_records_equal_run_session(params, 41, 3, records, player)
    verdicts = [verdict for block in blocks for verdict in decide_block(params, block)]
    assert verdicts == [v2_decide(params, record) for record in records]


# A keyed-round message that no seed sends at ell=6 (const: its one round).
_UNREPLAYABLE = {"hm2": b"\xff\xff\xff", "ident": b"\x02\x00", "const": b"x"}


@pytest.mark.parametrize("grid", [GRID_UNIFORM, GRID_ORACLE])
@pytest.mark.parametrize("name,kwargs", [("hm2", {"a": 3}), ("const", {}), ("ident", {})])
def test_unreplayable_commit_through_the_block_path(name, kwargs, grid):
    # The row adapter yields key -1 for every session.  X_{0,t} is empty, so
    # the oracle grid falls back to the uniform draw as run_preamble does,
    # and V2 decides every session by its coin; in two blocks.
    params = _params(name, 6, kwargs, grid)
    sch, trials = params.scheme, STREAM_SESSIONS + 76
    prover = ScriptedProver(
        sch,
        commit=lambda j, prefix: _UNREPLAYABLE[name] if j == sch.rounds else sch.sender_msg(j, 0, 0, prefix),
    )
    records = [run_session(params, prover, np.random.default_rng([23, i])) for i in range(trials)]
    want = Counter(v2_decide(params, record) for record in records)
    assert {reason for _, reason in want} == {REASON_COIN}
    _assert_report_counts(estimate_acceptance(params, prover, trials, seed=23), want)
    blocks = [run_block(params, prover, 23, lo, min(lo + STREAM_SESSIONS, trials))
              for lo in range(0, trials, STREAM_SESSIONS)]
    assert all((block.cols["key"] == -1).all() for block in blocks)
    js = [j for block in blocks for j in block.cols["j"].tolist()]
    assert js == [record.j for record in records]
    assert len(set(js)) > 1


# A malformed reply of each kind a ScriptedProver can give (at ell=6), and
# the ProtocolViolation message run_session raises for it.
_MALFORMED = {
    "alpha": ({"commit": lambda j, prefix: "not bytes"}, "sender message must be bytes"),
    "y": ({"y_fn": lambda t, h0, h1: h0.k}, "y out of range"),
    "bprime": ({"v0_fn": lambda t, h0, h1, y, xi: (2, 0)}, "b' out of range"),
    "xprime": ({"v0_fn": lambda t, h0, h1, y, xi: (0, 1 << 6)}, "x' out of range"),
    "d": ({"d_fn": lambda t, h0, h1, y, xi: 1 << 6}, "d out of range"),
    "eta": ({"eta_fn": lambda t, h0, h1, y, xi, d, v2: 2}, "eta out of range"),
}


@pytest.mark.parametrize("fault", sorted(_MALFORMED))
@pytest.mark.parametrize("name,kwargs", [("hm2", {"a": 3}), ("const", {}), ("ident", {})])
def test_malformed_scripted_reply_raises_as_run_session_does(fault, name, kwargs):
    params = _params(name, 6, kwargs, GRID_ORACLE)
    script, message = _MALFORMED[fault]
    prover = ScriptedProver(params.scheme, **script)
    with pytest.raises(ProtocolViolation) as scalar:
        for i in range(40):
            run_session(params, prover, np.random.default_rng([7, i]))
    with pytest.raises(ProtocolViolation) as block:
        estimate_acceptance(params, prover, 40, seed=7)
    assert str(block.value) == str(scalar.value) == message


@pytest.mark.parametrize("prover", sorted(PROVERS))
def test_cheater_estimates_do_not_depend_on_workers(prover):
    params = _params("hm2", 6, {"a": 3}, GRID_ORACLE)
    cheater = PROVERS[prover](params.scheme)
    one = estimate_acceptance(params, cheater, 300, seed=5, workers=1)
    two = estimate_acceptance(params, cheater, 300, seed=5, workers=2)
    # As JSON, the form the CLI prints.
    assert json.dumps(one.to_json_dict()) == json.dumps(two.to_json_dict())


@pytest.mark.parametrize("ell", [12, 13])
def test_v2_counts_split_by_the_seed_budget(ell, monkeypatch):
    # const keeps X_{b,t} whole: at ell=12 each record's 2^12 seeds fill the
    # hash step's budget of _BLOCK_BYTES >> 8 seeds, at ell=13 they exceed
    # it, so V2 counts every record in a run of its own.  It builds each
    # run's sets in turn, so it holds one record's seeds (64 KB at ell=13),
    # not the block's 64 MB.
    assert verifier._BLOCK_BYTES >> 8 == 1 << 12
    params = _params("const", ell, {}, GRID_ORACLE)
    block = run_block(params, HonestProver(params.scheme), 5, 0, STREAM_SESSIONS)
    records = block.records()
    want = [v2_decide(params, record) for record in records]
    calls = Counter()

    def counted(hashes, xs, lens, _real=verifier.eval_segments):
        calls[len(hashes.k)] += 1
        return _real(hashes, xs, lens)

    monkeypatch.setattr(verifier, "eval_segments", counted)
    tracemalloc.start()
    try:
        verdicts = decide_block(params, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdicts == want
    assert peak < 8 << 20, peak
    assert set(calls) == {1} and calls[1] >= STREAM_SESSIONS, calls


def test_decide_block_of_no_records():
    params = _params("hm2", 6, {"a": 3}, GRID_ORACLE)
    assert decide_block(params, from_records(params.scheme, [])) == []


@pytest.mark.parametrize(
    "name,ell,kwargs,grid",
    [
        ("hm2", 8, {"a": 4}, GRID_UNIFORM),
        ("hm2", 6, {"a": 3}, GRID_ORACLE),
        ("const", 5, {}, GRID_UNIFORM),
    ],
)
def test_honest_estimate_builds_no_record_or_hash_objects(name, ell, kwargs, grid, monkeypatch):
    # The engine keeps a block as columns from the stream draws to V2's
    # verdict: no SessionRecord and no HashFn on the way.
    params = _params(name, ell, kwargs, grid)
    built = Counter()
    for cls in (verifier.SessionRecord, hashing.HashFn):
        def counting_init(self, *args, _real=cls.__init__, _name=cls.__name__, **kw):
            built[_name] += 1
            _real(self, *args, **kw)

        monkeypatch.setattr(cls, "__init__", counting_init)
    report = estimate_acceptance(params, HonestProver(params.scheme), STREAM_SESSIONS + 40, seed=31)
    assert report.trials == STREAM_SESSIONS + 40
    assert built == Counter()
    # The counters do see the one-session reference's objects.
    run_session(params, HonestProver(params.scheme), np.random.default_rng(0))
    assert built == Counter(SessionRecord=1, HashFn=2)


_MALFORMED_SESSIONS = 40


@cache
def _malformed_base(name):
    """ell=6 params and honest records whose transcripts the properties replace."""
    params = _params(name, 6, {"a": 3} if name == "hm2" else {}, GRID_ORACLE)
    return params, run_block(params, HonestProver(params.scheme), 11, 0, _MALFORMED_SESSIONS).records()


def _check_block_of_malformed_records(name, cases):
    # The records -> block conversion parses each transcript once; the
    # block's table classes must give consistent_seeds' X_{b,t}, raising
    # where it raises, which must equal the brute-force replay's wherever
    # that does not raise, and decide_block must give v2_decide's verdicts.
    params, base = _malformed_base(name)
    sch = params.scheme
    kept, want = [], []
    for i, t in cases:
        record = dataclasses.replace(base[i], t=t)
        try:
            sets = [sch.consistent_seeds(t, b).tolist() for b in (0, 1)]
        except ValueError:
            with pytest.raises(ValueError):
                from_records(sch, [record])
            with pytest.raises(ValueError):
                v2_decide(params, record)
            continue
        for b in (0, 1):
            try:
                reference = replayed_seeds(sch, t, b)
            except ValueError:
                continue
            assert sets[b] == reference, (t, b)
        kept.append(record)
        want.append(sets)
    block = from_records(sch, kept)
    for b in (0, 1):
        if kept:
            tables = sch.rows(block.cols["r"])
            firsts, lens = tables.classes(block.cols["key"] ^ b)
            flat = tables.orders.reshape(-1).tolist()
            assert [flat[f : f + n] for f, n in zip(firsts, lens)] == [sets[b] for sets in want]
            assert lens.tolist() == [len(sets[b]) for sets in want]
            assert tables.seeds(firsts, lens).tolist() == [x for sets in want for x in sets[b]]
    assert decide_block(params, block) == [v2_decide(params, record) for record in kept]


@pytest.mark.parametrize("name", ["hm2", "const", "ident"])
def test_block_records_refuse_a_transcript_no_seed_replays(name):
    # A block keeps a transcript as (r, key) only; a row of key -1 has no
    # transcript to give back.
    params, base = _malformed_base(name)
    bad = dataclasses.replace(base[1], t=(b"\x05\x05\x05",) + base[1].t[1:])
    block = from_records(params.scheme, [base[0], bad])
    assert block.cols["key"][1] == -1
    with pytest.raises(ValueError, match="row 1"):
        block.records()
    assert from_records(params.scheme, [base[0]]).records() == [base[0]]


# hm2 transcripts at ell=6, a=3 (beta_1 one byte, alpha_2 = y0 byte and c
# byte, y0 < 8): a wrong message count, or four messages each drawn from
# well-formed and malformed values (non-empty t[0] or t[3], beta_1 of the
# wrong length or >= 2^6, alpha_2 of the wrong length, a last byte > 1 or
# y0 >= 8).
_HM2_TRANSCRIPTS = st.one_of(
    st.lists(st.binary(max_size=2), max_size=6).filter(lambda t: len(t) != 4).map(tuple),
    st.tuples(
        st.sampled_from([b"", b"", b"\x00"]),
        st.one_of(st.integers(0, 63).map(lambda r: bytes([r])), st.binary(max_size=2)),
        st.one_of(
            st.tuples(st.integers(0, 7), st.integers(0, 1)).map(bytes),
            st.tuples(st.integers(0, 255), st.integers(0, 3)).map(bytes),
            st.binary(max_size=3),
        ),
        st.sampled_from([b"", b"", b"\x01"]),
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, _MALFORMED_SESSIONS - 1), _HM2_TRANSCRIPTS), max_size=24))
def test_block_of_malformed_hm2_records_matches_the_references(cases):
    _check_block_of_malformed_records("hm2", cases)


# One-round transcripts at ell=6 (ident's alpha_1 = b byte and x byte,
# x < 2^6): a wrong message count, the empty one included, or two messages
# drawn from well-formed and malformed values (const's empty alpha_1,
# ident's with b > 1 or x >= 2^6, any bytes, a non-empty beta_1).
_ONE_ROUND_TRANSCRIPTS = st.one_of(
    st.lists(st.binary(max_size=2), max_size=4).filter(lambda t: len(t) != 2).map(tuple),
    st.tuples(
        st.one_of(
            st.just(b""),
            st.tuples(st.integers(0, 1), st.integers(0, 63)).map(bytes),
            st.tuples(st.integers(0, 3), st.integers(0, 255)).map(bytes),
            st.binary(max_size=3),
        ),
        st.sampled_from([b"", b"", b"\x00"]),
    ),
)


@pytest.mark.parametrize("name", ["const", "ident"])
@settings(max_examples=100, deadline=None)
@given(cases=st.lists(st.tuples(st.integers(0, _MALFORMED_SESSIONS - 1), _ONE_ROUND_TRANSCRIPTS), max_size=24))
def test_block_of_malformed_one_round_records_matches_the_references(name, cases):
    _check_block_of_malformed_records(name, cases)
