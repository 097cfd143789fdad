"""Spans recorded around calls into ivpoq's modules, from outside the package.

A traced run swaps selected public functions and methods of ivpoq for
wrappers that open a span, call the original and close the span.  Spans
hold a name, start and end (perf_counter_ns), the enclosing span and the
session or attack id.  They stay in memory until the run ends; the
per-layer numbers, self times included, are derived from them.  Nothing
in src/ivpoq is modified on disk, and the originals are restored when
the `instrumented` block exits.
"""

from __future__ import annotations

import gzip
import os
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# Span names.  The prefix is the ivpoq module whose work the span measures.
SESSION = "session"  # one honest session: rng_init + run_session + v2_decide
ATTACK = "adversaries.binding_attack"
RNG_INIT = "verifier.rng_init"
RUN_SESSION = "verifier.run_session"
V2_DECIDE = "verifier.v2_decide"
V2_COUNT = "verifier.v2_count"
BEST_GRID = "verifier.best_grid_index"
FILL = "commitment.fill"
PARTITION_HIT = "commitment.partition_hit"
CONSISTENT_MASK = "commitment.consistent_mask"
SAMPLE_HASH = "hashing.sample"
EVAL_MANY = "hashing.eval_many"
WHT = "bits.wht"
RNG_FROM_KEY = "bits.rng_from_key"
SAMPLE_D = "coherent_prover.sample_d"
GL = "adversaries.gl"
PREDICT = "adversaries.predict"

# Prover-method spans, named by which prover answers.
HONEST_SPANS = {
    "commit_message": "coherent_prover.commit",
    "hash_response": "coherent_prover.hash_measure",
    "v0_response": "coherent_prover.v0",
    "d_response": "coherent_prover.d",
    "eta_response": "coherent_prover.eta",
}
CLAW_SPANS = {
    "commit_message": "adversaries.commit",
    "hash_response": "adversaries.hash_response",
    "v0_response": "adversaries.v0_response",
    "d_response": "adversaries.d_response",
    "eta_response": "adversaries.eta_response",
}


class Tracer:
    """In-memory span store.  Single-threaded: one open-span stack."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.op = array("q")
        self._stack = [-1]
        self.current_op = -1
        # Support size |S0|+|S1| after the hash step, first seen per op.
        self.support: dict[int, int] = {}
        # Receiver seeds whose commit partition this scheme instance has made.
        self.seen_receivers: set[bytes] = set()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)

        return traced

    def note_support(self, size: int) -> None:
        self.support.setdefault(self.current_op, int(size))

    # analysis ------------------------------------------------------------
    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        child = np.zeros(len(dur), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return name, parent, dur, dur - child

    def write(self, path: str) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("#id\tname\tparent\top\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{names[self.name[i]]}\t{self.parent[i]}\t{self.op[i]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )


class Summary:
    """Per-name totals derived from a tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        name, parent, dur, self_ns = self.arrays = tracer.arrays()
        n = len(tracer.names)
        self._total = np.bincount(name, weights=dur, minlength=n)
        self._self = np.bincount(name, weights=self_ns, minlength=n)
        self._calls = np.bincount(name, minlength=n)
        self.top_level_s = float(dur[parent < 0].sum()) / 1e9
        self.spans = len(dur)

    def _nid(self, name: str) -> int | None:
        return self.tracer._ids.get(name)

    def total_s(self, name: str) -> float:
        nid = self._nid(name)
        return 0.0 if nid is None else float(self._total[nid]) / 1e9

    def self_s(self, name: str) -> float:
        nid = self._nid(name)
        return 0.0 if nid is None else float(self._self[nid]) / 1e9

    def calls(self, name: str) -> int:
        nid = self._nid(name)
        return 0 if nid is None else int(self._calls[nid])

    def total_under_s(self, name: str, parent_name: str) -> float:
        """Total time of `name` spans whose direct parent is a `parent_name` span."""
        nid, pid = self._nid(name), self._nid(parent_name)
        if nid is None or pid is None:
            return 0.0
        names, parent, dur, _ = self.arrays
        mask = (names == nid) & (parent >= 0)
        mask[mask] = names[parent[mask]] == pid
        return float(dur[mask].sum()) / 1e9

    def parents_with_child(self, name: str, child_name: str) -> tuple[int, int]:
        """(spans of `name` with a direct `child_name` child, spans without)."""
        nid, cid = self._nid(name), self._nid(child_name)
        if nid is None:
            return 0, 0
        names, parent, _, _ = self.arrays
        total = int((names == nid).sum())
        if cid is None:
            return 0, total
        with_child = np.unique(parent[(names == cid) & (parent >= 0)])
        hit = int((names[with_child] == nid).sum())
        return hit, total - hit

    def first_child_offset_s(self, name: str, child_name: str) -> float:
        """Sum over `name` spans of the time before their first `child_name`
        child starts (the whole span when it has no such child)."""
        nid, cid = self._nid(name), self._nid(child_name)
        if nid is None:
            return 0.0
        names, parent, dur, _ = self.arrays
        start = np.frombuffer(self.tracer.start, dtype=np.int64)
        roots = np.flatnonzero(names == nid)
        offset = dur[roots].astype(np.float64)
        if cid is not None:
            kids = np.flatnonzero((names == cid) & (parent >= 0))
            kids = kids[names[parent[kids]] == nid]
            first = {}
            for k in kids:
                first.setdefault(int(parent[k]), int(start[k]))
            for j, r in enumerate(roots):
                if int(r) in first:
                    offset[j] = first[int(r)] - start[r]
        return float(offset.sum()) / 1e9


class TracedProver:
    """Proxy prover: times each protocol message the wrapped prover answers.

    Sessions it opens are proxied too, so both the honest prover (which
    returns a fresh HonestSession) and the replayable classical provers
    (which return themselves) are covered.
    """

    def __init__(self, inner, tracer: Tracer, span_names: dict[str, str]):
        self.inner = inner
        self.replayable = getattr(inner, "replayable", False)
        self._tracer = tracer
        self._names = span_names
        self._ids = {m: tracer.name_id(n) for m, n in span_names.items()}

    def new_session(self, rng):
        return TracedProver(self.inner.new_session(rng), self._tracer, self._names)

    def _call(self, method, *args):
        idx = self._tracer.open(self._ids[method])
        try:
            return getattr(self.inner, method)(*args)
        finally:
            self._tracer.close(idx)

    def commit_message(self, j, prefix):
        return self._call("commit_message", j, prefix)

    def hash_response(self, t, h0, h1):
        y = self._call("hash_response", t, h0, h1)
        state = getattr(self.inner, "state", None)
        if state is not None:
            self._tracer.note_support(state.size)
        return y

    def v0_response(self, t, h0, h1, y, xi):
        return self._call("v0_response", t, h0, h1, y, xi)

    def d_response(self, t, h0, h1, y, xi):
        return self._call("d_response", t, h0, h1, y, xi)

    def eta_response(self, t, h0, h1, y, xi, d, v2):
        return self._call("eta_response", t, h0, h1, y, xi, d, v2)


@contextmanager
def instrumented(tracer: Tracer, scheme_cls):
    """Swap ivpoq functions for traced wrappers; restore them on exit."""
    from ivpoq import adversaries, coherent_prover, hashing, verifier

    saved = []

    def patch(owner, attr, make):
        if not hasattr(owner, attr):
            # A renamed or moved target would read 0 silently; stop instead.
            raise AttributeError(f"{getattr(owner, '__name__', owner)}.{attr} not found: "
                                 "update perfbench/tracing.py to the program's new layout")
        own = vars(owner)
        saved.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, make(getattr(owner, attr)))

    def plain(name):
        return lambda fn: tracer.wrap(name, fn)

    def sample_d(fn):
        traced = tracer.wrap(SAMPLE_D, fn)

        def sample_d(state, xi, rng):
            tracer.note_support(state.size)
            return traced(state, xi, rng)

        return sample_d

    def alpha_partition(fn):
        fill, hit = tracer.name_id(FILL), tracer.name_id(PARTITION_HIT)

        def alpha_partition(self, j, xs0, xs1, prefix):
            if len(prefix) < 2:  # round 1: no receiver seed yet
                return fn(self, j, xs0, xs1, prefix)
            receiver = prefix[1]
            idx = tracer.open(hit if receiver in tracer.seen_receivers else fill)
            tracer.seen_receivers.add(receiver)
            try:
                return fn(self, j, xs0, xs1, prefix)
            finally:
                tracer.close(idx)

        return alpha_partition

    try:
        patch(verifier, "sample_hash", plain(SAMPLE_HASH))
        patch(adversaries, "sample_hash", plain(SAMPLE_HASH))
        patch(verifier, "count_consistent_preimages", plain(V2_COUNT))
        patch(verifier.ProtocolParams, "best_grid_index", plain(BEST_GRID))
        patch(adversaries, "predict_claw_parity", plain(PREDICT))
        patch(adversaries, "goldreich_levin", plain(GL))
        patch(adversaries, "rng_from_key", plain(RNG_FROM_KEY))
        patch(hashing.HashFn, "eval_many", plain(EVAL_MANY))
        patch(coherent_prover, "wht", plain(WHT))
        patch(coherent_prover, "sample_d", sample_d)
        for fn_name in ("hash_outcome_law", "commit_alpha_law", "residual_for_d"):
            patch(coherent_prover, fn_name, plain(f"coherent_prover.{fn_name}"))
        patch(scheme_cls, "consistent_mask", plain(CONSISTENT_MASK))
        patch(scheme_cls, "alpha_partition", alpha_partition)
        yield
    finally:
        for owner, attr, value, was_own in reversed(saved):
            if was_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
