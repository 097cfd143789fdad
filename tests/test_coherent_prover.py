import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

import dense_oracle
from ivpoq.adversaries import binding_attack, unbounded_claw_prover
from ivpoq import coherent_prover
from ivpoq.commitment import make_scheme
from ivpoq.coherent_prover import (
    COS_PI8,
    EmptyStateError,
    HONEST_UNIQUE_RATE,
    HonestProver,
    SupportState,
    answer_v0,
    d_outcome_law,
    hadamard_draws,
    eta0_prob,
    eta0_probs,
    hash_outcome_law,
    measure_hash,
    measure_rotated,
    run_coherent_commit,
    sample_d,
    sample_index,
)
from ivpoq.hashing import HashFn, sample_hash
from ivpoq.lemma_harness import coherent_transcript_law
from ivpoq.verifier import ProtocolParams, run_session

from builders import identity_hash, support_state


def const_hash(ell, k, value):
    return HashFn(ell=ell, k=k, a=0, b=value, p=(1 << 61) - 1)


# commit phase ----------------------------------------------------------------

def test_const_commit_keeps_full_state():
    sch = make_scheme("const", 5)
    t, state = run_coherent_commit(sch, 3, np.random.default_rng(0))
    assert t == (b"", b"")
    assert state.s0.tolist() == state.s1.tolist() == list(range(32))


def test_full_state_is_shared_and_never_written():
    # One read-only seed array per ell backs every full state; a session
    # that wrote into it would raise instead of corrupting later sessions.
    full = SupportState.full(6)
    assert full.s0 is full.s1 is SupportState.full(6).s0
    assert not full.s0.flags.writeable
    with pytest.raises(ValueError):
        full.s0[0] = 1
    for name, kwargs in (("hm2", {"a": 3}), ("const", {}), ("ident", {})):
        sch = make_scheme(name, 6, **kwargs)
        params = ProtocolParams(scheme=sch, epsilon=0.5)
        for seed in range(40):
            run_session(params, HonestProver(sch), np.random.default_rng([4, seed]))
        binding_attack(params, unbounded_claw_prover(sch), np.random.default_rng(1))
    assert full.s0.tolist() == list(range(64))


def test_ident_commit_collapses_single_branch():
    sch = make_scheme("ident", 4)
    seen = set()
    for seed in range(200):
        t, state = run_coherent_commit(sch, 0, np.random.default_rng(seed))
        s0, s1 = state.s0.tolist(), state.s1.tolist()
        assert (len(s0), len(s1)) in ((1, 0), (0, 1))
        b = t[0][0]
        x = int.from_bytes(t[0][1:], "big")
        assert (s0 if b == 0 else s1) == [x]
        seen.add((b, x))
    assert len(seen) > 20  # spread over the 2^(ell+1) outcomes


def test_hm2_commit_law_matches_dense_simulation():
    sch = make_scheme("hm2", 6, a=3)
    for r in (0, 17, 63):
        dense = dense_oracle.dense_commit_law(sch, r)
        sparse = {}
        law = coherent_transcript_law  # exact tree over all r; restrict to r
        # rebuild the sparse law for this fixed r by conditioning on beta_1
        # (hm2's first receiver message pins the seed)
        for t, prob in law(sch).items():
            if t[1] == r.to_bytes(1, "big"):
                sparse[t] = float(prob) * (1 << sch.ell)
        assert set(sparse) == set(dense)
        tvd = 0.5 * sum(abs(sparse[t] - dense[t][0]) for t in dense)
        assert tvd <= 1e-9
        # final support sets agree too
        for t, (_, s0, s1) in dense.items():
            assert sorted(s0) == sch.consistent_seeds(t, 0).tolist()
            assert sorted(s1) == sch.consistent_seeds(t, 1).tolist()


def test_sampled_commit_consistent_with_support_sets():
    sch = make_scheme("hm2", 7, a=3)
    rng = np.random.default_rng(5)
    for _ in range(10):
        r = int(rng.integers(1 << 7))
        t, state = run_coherent_commit(sch, r, rng)
        assert state.s0.tolist() == sch.consistent_seeds(t, 0).tolist()
        assert state.s1.tolist() == sch.consistent_seeds(t, 1).tolist()
        assert state.size > 0


# hash measurement -------------------------------------------------------------

def test_measure_hash_singletons():
    state = support_state(3, {0b001}, {0b100})
    h0 = identity_hash(3)
    h1 = identity_hash(3)
    counts = {1: 0, 4: 0}
    for seed in range(400):
        y, post = measure_hash(state, h0, h1, np.random.default_rng(seed))
        counts[y] += 1
        if y == 1:
            assert (post.s0.tolist(), post.s1.tolist()) == ([1], [])
        else:
            assert (post.s0.tolist(), post.s1.tolist()) == ([], [4])
    assert abs(counts[1] / 400 - 0.5) < 0.07


def test_measure_hash_constant_keeps_state():
    state = support_state(4, {1, 2, 3}, {9, 10})
    h = const_hash(4, 7, 2)
    y, post = measure_hash(state, h, h, np.random.default_rng(0))
    assert y == 2
    assert (post.s0.tolist(), post.s1.tolist()) == (state.s0.tolist(), state.s1.tolist())


def test_measure_hash_histogram_matches_law():
    rng = np.random.default_rng(42)
    ell = 6
    s0 = {int(x) for x in rng.choice(64, size=20, replace=False)}
    s1 = {int(x) for x in rng.choice(64, size=17, replace=False)}
    state = support_state(ell, s0, s1)
    h0 = sample_hash(ell, 8, rng)
    h1 = sample_hash(ell, 8, rng)
    ys, law_counts, _, _ = hash_outcome_law(state, h0, h1)
    assert law_counts.sum() == state.size
    probs = law_counts / state.size
    n = 20000
    counts = np.zeros(len(ys), dtype=int)
    lookup = {int(y): i for i, y in enumerate(ys)}
    for seed in range(n):
        y, _ = measure_hash(state, h0, h1, np.random.default_rng([1, seed]))
        counts[lookup[y]] += 1
    res = sstats.chisquare(counts, probs * n)
    assert res.pvalue > 0.001


# computational-basis answer ----------------------------------------------------

def test_answer_v0_two_branches():
    state = support_state(3, {5}, {2})
    seen = {(0, 5): 0, (1, 2): 0}
    for seed in range(300):
        seen[answer_v0(state, np.random.default_rng(seed))] += 1
    assert abs(seen[(0, 5)] / 300 - 0.5) < 0.09


def test_answer_v0_single_branch():
    state = support_state(3, {6}, set())
    for seed in range(20):
        assert answer_v0(state, np.random.default_rng(seed)) == (0, 6)


def test_answer_v0_uniformity():
    state = support_state(4, {1, 2, 3}, {3, 8})
    counts = {}
    n = 8000
    for seed in range(n):
        out = answer_v0(state, np.random.default_rng([2, seed]))
        counts[out] = counts.get(out, 0) + 1
    assert set(counts) == {(0, 1), (0, 2), (0, 3), (1, 3), (1, 8)}
    res = sstats.chisquare(list(counts.values()))
    assert res.pvalue > 0.001


def test_answer_v0_empty_state_raises():
    state = support_state(3, set(), set())
    with pytest.raises(EmptyStateError):
        answer_v0(state, np.random.default_rng(0))


@pytest.mark.parametrize(
    "measure",
    [
        lambda state: hash_outcome_law(state, identity_hash(3), identity_hash(3)),
        lambda state: d_outcome_law(state, 5),
        lambda state: sample_d(state, 5, np.random.default_rng(0)),
    ],
    ids=["hash_outcome_law", "d_outcome_law", "sample_d"],
)
def test_measurements_on_the_empty_state_raise(measure):
    with pytest.raises(EmptyStateError):
        measure(support_state(3, set(), set()))


# Hadamard measurement ----------------------------------------------------------

def test_d_law_two_singletons_matches_relabeled_state():
    ell = 4
    x0, x1 = 0b1010, 0b0111
    state = support_state(ell, {x0}, {x1})
    for xi in (0, 0b0011, 0b1111):
        probs, a0, a1 = d_outcome_law(state, xi)
        assert math.isclose(probs.sum(), 1.0, abs_tol=1e-12)
        for d in range(1 << ell):
            sign = (-1) ** ((d & (x0 ^ x1)).bit_count() & 1)
            amps = {0: 0.0, 1: 0.0}
            amps[(xi & x0).bit_count() & 1] += 1
            amps[1 ^ ((xi & x1).bit_count() & 1)] += sign
            want = (amps[0] ** 2 + amps[1] ** 2) / (2 * 2**ell)
            assert math.isclose(probs[d], want, abs_tol=1e-12)
            if probs[d] > 0:
                assert math.isclose(a0[d] ** 2 + a1[d] ** 2, amps[0] ** 2 + amps[1] ** 2)


def test_d_law_single_element_uniform():
    state = support_state(5, {19}, set())
    xi = 0b10010
    probs, a0, a1 = d_outcome_law(state, xi)
    assert np.allclose(probs, 1 / 32)
    # residual is the basis state |xi.x|
    c = (19 & xi).bit_count() & 1
    for d in (0, 7, 31):
        qb = (a0[d], a1[d])
        assert abs(qb[c]) == 1 and qb[1 - c] == 0


def test_sample_d_matches_law_small_support():
    # the rejection fast path must reproduce the transform law
    state = support_state(4, {3}, {12})
    xi = 0b0101
    probs, _, _ = d_outcome_law(state, xi)
    n = 20000
    counts = np.zeros(16, dtype=int)
    for seed in range(n):
        d, qubit = sample_d(state, xi, np.random.default_rng([3, seed]))
        counts[d] += 1
        assert qubit[0] ** 2 + qubit[1] ** 2 > 0
    observed = counts[probs > 0]
    res = sstats.chisquare(observed, probs[probs > 0] * n)
    assert res.pvalue > 0.001
    assert counts[probs == 0].sum() == 0


def test_d_law_parseval_random_states():
    rng = np.random.default_rng(9)
    for ell in (3, 5, 8):
        n = 1 << ell
        for _ in range(6):
            s0 = {int(x) for x in rng.choice(n, size=int(rng.integers(1, n)), replace=False)}
            s1 = {int(x) for x in rng.choice(n, size=int(rng.integers(0, n)), replace=False)}
            state = support_state(ell, s0, s1)
            probs, _, _ = d_outcome_law(state, int(rng.integers(n)))
            assert math.isclose(probs.sum(), 1.0, abs_tol=1e-9)


class _FixedDraw:
    """A Generator stand-in whose one integers(n) draw is u, for n as given."""

    def __init__(self, u, n):
        self.u, self.n = u, n

    def integers(self, n):
        assert n == self.n
        return self.u


def _measurement_rows(states):
    """hadamard_draws' seeds and segments for the states, measurement w = states[w]."""
    xs = np.concatenate([np.concatenate((state.s0, state.s1)) for state in states])
    seg = np.concatenate([np.repeat([2 * w, 2 * w + 1], (len(state.s0), len(state.s1)))
                          for w, state in enumerate(states)])
    return xs, seg


@st.composite
def _states(draw, ell):
    """A support of 1 to 40 seeds over both branches."""
    seeds = st.tuples(st.integers(0, 1), st.integers(0, (1 << ell) - 1))
    pairs = draw(st.sets(seeds, min_size=1, max_size=40))
    return support_state(ell, {x for b, x in pairs if b == 0}, {x for b, x in pairs if b == 1})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_hadamard_draws_is_sample_index_over_the_d_law(data):
    ell = data.draw(st.integers(2, 9))
    state = data.draw(_states(ell))
    xi = data.draw(st.integers(0, (1 << ell) - 1))
    u = data.draw(st.integers(0, (state.size << ell) - 1))
    _, a0, a1 = d_outcome_law(state, xi)
    want = sample_index(a0 * a0 + a1 * a1, _FixedDraw(u, state.size << ell))
    xs, seg = _measurement_rows([state])
    d, b0, b1 = hadamard_draws(ell, xs, seg, [xi], [u])[:, 0].tolist()
    assert d == want
    assert (b0, b1) == (a0[d], a1[d])


def test_hadamard_draws_across_chunks_equal_one_call_per_measurement(monkeypatch):
    ell, n = 6, 25
    rng = np.random.default_rng(4)
    states = []
    for _ in range(n):
        s0 = rng.choice(1 << ell, size=int(rng.integers(0, 12)), replace=False)
        s1 = rng.choice(1 << ell, size=int(rng.integers(1, 12)), replace=False)
        states.append(support_state(ell, s0, s1))
    xis = rng.integers(1 << ell, size=n)
    us = [int(rng.integers(state.size << ell)) for state in states]
    want = [hadamard_draws(ell, *_measurement_rows([state]), [xi], [u])[:, 0].tolist()
            for state, xi, u in zip(states, xis, us)]
    transforms = []

    def counted(vec, _real=coherent_prover.wht):
        transforms.append(len(vec))
        return _real(vec)

    # three measurements' worth of arrays per chunk
    monkeypatch.setattr(coherent_prover, "_BLOCK_BYTES", 3 << (ell + 6))
    monkeypatch.setattr(coherent_prover, "wht", counted)
    got = hadamard_draws(ell, *_measurement_rows(states), xis, us)
    assert transforms == [6] * 8 + [2]
    assert got.T.tolist() == want


# rotated measurement -------------------------------------------------------------

def test_rotated_probabilities_eight_conditionals():
    cos2 = COS_PI8**2
    zero = (1.0, 0.0)
    one = (0.0, 1.0)
    plus = (1.0, 1.0)
    minus = (1.0, -1.0)
    assert math.isclose(eta0_prob(zero, 0), cos2)
    assert math.isclose(1 - eta0_prob(one, 0), cos2)
    assert math.isclose(eta0_prob(plus, 0), cos2)
    assert math.isclose(1 - eta0_prob(minus, 0), cos2)
    assert math.isclose(eta0_prob(zero, 1), cos2)
    assert math.isclose(1 - eta0_prob(one, 1), cos2)
    assert math.isclose(1 - eta0_prob(plus, 1), cos2)
    assert math.isclose(eta0_prob(minus, 1), cos2)


def test_rotated_eigenstate():
    qubit = (float(np.cos(np.pi / 8)), float(np.sin(np.pi / 8)))
    assert math.isclose(eta0_prob(qubit, 0), 1.0)
    for seed in range(10):
        assert measure_rotated(qubit, 0, np.random.default_rng(seed)) == 0


def test_rotated_zero_vector_raises():
    with pytest.raises(EmptyStateError):
        eta0_prob((0.0, 0.0), 0)


_AMP = st.one_of(st.just(0), st.integers(-(1 << 24), 1 << 24))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(_AMP, _AMP, st.integers(0, 1)).filter(lambda row: row[:2] != (0, 0)),
        min_size=1,
        max_size=20,
    )
)
def test_eta0_probs_on_int_rows_equals_eta0_prob(rows):
    # The engine's int64 amplitudes and the scalar path's floats give
    # the same float, row by row.
    a0, a1, v2 = np.array(rows, dtype=np.int64).T
    want = [eta0_prob((float(x0), float(x1)), v) for x0, x1, v in rows]
    assert eta0_probs(a0, a1, v2).tolist() == want


# sparse vs dense joint law --------------------------------------------------------

from sparse_law import sparse_challenge_law


def test_joint_law_matches_dense_oracle_small():
    rng = np.random.default_rng(31)
    for _ in range(8):
        ell = int(rng.integers(2, 6))
        n = 1 << ell
        n0 = int(rng.integers(1, n + 1))
        n1 = int(rng.integers(0, n + 1))
        s0 = {int(x) for x in rng.choice(n, size=n0, replace=False)}
        s1 = {int(x) for x in rng.choice(n, size=n1, replace=False)}
        if not s0 and not s1:
            s0 = {0}
        k = int(rng.integers(1, 9))
        h0 = sample_hash(ell, k, rng)
        h1 = sample_hash(ell, k, rng)
        xi = int(rng.integers(n))
        v2 = int(rng.integers(2))
        sparse = sparse_challenge_law(ell, s0, s1, h0, h1, xi, v2)
        dense = dense_oracle.dense_challenge_law(ell, s0, s1, h0, h1, xi, v2)
        keys = set(sparse) | set(dense)
        tvd = 0.5 * sum(abs(sparse.get(kk, 0.0) - dense.get(kk, 0.0)) for kk in keys)
        assert tvd <= 1e-9


def test_unique_claw_conditional_closed_form():
    # two-singleton state: 1/2 * 1 + 1/2 * cos^2(pi/8) acceptance
    assert math.isclose(HONEST_UNIQUE_RATE, 0.9267766953, abs_tol=5e-10)


def test_honest_prover_session_runs():
    sch = make_scheme("hm2", 6, a=3)
    prover = HonestProver(sch)
    session = prover.new_session(np.random.default_rng(0))
    alpha1 = session.commit_message(1, ())
    assert alpha1 == b""
