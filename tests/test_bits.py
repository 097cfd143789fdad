import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivpoq.bits import PARITY16, dot2, parity, parity_u32, to_hex, from_hex, wht


def test_parity_matches_popcount():
    rng = np.random.default_rng(0)
    vals = rng.integers(0, 1 << 24, size=500)
    expect = np.array([int(v).bit_count() & 1 for v in vals])
    assert (parity_u32(vals) == expect).all()
    for v in vals[:50]:
        assert parity(int(v)) == int(v).bit_count() % 2


def test_parity_table_is_popcount_parity():
    assert PARITY16.dtype == np.uint8
    assert PARITY16.tolist() == [v.bit_count() & 1 for v in range(1 << 16)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_integers_batch_equals_scalar_draws(ell, k, seed):
    # goldreich_levin draws its seeds and test xis k at a time
    batch = np.random.default_rng(seed).integers(1 << ell, size=k)
    rng = np.random.default_rng(seed)
    assert batch.tolist() == [int(rng.integers(1 << ell)) for _ in range(k)]


def test_dot2_is_bilinear():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b, c = (int(v) for v in rng.integers(0, 1 << 16, size=3))
        assert dot2(a, b ^ c) == dot2(a, b) ^ dot2(a, c)


def test_wht_matches_direct_sum():
    rng = np.random.default_rng(2)
    for ell in (1, 3, 5):
        n = 1 << ell
        vec = rng.integers(-5, 6, size=n)
        out = wht(vec)
        direct = [
            sum(int(vec[x]) * (-1) ** dot2(d, x) for x in range(n)) for d in range(n)
        ]
        assert out.tolist() == direct


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8).flatmap(
    lambda ell: st.lists(st.integers(-(1 << 20), 1 << 20), min_size=1 << ell, max_size=1 << ell)
))
def test_wht_equals_sign_matrix_product(vec):
    n = len(vec)
    d, x = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    signs = 1 - 2 * parity_u32(d & x).astype(np.int64)
    assert wht(np.array(vec)).tolist() == (signs @ np.array(vec, dtype=np.int64)).tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8).flatmap(
    lambda ell: st.lists(
        st.lists(st.integers(-(1 << 20), 1 << 20), min_size=1 << ell, max_size=1 << ell),
        min_size=1,
        max_size=6,
    )
))
def test_wht_of_a_matrix_is_row_by_row(rows):
    # The lockstep engine transforms a (rows, 2^ell) matrix in one call.
    mat = np.array(rows, dtype=np.int64)
    out = wht(mat)
    assert out.shape == mat.shape
    assert out.tolist() == [wht(row).tolist() for row in mat]
    assert mat.tolist() == rows  # the input is left alone


def test_wht_rejects_bad_length():
    with pytest.raises(ValueError):
        wht(np.zeros(6, dtype=np.int64))


def test_hex_roundtrip():
    for ell in (3, 8, 13):
        for x in (0, 1, (1 << ell) - 1):
            assert from_hex(to_hex(x, ell)) == x
