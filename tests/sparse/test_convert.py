"""Conversion round-trips, including property-based checks against SciPy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse import (
    COOMatrix,
    CSCMatrix,
    CSRMatrix,
    coo_to_csc,
    coo_to_csr,
    csc_to_coo,
    csc_to_csr,
    csr_to_coo,
    csr_to_csc,
    dense_to_coo,
    dense_to_csc,
    dense_to_csr,
)

scipy_sparse = pytest.importorskip("scipy.sparse")


@st.composite
def random_coo(draw):
    """A random small sparse matrix as canonical COO."""
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 12))
    nnz = draw(st.integers(0, n_rows * n_cols))
    idx = draw(
        st.lists(
            st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
            min_size=nnz,
            max_size=nnz,
        )
    )
    rows = np.array([i for i, _ in idx], dtype=np.int64)
    cols = np.array([j for _, j in idx], dtype=np.int64)
    values = np.arange(1, len(idx) + 1, dtype=np.float32)
    return COOMatrix((n_rows, n_cols), rows, cols, values)


@settings(max_examples=40, deadline=None)
@given(random_coo())
def test_csr_roundtrip(coo):
    assert csr_to_coo(coo_to_csr(coo)).allclose(coo)


@settings(max_examples=40, deadline=None)
@given(random_coo())
def test_csc_roundtrip(coo):
    assert csc_to_coo(coo_to_csc(coo)).allclose(coo)


@settings(max_examples=40, deadline=None)
@given(random_coo())
def test_csr_to_csc_roundtrip(coo):
    csr = coo_to_csr(coo)
    back = csc_to_csr(csr_to_csc(csr))
    assert back.to_coo().allclose(coo)


@settings(max_examples=40, deadline=None)
@given(random_coo())
def test_matches_scipy_csr(coo):
    ours = coo_to_csr(coo)
    ref = scipy_sparse.coo_matrix(
        (coo.values, (coo.rows, coo.cols)), shape=coo.shape
    ).tocsr()
    ref.sort_indices()
    assert ours.indptr.tolist() == ref.indptr.tolist()
    assert ours.indices.tolist() == ref.indices.tolist()
    np.testing.assert_allclose(ours.values, ref.data, rtol=1e-6)


@settings(max_examples=40, deadline=None)
@given(random_coo())
def test_matches_scipy_csc(coo):
    ours = coo_to_csc(coo)
    ref = scipy_sparse.coo_matrix(
        (coo.values, (coo.rows, coo.cols)), shape=coo.shape
    ).tocsc()
    ref.sort_indices()
    assert ours.indptr.tolist() == ref.indptr.tolist()
    assert ours.indices.tolist() == ref.indices.tolist()
    np.testing.assert_allclose(ours.values, ref.data, rtol=1e-6)


def test_dense_to_coo(small_coo):
    assert dense_to_coo(small_coo.to_dense()).allclose(small_coo)


def test_dense_to_csr(small_coo):
    np.testing.assert_allclose(
        dense_to_csr(small_coo.to_dense()).to_dense(), small_coo.to_dense()
    )


def test_dense_to_csc(small_coo):
    np.testing.assert_allclose(
        dense_to_csc(small_coo.to_dense()).to_dense(), small_coo.to_dense()
    )


def _assert_same_arrays(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


@st.composite
def coo_and_permutation(draw):
    coo = draw(random_coo())
    perm = draw(st.permutations(range(coo.shape[0])))
    return coo, np.array(perm, dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(coo_and_permutation())
def test_permute_rows_equals_coo_path(case):
    coo, perm = case
    csr = coo_to_csr(coo)
    want = coo_to_csr(csr.to_coo().permute(row_perm=perm))
    _assert_same_arrays(csr.permute_rows(perm), want)


@settings(max_examples=60, deadline=None)
@given(random_coo())
def test_csr_to_csc_equals_coo_path(coo):
    csr = coo_to_csr(coo)
    got = csr_to_csc(csr)
    _assert_same_arrays(got, CSCMatrix.from_coo(csr.to_coo()))


@st.composite
def coo_and_row_range(draw):
    coo = draw(random_coo())
    lo = draw(st.integers(0, coo.shape[0]))
    hi = draw(st.integers(lo, coo.shape[0]))
    return coo, lo, hi


@settings(max_examples=60, deadline=None)
@given(coo_and_row_range())
def test_row_block_equals_coo_submatrix(case):
    coo, lo, hi = case
    got = coo_to_csr(coo).row_block(lo, hi)
    _assert_same_arrays(got, coo_to_csr(coo.submatrix(lo, hi, 0, coo.shape[1])))


@pytest.mark.parametrize(
    "kind", ["op", "op-deferred", "op-tiled", "rwp", "cwp", "gcod", "hymm"]
)
def test_prepare_never_expands_features_to_coo(kind, tiny_model, monkeypatch):
    """Every dataflow builds its feature operands straight from CSR."""
    from repro.runtime.execute import make_accelerator

    def forbidden(self):
        raise AssertionError("CSRMatrix.to_coo called during prepare")

    monkeypatch.setattr(CSRMatrix, "to_coo", forbidden)
    prep = make_accelerator(kind).prepare(tiny_model)
    assert prep["features"].shape == tiny_model.dataset.features.shape


def test_empty_matrix_roundtrips():
    empty = COOMatrix.empty((4, 4))
    assert csr_to_coo(coo_to_csr(empty)).nnz == 0
    assert csc_to_coo(coo_to_csc(empty)).nnz == 0
