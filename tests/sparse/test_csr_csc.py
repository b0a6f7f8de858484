"""Unit tests for the CSR and CSC compressed formats."""

import numpy as np
import pytest

from repro.sparse import (
    COOMatrix,
    CSCMatrix,
    CSRMatrix,
    coo_to_csc,
    coo_to_csr,
)
from repro.sparse.coo import INDEX_BYTES, VALUE_BYTES


@pytest.fixture
def csr(small_coo):
    return coo_to_csr(small_coo)


@pytest.fixture
def csc(small_coo):
    return coo_to_csc(small_coo)


class TestCSR:
    def test_nnz_preserved(self, csr, small_coo):
        assert csr.nnz == small_coo.nnz

    def test_indptr_shape(self, csr):
        assert csr.indptr.tolist() == [0, 2, 3, 6, 6]

    def test_row_access(self, csr):
        cols, vals = csr.row(2)
        assert cols.tolist() == [0, 1, 4]
        np.testing.assert_allclose(vals, [4.0, 5.0, 6.0])

    def test_row_nnz(self, csr):
        assert [csr.row_nnz(i) for i in range(4)] == [2, 1, 3, 0]

    def test_empty_row(self, csr):
        cols, vals = csr.row(3)
        assert cols.size == 0 and vals.size == 0

    def test_row_degrees(self, csr):
        assert csr.row_degrees().tolist() == [2, 1, 3, 0]

    def test_iter_rows_skips_empty(self, csr):
        rows = [r for r, _, _ in csr.iter_rows()]
        assert rows == [0, 1, 2]

    def test_columns_sorted_within_rows(self, csr):
        for _, cols, _ in csr.iter_rows():
            assert np.all(np.diff(cols) > 0)

    def test_dense_roundtrip(self, csr, small_coo):
        np.testing.assert_allclose(csr.to_dense(), small_coo.to_dense())

    def test_coo_roundtrip(self, csr, small_coo):
        assert csr.to_coo().allclose(small_coo)

    def test_storage_bytes(self, csr):
        expected = 5 * INDEX_BYTES + 6 * INDEX_BYTES + 6 * VALUE_BYTES
        assert csr.storage_bytes() == expected

    def test_storage_bytes_custom_pointer(self, csr):
        assert csr.storage_bytes(pointer_bytes=8) == csr.storage_bytes() + 5 * 4

    def test_bad_indptr_length(self):
        with pytest.raises(ValueError, match="indptr"):
            CSRMatrix((2, 2), [0, 1], [0], [1.0])

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            CSRMatrix((2, 2), [1, 1, 1], [0], [1.0])

    def test_indptr_must_be_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRMatrix((3, 3), [0, 2, 1, 2], [0, 1], [1.0, 2.0])

    def test_indices_values_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            CSRMatrix((2, 2), [0, 1, 2], [0, 1], [1.0])

    def test_column_index_bounds(self):
        with pytest.raises(ValueError, match="column index"):
            CSRMatrix((2, 2), [0, 1, 2], [0, 5], [1.0, 2.0])

    def test_columns_out_of_order_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CSRMatrix((2, 3), [0, 2, 3], [2, 0, 1], [1.0, 2.0, 3.0])

    def test_duplicate_column_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CSRMatrix((2, 3), [0, 1, 3], [0, 1, 1], [1.0, 2.0, 3.0])

    def test_out_of_order_after_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CSRMatrix((4, 3), [0, 0, 0, 0, 2], [1, 0], [1.0, 2.0])

    def test_columns_may_drop_across_rows(self):
        # Each row ascends; steps down only at row starts, past empty rows.
        m = CSRMatrix((5, 3), [0, 2, 2, 3, 3, 5], [1, 2, 0, 0, 2], np.ones(5))
        assert m.nnz == 5

    def test_permute_rows(self, csr, small_coo):
        perm = np.array([2, 0, 3, 1])
        got = csr.permute_rows(perm)
        np.testing.assert_array_equal(got.to_dense()[perm], csr.to_dense())
        assert got.to_coo().allclose(small_coo.permute(row_perm=perm))

    @pytest.mark.parametrize("perm", [[0, 1, 2], [0, 0, 1, 2], [0, 1, 2, 4], [-1, 0, 1, 2]])
    def test_permute_rows_rejects_non_permutation(self, csr, perm):
        with pytest.raises(ValueError):
            csr.permute_rows(np.array(perm))

    def test_row_block_views(self, csr):
        block = csr.row_block(1, 3)
        assert block.shape == (2, 5)
        np.testing.assert_array_equal(block.to_dense(), csr.to_dense()[1:3])
        assert np.shares_memory(block.indices, csr.indices)
        assert np.shares_memory(block.values, csr.values)

    def test_row_block_empty_and_bounds(self, csr):
        assert csr.row_block(3, 3).shape == (0, 5)
        assert csr.row_block(3, 4).nnz == 0
        with pytest.raises(ValueError, match="out of bounds"):
            csr.row_block(2, 5)

    def test_repr(self, csr):
        assert "CSRMatrix" in repr(csr)


class TestCSC:
    def test_nnz_preserved(self, csc, small_coo):
        assert csc.nnz == small_coo.nnz

    def test_indptr_shape(self, csc):
        assert csc.indptr.tolist() == [0, 2, 3, 4, 5, 6]

    def test_col_access(self, csc):
        rows, vals = csc.col(0)
        assert rows.tolist() == [0, 2]
        np.testing.assert_allclose(vals, [1.0, 4.0])

    def test_col_nnz(self, csc):
        assert [csc.col_nnz(j) for j in range(5)] == [2, 1, 1, 1, 1]

    def test_col_degrees(self, csc):
        assert csc.col_degrees().tolist() == [2, 1, 1, 1, 1]

    def test_iter_cols_covers_all(self, csc):
        cols = [c for c, _, _ in csc.iter_cols()]
        assert cols == [0, 1, 2, 3, 4]

    def test_rows_sorted_within_columns(self, csc):
        for _, rows, _ in csc.iter_cols():
            assert np.all(np.diff(rows) > 0)

    def test_dense_roundtrip(self, csc, small_coo):
        np.testing.assert_allclose(csc.to_dense(), small_coo.to_dense())

    def test_coo_roundtrip(self, csc, small_coo):
        assert csc.to_coo().allclose(small_coo)

    def test_storage_bytes(self, csc):
        expected = 6 * INDEX_BYTES + 6 * INDEX_BYTES + 6 * VALUE_BYTES
        assert csc.storage_bytes() == expected

    def test_bad_indptr_length(self):
        with pytest.raises(ValueError, match="indptr"):
            CSCMatrix((2, 2), [0, 1], [0], [1.0])

    def test_row_index_bounds(self):
        with pytest.raises(ValueError, match="row index"):
            CSCMatrix((2, 2), [0, 1, 2], [0, 5], [1.0, 2.0])

    def test_repr(self, csc):
        assert "CSCMatrix" in repr(csc)


class TestCrossFormat:
    def test_csr_and_csc_agree_on_dense(self, csr, csc):
        np.testing.assert_allclose(csr.to_dense(), csc.to_dense())

    def test_csr_transpose_equals_csc_of_transpose(self, small_coo):
        csr_t = coo_to_csr(small_coo.transpose())
        csc = coo_to_csc(small_coo)
        # CSR of A^T has the same index structure as CSC of A.
        assert csr_t.indptr.tolist() == csc.indptr.tolist()
        assert csr_t.indices.tolist() == csc.indices.tolist()
