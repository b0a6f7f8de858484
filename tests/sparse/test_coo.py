"""Unit tests for the COO container."""

import numpy as np
import pytest

from repro.sparse import COOMatrix
from repro.sparse.coo import INDEX_BYTES, INDEX_DTYPE, VALUE_BYTES


class TestConstruction:
    def test_from_dense_extracts_all_nonzeros(self, small_coo):
        assert small_coo.nnz == 6

    def test_shape_preserved(self, small_coo):
        assert small_coo.shape == (4, 5)

    def test_empty_matrix(self):
        m = COOMatrix.empty((3, 7))
        assert m.nnz == 0
        assert m.shape == (3, 7)
        assert np.array_equal(m.to_dense(), np.zeros((3, 7)))

    def test_canonical_row_major_order(self):
        m = COOMatrix((3, 3), [2, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0])
        assert m.rows.tolist() == [0, 1, 2]
        assert m.cols.tolist() == [2, 1, 0]

    def test_duplicates_are_summed(self):
        m = COOMatrix((2, 2), [0, 0, 1], [1, 1, 0], [1.0, 2.5, 4.0])
        assert m.nnz == 2
        dense = m.to_dense()
        assert dense[0, 1] == pytest.approx(3.5)
        assert dense[1, 0] == pytest.approx(4.0)

    def test_duplicates_summed_across_many(self):
        m = COOMatrix((1, 1), [0] * 10, [0] * 10, [1.0] * 10)
        assert m.nnz == 1
        assert m.values[0] == pytest.approx(10.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="identical shapes"):
            COOMatrix((2, 2), [0, 1], [0], [1.0])

    def test_row_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="row index"):
            COOMatrix((2, 2), [2], [0], [1.0])

    def test_negative_row_rejected(self):
        with pytest.raises(ValueError, match="row index"):
            COOMatrix((2, 2), [-1], [0], [1.0])

    def test_col_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="column index"):
            COOMatrix((2, 2), [0], [5], [1.0])

    def test_two_dimensional_triplets_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            COOMatrix((2, 2), [[0]], [[0]], [[1.0]])

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            COOMatrix.from_dense(np.ones(4))

    def test_values_cast_to_float32(self, small_coo):
        assert small_coo.values.dtype == np.float32


class TestProperties:
    def test_density(self, small_coo):
        assert small_coo.density == pytest.approx(6 / 20)

    def test_density_empty_shape(self):
        m = COOMatrix.empty((0, 5))
        assert m.density == 0.0

    def test_storage_bytes(self, small_coo):
        assert small_coo.storage_bytes() == 6 * (2 * INDEX_BYTES + VALUE_BYTES)

    def test_dense_roundtrip(self, small_coo):
        again = COOMatrix.from_dense(small_coo.to_dense())
        assert small_coo.allclose(again)

    def test_repr_mentions_shape_and_nnz(self, small_coo):
        assert "shape=(4, 5)" in repr(small_coo)
        assert "nnz=6" in repr(small_coo)


class TestDegrees:
    def test_row_degrees(self, small_coo):
        assert small_coo.row_degrees().tolist() == [2, 1, 3, 0]

    def test_col_degrees(self, small_coo):
        assert small_coo.col_degrees().tolist() == [2, 1, 1, 1, 1]

    def test_degrees_sum_to_nnz(self, small_graph):
        assert small_graph.row_degrees().sum() == small_graph.nnz
        assert small_graph.col_degrees().sum() == small_graph.nnz

    @pytest.mark.parametrize("shape", [(7, 3), (400, 1000), (300, 9000)])
    def test_degrees_match_bincount(self, shape, rng):
        """Over several column slices, empty rows and columns included,
        both counts equal a whole-array ``np.bincount``."""
        nnz = 20_000
        m = COOMatrix(
            shape,
            rng.integers(0, shape[0], nnz),
            rng.integers(0, shape[1] // 2 + 1, nnz),
            np.ones(nnz, dtype=np.float32),
        )
        for got, index, n in ((m.row_degrees(), m.rows, shape[0]),
                              (m.col_degrees(), m.cols, shape[1])):
            assert got.dtype == INDEX_DTYPE
            assert got.tolist() == np.bincount(index, minlength=n).tolist()

    def test_degrees_of_an_empty_matrix(self):
        m = COOMatrix((3, 0), [], [], [])
        assert m.row_degrees().tolist() == [0, 0, 0]
        assert m.col_degrees().tolist() == []


class TestTransforms:
    def test_transpose_shape(self, small_coo):
        assert small_coo.transpose().shape == (5, 4)

    def test_transpose_values(self, small_coo):
        np.testing.assert_allclose(
            small_coo.transpose().to_dense(), small_coo.to_dense().T
        )

    def test_double_transpose_identity(self, small_coo):
        assert small_coo.transpose().transpose().allclose(small_coo)

    def test_permute_rows(self, small_coo):
        perm = np.array([3, 2, 1, 0])
        permuted = small_coo.permute(row_perm=perm)
        dense = small_coo.to_dense()
        np.testing.assert_allclose(permuted.to_dense(), dense[::-1])

    def test_permute_both_axes_preserves_nnz(self, small_graph):
        n = small_graph.shape[0]
        perm = np.random.default_rng(0).permutation(n)
        permuted = small_graph.permute(row_perm=perm, col_perm=perm)
        assert permuted.nnz == small_graph.nnz

    def test_permute_identity_is_noop(self, small_coo):
        ident = np.arange(small_coo.shape[0])
        assert small_coo.permute(row_perm=ident).allclose(small_coo)

    def test_submatrix_values(self, small_coo):
        block = small_coo.submatrix(0, 2, 0, 3)
        np.testing.assert_allclose(block.to_dense(), small_coo.to_dense()[:2, :3])

    def test_submatrix_rebased_indices(self, small_coo):
        block = small_coo.submatrix(2, 4, 1, 5)
        np.testing.assert_allclose(block.to_dense(), small_coo.to_dense()[2:4, 1:5])

    def test_submatrix_full_is_identity(self, small_coo):
        block = small_coo.submatrix(0, 4, 0, 5)
        assert block.allclose(small_coo)

    def test_submatrix_empty_range(self, small_coo):
        block = small_coo.submatrix(1, 1, 0, 5)
        assert block.nnz == 0
        assert block.shape == (0, 5)

    def test_submatrix_bad_row_range(self, small_coo):
        with pytest.raises(ValueError, match="row range"):
            small_coo.submatrix(3, 2, 0, 5)

    def test_submatrix_bad_col_range(self, small_coo):
        with pytest.raises(ValueError, match="col range"):
            small_coo.submatrix(0, 2, 0, 9)


class TestComparison:
    def test_allclose_self(self, small_coo):
        assert small_coo.allclose(small_coo)

    def test_allclose_different_shape(self, small_coo):
        other = COOMatrix.empty((4, 6))
        assert not small_coo.allclose(other)

    def test_allclose_different_nnz(self, small_coo):
        other = COOMatrix.empty((4, 5))
        assert not small_coo.allclose(other)

    def test_allclose_value_tolerance(self, small_coo):
        jittered = COOMatrix(
            small_coo.shape,
            small_coo.rows.copy(),
            small_coo.cols.copy(),
            small_coo.values + 1e-7,
        )
        assert small_coo.allclose(jittered)

    def test_allclose_detects_value_change(self, small_coo):
        changed = COOMatrix(
            small_coo.shape,
            small_coo.rows.copy(),
            small_coo.cols.copy(),
            small_coo.values + 1.0,
        )
        assert not small_coo.allclose(changed)
