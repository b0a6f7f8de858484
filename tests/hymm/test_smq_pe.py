"""SMQ stream accounting and the PE array's functional datapaths."""

import math

import numpy as np
import pytest

from repro.hymm import PEArray, SparseMatrixQueue, csc_col_stream_bytes, csr_row_stream_bytes
from repro.hymm.smq import FLAG_CSC, FLAG_CSR
from repro.sparse import coo_to_csc, coo_to_csr


class TestStreamBytes:
    def test_csr_row_cost(self):
        # one pointer + 3 (index, value) pairs
        assert csr_row_stream_bytes(3) == 4 + 3 * 8

    def test_extra_pointers(self):
        assert csr_row_stream_bytes(3, extra_pointers=2) == 8 + 24

    def test_csc_same_structure(self):
        assert csc_col_stream_bytes(5) == csr_row_stream_bytes(5)


class TestSMQ:
    @pytest.fixture
    def smq(self):
        return SparseMatrixQueue()

    def test_buffer_bytes(self, smq):
        assert smq.buffer_bytes == 16 * 1024

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            SparseMatrixQueue(pointer_buffer_bytes=0)

    def test_iter_csr_entries(self, smq, small_coo):
        entries = list(smq.iter_csr(coo_to_csr(small_coo)))
        assert [e.pointer for e in entries] == [0, 1, 2]  # row 3 empty
        assert all(e.flag == FLAG_CSR for e in entries)

    def test_iter_csr_bytes(self, smq, small_coo):
        entries = list(smq.iter_csr(coo_to_csr(small_coo)))
        total = sum(e.stream_bytes for e in entries)
        # 6 nz x 8 bytes + 3 non-empty rows x 4 pointer bytes
        assert total == 6 * 8 + 3 * 4

    def test_iter_csc_entries(self, smq, small_coo):
        entries = list(smq.iter_csc(coo_to_csc(small_coo)))
        assert [e.pointer for e in entries] == [0, 1, 2, 3, 4]
        assert all(e.flag == FLAG_CSC for e in entries)

    def test_entries_carry_values(self, smq, small_coo):
        entry = next(iter(smq.iter_csr(coo_to_csr(small_coo))))
        np.testing.assert_allclose(entry.values, [1.0, 2.0])
        assert entry.indices.tolist() == [0, 2]

    def test_pointer_stream_bytes(self, smq, small_coo):
        assert smq.pointer_stream_bytes(coo_to_csr(small_coo)) == 5 * 4


class TestPEArray:
    @pytest.fixture
    def pe(self):
        return PEArray(16)

    def test_vector_ops_for_width(self, pe):
        assert pe.vector_ops_for_width(16) == 1
        assert pe.vector_ops_for_width(17) == 2
        assert pe.vector_ops_for_width(8) == 1

    def test_lane_utilization(self, pe):
        assert pe.lane_utilization(16) == 1.0
        assert pe.lane_utilization(8) == 0.5

    def test_invalid_width(self, pe):
        with pytest.raises(ValueError):
            pe.vector_ops_for_width(0)

    def test_invalid_pe_count(self):
        with pytest.raises(ValueError):
            PEArray(0)

    def test_rwp_row_matches_dot(self, pe, rng):
        """Float32 operands, products accumulated in float64 (where they
        are exact), one rounding to float32: on these operands the
        exactly rounded dot product."""
        vals = rng.random(5, dtype=np.float32)
        dense = rng.random((5, 16), dtype=np.float32)
        out = pe.rwp_row(vals, dense.astype(np.float64))
        exact = [math.fsum(vals.astype(np.float64) * dense[:, k]) for k in range(16)]
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, np.array(exact, dtype=np.float32))

    def test_rwp_empty_row(self, pe):
        out = pe.rwp_row(np.zeros(0, dtype=np.float32), np.zeros((0, 16), np.float32))
        assert out.shape == (16,)
        assert not out.any()

