"""Compressed sparse column (CSC) matrix.

CSC is the format HyMM's outer-product (OP) dataflow consumes (paper
Table I: "CSC (region 1)").  Each column's pointer tells the SMQ which
dense-matrix row to stream; the indices name the output rows whose
partial sums the column updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.sparse.coo import (
    INDEX_BYTES,
    INDEX_DTYPE,
    VALUE_BYTES,
    VALUE_DTYPE,
    COOMatrix,
    compressed_index_arrays,
)


@dataclass
class CSCMatrix:
    """Compressed sparse column storage.

    ``indptr`` has ``shape[1] + 1`` entries; column ``j`` owns the slice
    ``indices[indptr[j]:indptr[j+1]]`` / ``values[...]`` with row indices
    sorted ascending within each column.  ``indptr`` and ``indices`` are
    held as :data:`~repro.sparse.coo.INDEX_DTYPE`; a shape or nnz that
    does not fit it is rejected.
    """

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.shape = (int(self.shape[0]), int(self.shape[1]))
        self.values = np.asarray(self.values, dtype=VALUE_DTYPE)
        self.indptr, self.indices = compressed_index_arrays(
            self.shape, self.indptr, self.indices, self.values.size, by_row=False
        )

    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries."""
        return int(self.values.size)

    def col(self, j: int) -> "Tuple[np.ndarray, np.ndarray]":
        """Return ``(row_indices, values)`` views of column ``j``."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def col_nnz(self, j: int) -> int:
        """Non-zero count of column ``j``."""
        return int(self.indptr[j + 1] - self.indptr[j])

    def col_degrees(self) -> np.ndarray:
        """Per-column non-zero counts (the in-degree vector for an adjacency matrix)."""
        return np.diff(self.indptr)

    def iter_cols(self) -> "Iterator[Tuple[int, np.ndarray, np.ndarray]]":
        """Yield ``(col, row_indices, values)`` for every non-empty column."""
        for j in range(self.shape[1]):
            lo, hi = self.indptr[j], self.indptr[j + 1]
            if hi > lo:
                yield j, self.indices[lo:hi], self.values[lo:hi]

    def storage_bytes(self, pointer_bytes: int = INDEX_BYTES) -> int:
        """Bytes for the compressed stream: pointers + indices + values."""
        return (
            self.indptr.size * pointer_bytes
            + self.nnz * INDEX_BYTES
            + self.nnz * VALUE_BYTES
        )

    def to_coo(self) -> COOMatrix:
        """Expand back to canonical COO triplets."""
        cols = np.repeat(
            np.arange(self.shape[1], dtype=INDEX_DTYPE), np.diff(self.indptr)
        )
        return COOMatrix(self.shape, self.indices.copy(), cols, self.values.copy())

    def to_dense(self) -> np.ndarray:
        """Materialise as dense ``float32`` (tests / small matrices only)."""
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        cols = np.repeat(
            np.arange(self.shape[1], dtype=INDEX_DTYPE), np.diff(self.indptr)
        )
        out[self.indices, cols] = self.values
        return out

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSCMatrix":
        """Compress canonical COO triplets, re-sorting to column-major order."""
        order = np.lexsort((coo.rows, coo.cols)).astype(INDEX_DTYPE)
        rows = coo.rows[order]
        cols = coo.cols[order]
        values = coo.values[order]
        # Column j starts at the first entry whose column is >= j.
        indptr = np.searchsorted(cols, np.arange(coo.shape[1] + 1, dtype=INDEX_DTYPE))
        return cls(coo.shape, indptr, rows, values)

    def __repr__(self) -> str:
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"
