"""Compressed sparse row (CSR) matrix.

CSR is the format HyMM's row-wise-product (RWP) dataflow consumes
(paper Table I: "CSR (others)").  The pointer array is what the SMQ's
pointer buffer holds; ``indices``/``values`` fill the index buffer.
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
    as_index_array,
    compressed_index_arrays,
)


@dataclass
class CSRMatrix:
    """Compressed sparse row storage.

    ``indptr`` has ``shape[0] + 1`` entries; row ``i`` owns the slice
    ``indices[indptr[i]:indptr[i+1]]`` / ``values[...]`` with column
    indices strictly ascending within each row (sorted, no duplicates).
    Construction rejects any other layout: :meth:`permute_rows`,
    :meth:`row_block` and :func:`repro.sparse.convert.csr_to_csc` rely
    on it instead of re-sorting through COO.  ``indptr`` and
    ``indices`` are held as :data:`~repro.sparse.coo.INDEX_DTYPE`; a
    shape or nnz that does not fit it is rejected.
    """

    shape: tuple
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.shape = (int(self.shape[0]), int(self.shape[1]))
        self.values = np.asarray(self.values, dtype=VALUE_DTYPE)
        self.indptr, self.indices = compressed_index_arrays(
            self.shape, self.indptr, self.indices, self.values.size, by_row=True
        )
        self._validate()

    def _validate(self) -> None:
        if self.indices.size > 1:
            ascending = self.indices[1:] > self.indices[:-1]
            # A step across a row boundary (entry p - 1 ends a row, entry
            # p starts the next) may go down; empty rows repeat a boundary.
            starts = self.indptr[1:-1]
            starts = starts[(starts > 0) & (starts < self.indices.size)]
            ascending[starts - 1] = True
            if not ascending.all():
                raise ValueError(
                    "column indices must be strictly increasing within each row"
                )

    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries."""
        return int(self.values.size)

    def row(self, i: int) -> "Tuple[np.ndarray, np.ndarray]":
        """Return ``(col_indices, values)`` views of row ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def row_nnz(self, i: int) -> int:
        """Non-zero count of row ``i``."""
        return int(self.indptr[i + 1] - self.indptr[i])

    def row_degrees(self) -> np.ndarray:
        """Per-row non-zero counts (the out-degree vector for an adjacency matrix)."""
        return np.diff(self.indptr)

    def iter_rows(self) -> "Iterator[Tuple[int, np.ndarray, np.ndarray]]":
        """Yield ``(row, col_indices, values)`` for every non-empty row."""
        for i in range(self.shape[0]):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            if hi > lo:
                yield i, self.indices[lo:hi], self.values[lo:hi]

    def storage_bytes(self, pointer_bytes: int = INDEX_BYTES) -> int:
        """Bytes for the compressed stream: pointers + indices + values.

        This is the quantity the paper's Figure 6 compares against the
        region-tiled format.
        """
        return (
            self.indptr.size * pointer_bytes
            + self.nnz * INDEX_BYTES
            + self.nnz * VALUE_BYTES
        )

    def permute_rows(self, row_perm: np.ndarray) -> "CSRMatrix":
        """Relabel rows: row ``i`` moves to row ``row_perm[i]``.

        ``row_perm`` maps *old* index -> *new* index, as in
        :meth:`repro.sparse.coo.COOMatrix.permute`.  Each row's column
        run is copied whole, so the result stays canonical without a
        sort: one gather of ``indices`` and ``values``.
        """
        n_rows = self.shape[0]
        row_perm = as_index_array(row_perm, n_rows, "row")
        if row_perm.shape != (n_rows,) or not np.array_equal(
            np.bincount(row_perm, minlength=n_rows), np.ones(n_rows, dtype=INDEX_DTYPE)
        ):
            raise ValueError(f"row_perm must be a permutation of {n_rows} rows")
        old_of_new = np.empty(n_rows, dtype=INDEX_DTYPE)
        old_of_new[row_perm] = np.arange(n_rows, dtype=INDEX_DTYPE)
        counts = np.diff(self.indptr)[old_of_new]
        indptr = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        # Entry k of new row r reads old entry k - indptr[r] + old start.
        take = np.repeat(self.indptr[:-1][old_of_new] - indptr[:-1], counts)
        take += np.arange(self.nnz, dtype=INDEX_DTYPE)
        return CSRMatrix(self.shape, indptr, self.indices[take], self.values[take])

    def row_block(self, lo: int, hi: int) -> "CSRMatrix":
        """Rows ``[lo, hi)`` as a CSR matrix of views.

        ``indices``/``values`` are views into this matrix; only the
        pointer array is new (rebased to start at 0).
        """
        if not 0 <= lo <= hi <= self.shape[0]:
            raise ValueError(f"row range [{lo}, {hi}) out of bounds")
        start, stop = self.indptr[lo], self.indptr[hi]
        return CSRMatrix(
            (hi - lo, self.shape[1]),
            self.indptr[lo:hi + 1] - start,
            self.indices[start:stop],
            self.values[start:stop],
        )

    def to_coo(self) -> COOMatrix:
        """Expand back to canonical COO triplets."""
        rows = np.repeat(
            np.arange(self.shape[0], dtype=INDEX_DTYPE), np.diff(self.indptr)
        )
        return COOMatrix(self.shape, rows, self.indices.copy(), self.values.copy())

    def to_dense(self) -> np.ndarray:
        """Materialise as dense ``float32`` (tests / small matrices only)."""
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        rows = np.repeat(
            np.arange(self.shape[0], dtype=INDEX_DTYPE), np.diff(self.indptr)
        )
        out[rows, self.indices] = self.values
        return out

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "CSRMatrix":
        """Compress canonical COO triplets (already row-major sorted)."""
        # Row i starts at the first entry whose row is >= i.
        indptr = np.searchsorted(coo.rows, np.arange(coo.shape[0] + 1, dtype=INDEX_DTYPE))
        return cls(coo.shape, indptr, coo.cols.copy(), coo.values.copy())

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
