"""Coordinate-format (COO) sparse matrix.

COO is the interchange format of this package: the synthetic graph
generator emits COO, and the adjacency's compressed formats (CSR/CSC,
the tiled region format) are derived from it.  Entries are canonicalised --
row-major sorted with duplicates summed -- on construction so that
format conversions and equality checks are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INDEX_DTYPE = np.int64
VALUE_DTYPE = np.float32

#: Bytes used to store one index element in compressed streams.  The
#: accelerator uses 4-byte indices (graphs in Table II all fit in 32 bits).
INDEX_BYTES = 4
#: Bytes per stored non-zero value (single precision, Table III).
VALUE_BYTES = 4


@dataclass
class COOMatrix:
    """A sparse matrix in canonical coordinate format.

    Parameters
    ----------
    shape:
        ``(rows, cols)`` of the logical dense matrix.
    rows, cols:
        Per-nonzero row / column indices, one entry each per non-zero.
    values:
        Per-nonzero values (``float32``).

    The constructor canonicalises the triplets: entries are sorted in
    row-major order and duplicate coordinates are summed.  Explicit
    zeros are kept (an accelerator stream would still move them).
    """

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    _canonical: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        self.shape = (int(self.shape[0]), int(self.shape[1]))
        self.rows = np.asarray(self.rows, dtype=INDEX_DTYPE)
        self.cols = np.asarray(self.cols, dtype=INDEX_DTYPE)
        self.values = np.asarray(self.values, dtype=VALUE_DTYPE)
        if not (self.rows.shape == self.cols.shape == self.values.shape):
            raise ValueError(
                "rows, cols and values must have identical shapes; got "
                f"{self.rows.shape}, {self.cols.shape}, {self.values.shape}"
            )
        if self.rows.ndim != 1:
            raise ValueError("COO triplets must be one-dimensional arrays")
        self._validate_bounds()
        if not self._canonical:
            self._canonicalise()
            self._canonical = True

    def _validate_bounds(self) -> None:
        n_rows, n_cols = self.shape
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= n_rows:
                raise ValueError("row index out of bounds")
            if self.cols.min() < 0 or self.cols.max() >= n_cols:
                raise ValueError("column index out of bounds")

    def _canonicalise(self) -> None:
        """Sort row-major and merge duplicate coordinates by summing."""
        if self.rows.size == 0:
            return
        if self.rows.size > 1:
            row_step = self.rows[1:] > self.rows[:-1]
            col_step = (self.rows[1:] == self.rows[:-1]) & (
                self.cols[1:] > self.cols[:-1]
            )
            if bool(np.all(row_step | col_step)):
                # Already row-major sorted with no duplicate coordinates:
                # the O(nnz) check above is far cheaper than the lexsort.
                return
        order = np.lexsort((self.cols, self.rows))
        rows, cols, values = self.rows[order], self.cols[order], self.values[order]
        # Detect runs of identical (row, col) pairs and sum their values.
        new_run = np.empty(rows.size, dtype=bool)
        new_run[0] = True
        new_run[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        if new_run.all():
            self.rows, self.cols, self.values = rows, cols, values
            return
        run_ids = np.cumsum(new_run) - 1
        summed = np.zeros(run_ids[-1] + 1, dtype=np.float64)
        np.add.at(summed, run_ids, values.astype(np.float64))
        keep = np.flatnonzero(new_run)
        self.rows = rows[keep]
        self.cols = cols[keep]
        self.values = summed.astype(VALUE_DTYPE)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries."""
        return int(self.values.size)

    @property
    def density(self) -> float:
        """Fraction of cells that are stored (0.0 for an empty matrix)."""
        cells = self.shape[0] * self.shape[1]
        return self.nnz / cells if cells else 0.0

    def storage_bytes(self) -> int:
        """Bytes needed to stream this matrix as raw (row, col, value) triplets."""
        return self.nnz * (2 * INDEX_BYTES + VALUE_BYTES)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Extract the non-zero triplets of a dense 2-D array."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("dense input must be two-dimensional")
        rows, cols = np.nonzero(dense)
        return cls(dense.shape, rows, cols, dense[rows, cols])

    @classmethod
    def empty(cls, shape) -> "COOMatrix":
        """An all-zero matrix of the given shape."""
        zero = np.zeros(0, dtype=INDEX_DTYPE)
        return cls(shape, zero, zero.copy(), np.zeros(0, dtype=VALUE_DTYPE))

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense ``float32`` array (small matrices / tests)."""
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        np.add.at(out, (self.rows, self.cols), self.values)
        return out

    # ------------------------------------------------------------------
    # Structural transforms
    # ------------------------------------------------------------------
    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix (canonicalised)."""
        return COOMatrix(
            (self.shape[1], self.shape[0]),
            self.cols.copy(),
            self.rows.copy(),
            self.values.copy(),
        )

    def permute(self, row_perm: np.ndarray = None, col_perm: np.ndarray = None) -> "COOMatrix":
        """Relabel rows/columns: entry (i, j) moves to (row_perm[i], col_perm[j]).

        ``row_perm``/``col_perm`` map *old* index -> *new* index.  Either may
        be ``None`` to leave that axis untouched.  This is the primitive the
        degree-sorting preprocessing step (paper Table I, "Degree sorting")
        is built on.
        """
        rows = self.rows if row_perm is None else np.asarray(row_perm, dtype=INDEX_DTYPE)[self.rows]
        cols = self.cols if col_perm is None else np.asarray(col_perm, dtype=INDEX_DTYPE)[self.cols]
        return COOMatrix(self.shape, rows, cols, self.values.copy())

    def submatrix(self, row_lo: int, row_hi: int, col_lo: int, col_hi: int) -> "COOMatrix":
        """Extract the half-open block ``[row_lo, row_hi) x [col_lo, col_hi)``.

        Indices in the result are rebased to the block origin.  Used by the
        region partitioner to slice the degree-sorted adjacency matrix into
        the paper's regions (1), (2) and (3).
        """
        if not (0 <= row_lo <= row_hi <= self.shape[0]):
            raise ValueError(f"row range [{row_lo}, {row_hi}) out of bounds")
        if not (0 <= col_lo <= col_hi <= self.shape[1]):
            raise ValueError(f"col range [{col_lo}, {col_hi}) out of bounds")
        mask = (
            (self.rows >= row_lo)
            & (self.rows < row_hi)
            & (self.cols >= col_lo)
            & (self.cols < col_hi)
        )
        return COOMatrix(
            (row_hi - row_lo, col_hi - col_lo),
            self.rows[mask] - row_lo,
            self.cols[mask] - col_lo,
            self.values[mask],
            # A masked subset of canonical triplets stays sorted and
            # duplicate-free; rebasing shifts both axes uniformly.
            _canonical=True,
        )

    def row_degrees(self) -> np.ndarray:
        """Non-zero count of every row (length ``shape[0]``)."""
        return np.bincount(self.rows, minlength=self.shape[0]).astype(INDEX_DTYPE)

    def col_degrees(self) -> np.ndarray:
        """Non-zero count of every column (length ``shape[1]``)."""
        return np.bincount(self.cols, minlength=self.shape[1]).astype(INDEX_DTYPE)

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def allclose(self, other: "COOMatrix", rtol: float = 1e-5, atol: float = 1e-6) -> bool:
        """Structural + numeric equality within floating-point tolerance."""
        if self.shape != other.shape or self.nnz != other.nnz:
            return False
        return (
            bool(np.array_equal(self.rows, other.rows))
            and bool(np.array_equal(self.cols, other.cols))
            and bool(np.allclose(self.values, other.values, rtol=rtol, atol=atol))
        )

    def __repr__(self) -> str:
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"
