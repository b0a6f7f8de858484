"""Coordinate-format (COO) sparse matrix.

COO is the interchange format of this package: the synthetic graph
generator emits COO, and the adjacency's compressed formats (CSR/CSC,
the tiled region format) are derived from it.  Entries are canonicalised --
row-major sorted with duplicates summed -- on construction so that
format conversions and equality checks are deterministic.

Every index array of every format (COO coordinates, CSR/CSC pointers
and indices, the tiles of the region format, node permutations) is
held at the accelerator's index width, :data:`INDEX_BYTES`, so the
host arrays cost what the simulated streams charge.  A matrix whose
dimension or non-zero count does not fit that width is rejected with a
``ValueError`` when it is built (:func:`check_index_range`), and an
index array is range-checked *before* it is narrowed
(:func:`as_index_array`): no index ever wraps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:
    import numpy.typing as npt

#: Bytes used to store one index element in compressed streams.  The
#: accelerator uses 4-byte indices (graphs in Table II all fit in 32 bits).
INDEX_BYTES = 4
#: Host dtype of every index array: the simulated width, ``int32``.
INDEX_DTYPE = np.dtype(f"int{8 * INDEX_BYTES}").type
#: Largest dimension or non-zero count an index of that width holds.
INDEX_MAX = int(np.iinfo(INDEX_DTYPE).max)
VALUE_DTYPE = np.float32
#: Bytes per stored non-zero value (single precision, Table III).
VALUE_BYTES = 4
#: Non-zeros :meth:`COOMatrix.col_degrees` counts at a time.  A slice
#: is never shorter than the column count, so the per-slice counts it
#: adds up cost no more than the non-zeros themselves.
_DEGREE_SLICE = 1 << 12


def check_index_range(shape: Tuple[int, int], nnz: int) -> None:
    """Raise ``ValueError`` unless both dimensions of ``shape`` and
    ``nnz`` fit an :data:`INDEX_BYTES`-byte index."""
    for what, value in (("rows", shape[0]), ("columns", shape[1]), ("non-zeros", nnz)):
        if value > INDEX_MAX:
            raise ValueError(
                f"{value} {what} do not fit a {INDEX_BYTES}-byte index "
                f"(at most {INDEX_MAX})"
            )


def as_index_array(values: npt.ArrayLike, bound: int, what: str) -> np.ndarray:
    """``values`` as an :data:`INDEX_DTYPE` array, every entry checked to
    lie in ``[0, bound)`` first -- so a wider input is never wrapped --
    and copied only when its dtype differs."""
    array = np.asarray(values)
    if array.size and (array.min() < 0 or array.max() >= bound):
        raise ValueError(f"{what} index out of bounds")
    return array.astype(INDEX_DTYPE, copy=False)


def compressed_index_arrays(
    shape: Tuple[int, int],
    indptr: npt.ArrayLike,
    indices: npt.ArrayLike,
    n_values: int,
    by_row: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """The checked ``(indptr, indices)`` of a compressed matrix, as
    :data:`INDEX_DTYPE`: one pointer per row (CSR, ``by_row``) or per
    column (CSC), and the other axis's index per non-zero.

    Rejects a shape or nnz the index width cannot hold, a pointer array
    of the wrong length, not starting at 0, not ending at nnz or
    decreasing, ``n_values`` other than nnz, and an index out of bounds
    -- all before either array is narrowed.
    """
    ptr, idx = np.asarray(indptr), np.asarray(indices)
    check_index_range(shape, idx.size)
    n_ptr, n_idx = shape if by_row else (shape[1], shape[0])
    if ptr.size != n_ptr + 1:
        raise ValueError(f"indptr must have {n_ptr + 1} entries, got {ptr.size}")
    if ptr[0] != 0 or ptr[-1] != idx.size:
        raise ValueError("indptr must start at 0 and end at nnz")
    if np.any(np.diff(ptr) < 0):
        raise ValueError("indptr must be non-decreasing")
    if idx.size != n_values:
        raise ValueError("indices and values must have equal length")
    # A non-decreasing pointer array from 0 to nnz lies in [0, nnz].
    return (
        ptr.astype(INDEX_DTYPE, copy=False),
        as_index_array(idx, n_idx, "column" if by_row else "row"),
    )


@dataclass
class COOMatrix:
    """A sparse matrix in canonical coordinate format.

    Parameters
    ----------
    shape:
        ``(rows, cols)`` of the logical dense matrix.
    rows, cols:
        Per-nonzero row / column indices, one entry each per non-zero,
        held as :data:`INDEX_DTYPE`.
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
        rows, cols = np.asarray(self.rows), np.asarray(self.cols)
        self.values = np.asarray(self.values, dtype=VALUE_DTYPE)
        if not (rows.shape == cols.shape == self.values.shape):
            raise ValueError(
                "rows, cols and values must have identical shapes; got "
                f"{rows.shape}, {cols.shape}, {self.values.shape}"
            )
        if rows.ndim != 1:
            raise ValueError("COO triplets must be one-dimensional arrays")
        check_index_range(self.shape, rows.size)
        self.rows = as_index_array(rows, self.shape[0], "row")
        self.cols = as_index_array(cols, self.shape[1], "column")
        if not self._canonical:
            self._canonicalise()
            self._canonical = True

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
        # Narrowed at once: the 8-byte positions lexsort returns would
        # otherwise outweigh the three gathers they drive.
        order = np.lexsort((self.cols, self.rows)).astype(INDEX_DTYPE)
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
        n_rows, n_cols = self.shape
        rows = self.rows if row_perm is None else as_index_array(row_perm, n_rows, "row")[self.rows]
        cols = self.cols if col_perm is None else as_index_array(col_perm, n_cols, "column")[self.cols]
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
        """Non-zero count of every row (length ``shape[0]``).

        The canonical ``rows`` are sorted, so each row's run is found by
        binary search; ``np.bincount`` would first copy every index to
        8 bytes.
        """
        bounds = np.searchsorted(
            self.rows, np.arange(self.shape[0] + 1, dtype=INDEX_DTYPE)
        )
        return np.diff(bounds).astype(INDEX_DTYPE)

    def col_degrees(self) -> np.ndarray:
        """Non-zero count of every column (length ``shape[1]``).

        Counted a slice of ``cols`` at a time, so the 8-byte copy
        ``np.bincount`` makes of its input spans one slice, not every
        non-zero.
        """
        n_cols = self.shape[1]
        step = max(_DEGREE_SLICE, n_cols)
        counts = np.zeros(n_cols, dtype=np.intp)
        for lo in range(0, self.nnz, step):
            counts += np.bincount(self.cols[lo:lo + step], minlength=n_cols)
        return counts.astype(INDEX_DTYPE)

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
