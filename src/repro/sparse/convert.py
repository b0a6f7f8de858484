"""Conversions between the sparse formats.

All conversions round-trip exactly (the property-based tests in
``tests/sparse/test_convert.py`` assert this).  COO is the canonical hub
format; :func:`csr_to_csc` skips it, because a canonical CSR matrix is
already row-major sorted and a stable sort by column finishes the job.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix, INDEX_DTYPE
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix


def coo_to_csr(coo: COOMatrix) -> CSRMatrix:
    """Compress COO triplets into CSR."""
    return CSRMatrix.from_coo(coo)


def coo_to_csc(coo: COOMatrix) -> CSCMatrix:
    """Compress COO triplets into CSC."""
    return CSCMatrix.from_coo(coo)


def csr_to_coo(csr: CSRMatrix) -> COOMatrix:
    """Expand CSR into canonical COO."""
    return csr.to_coo()


def csc_to_coo(csc: CSCMatrix) -> COOMatrix:
    """Expand CSC into canonical COO."""
    return csc.to_coo()


def csr_to_csc(csr: CSRMatrix) -> CSCMatrix:
    """Re-compress a CSR matrix in column-major order.

    A stable sort of the column indices keeps each column's entries in
    ascending row order, so the result equals
    ``CSCMatrix.from_coo(csr.to_coo())`` without the COO copy.
    """
    n_rows, n_cols = csr.shape
    # bincount and argsort each make an 8-byte array per non-zero (an
    # index copy, the sort positions): the counts come first, and the
    # positions -- which fit the index width, as nnz does -- are
    # narrowed at once, so neither overlaps the gathers below.
    indptr = np.zeros(n_cols + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(csr.indices, minlength=n_cols), out=indptr[1:])
    order = np.argsort(csr.indices, kind="stable").astype(INDEX_DTYPE)
    rows = np.repeat(np.arange(n_rows, dtype=INDEX_DTYPE), csr.row_degrees())[order]
    return CSCMatrix(csr.shape, indptr, rows, csr.values[order])


def csc_to_csr(csc: CSCMatrix) -> CSRMatrix:
    """Re-compress a CSC matrix in row-major order."""
    return CSRMatrix.from_coo(csc.to_coo())


def dense_to_coo(dense: np.ndarray) -> COOMatrix:
    """Extract the non-zero triplets of a dense array."""
    return COOMatrix.from_dense(dense)


def dense_to_csr(dense: np.ndarray) -> CSRMatrix:
    """Compress a dense array straight to CSR."""
    return CSRMatrix.from_coo(COOMatrix.from_dense(dense))


def dense_to_csc(dense: np.ndarray) -> CSCMatrix:
    """Compress a dense array straight to CSC."""
    return CSCMatrix.from_coo(COOMatrix.from_dense(dense))
