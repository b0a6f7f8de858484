"""Sparse matrix queue (SMQ) -- paper Section IV-A.

The SMQ fetches the compressed sparse operand (pointers, then indices
and values) from off-chip memory into small on-chip stream buffers and
feeds entries to the LSQ/PE pipeline.  Both CSR and CSC share the
pointer+index structure, so one queue handles both; a per-entry flag
says which format (and therefore which dataflow) the entry belongs to.

In the simulator the SMQ's two roles are:

* **traffic accounting** -- every pointer, index and value byte of the
  sparse operand is charged to the DRAM stream (tag ``"A"`` or ``"X"``);
* **latency hiding** -- the stream buffers give the frontend slack
  (see ``smq_buffer_bytes`` in
  :class:`repro.sim.engine.AccessExecuteEngine`), so sequential operand
  fetch only throttles compute when bandwidth itself saturates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.sparse import CSCMatrix, CSRMatrix
from repro.sparse.coo import INDEX_BYTES, VALUE_BYTES

FLAG_CSR = 0
FLAG_CSC = 1


def csr_row_stream_bytes(nnz: int, extra_pointers: int = 1) -> int:
    """Stream bytes one CSR row costs: its pointer(s) plus nnz (index,
    value) pairs.  ``extra_pointers`` accounts for rows that span
    multiple storage tiles (each tile carries its own row pointer)."""
    return extra_pointers * INDEX_BYTES + nnz * (INDEX_BYTES + VALUE_BYTES)


def csc_col_stream_bytes(nnz: int, extra_pointers: int = 1) -> int:
    """Stream bytes one CSC column costs (same structure as CSR rows)."""
    return extra_pointers * INDEX_BYTES + nnz * (INDEX_BYTES + VALUE_BYTES)


@dataclass(frozen=True)
class SMQEntry:
    """One group of SMQ entries handed to the pipeline.

    For CSR (flag ``FLAG_CSR``) this is one sparse *row*: ``pointer`` is
    the output row the results accumulate into, ``indices`` name the
    dense rows to load.  For CSC (``FLAG_CSC``) it is one sparse
    *column*: ``pointer`` names the dense row to load, ``indices`` name
    the output rows the partial products scatter to (Section IV-A).
    """

    flag: int
    pointer: int
    indices: np.ndarray
    values: np.ndarray
    stream_bytes: int
    #: Span of this entry in the operand's ``values`` array
    #: (``values is matrix.values[lo:hi]``).  The aggregation kernels
    #: convert the whole operand's values to float64 once and slice per
    #: entry with these, instead of calling ``astype`` on every entry.
    lo: int = 0
    hi: int = 0


class SparseMatrixQueue:
    """Iterate a compressed matrix as the SMQ would deliver it."""

    def __init__(self, pointer_buffer_bytes: int = 4 * 1024,
                 index_buffer_bytes: int = 12 * 1024):
        if pointer_buffer_bytes <= 0 or index_buffer_bytes <= 0:
            raise ValueError("SMQ buffer sizes must be positive")
        self.pointer_buffer_bytes = pointer_buffer_bytes
        self.index_buffer_bytes = index_buffer_bytes

    @property
    def buffer_bytes(self) -> int:
        """Total stream-buffer capacity (frontend slack for the engine)."""
        return self.pointer_buffer_bytes + self.index_buffer_bytes

    def iter_csr(
        self, matrix: CSRMatrix, extra_pointers: int = 1
    ) -> Iterator[SMQEntry]:
        """Yield non-empty rows of a CSR operand, with byte costs."""
        indptr = matrix.indptr
        indices = matrix.indices
        values = matrix.values
        for row in range(matrix.shape[0]):
            lo = int(indptr[row])
            hi = int(indptr[row + 1])
            if hi > lo:
                yield SMQEntry(
                    FLAG_CSR,
                    row,
                    indices[lo:hi],
                    values[lo:hi],
                    csr_row_stream_bytes(hi - lo, extra_pointers),
                    lo,
                    hi,
                )

    def iter_csc(
        self, matrix: CSCMatrix, extra_pointers: int = 1
    ) -> Iterator[SMQEntry]:
        """Yield non-empty columns of a CSC operand, with byte costs."""
        indptr = matrix.indptr
        indices = matrix.indices
        values = matrix.values
        for col in range(matrix.shape[1]):
            lo = int(indptr[col])
            hi = int(indptr[col + 1])
            if hi > lo:
                yield SMQEntry(
                    FLAG_CSC,
                    col,
                    indices[lo:hi],
                    values[lo:hi],
                    csc_col_stream_bytes(hi - lo, extra_pointers),
                    lo,
                    hi,
                )

    @staticmethod
    def pointer_stream_bytes(matrix) -> int:
        """Bytes of the pointer array fetched at operand start."""
        return int(matrix.indptr.size) * INDEX_BYTES
