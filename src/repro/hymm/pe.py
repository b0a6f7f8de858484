"""Processing engine array -- paper Section IV-C.

The PE array is 16 single-precision MAC units operating in lock-step on
one 64-byte vector per cycle.  Timing lives in
:class:`repro.sim.engine.AccessExecuteEngine`; this module provides the
*functional* datapath (the actual arithmetic, so every simulation also
produces the numerically correct result matrix) and the stationary
buffer bookkeeping:

* **RWP mode** is output-stationary: the accumulating output row sits in
  the PE stationary buffers while scalars from the sparse row stream by.
* **OP mode** is input-stationary: the dense row of the current sparse
  column sits in the stationary buffers while partial products stream
  out toward the DMB accumulator (the OP kernels in
  :mod:`repro.hymm.kernels` scatter-add them in float64).

Both modes follow one arithmetic rule: float32 operands, products
accumulated in float64 (where they are exact), and one rounding of each
output element to float32.  So every dataflow computes the same bits,
except where two float64 sums taken in different orders round to
different float32 values, which is rare.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import VALUE_DTYPE


class PEArray:
    """Functional model of the 16-MAC PE array."""

    def __init__(self, n_pes: int = 16) -> None:
        if n_pes <= 0:
            raise ValueError("n_pes must be positive")
        self.n_pes = n_pes

    def vector_ops_for_width(self, width: int) -> int:
        """Array passes needed for a ``width``-element row (1 for h=16)."""
        if width <= 0:
            raise ValueError("width must be positive")
        return -(-width // self.n_pes)

    def lane_utilization(self, width: int) -> float:
        """Fraction of MAC lanes active for rows of the given width."""
        passes = self.vector_ops_for_width(width)
        return width / (passes * self.n_pes)

    # ------------------------------------------------------------------
    # Functional datapaths
    # ------------------------------------------------------------------
    @staticmethod
    def rwp_row(values: np.ndarray, dense_rows: np.ndarray) -> np.ndarray:
        """Output-stationary accumulation of one sparse row.

        ``values`` are the row's non-zero scalars, ``dense_rows`` the
        matching dense rows (``nnz x width``); returns the finished
        output row.  Callers pass ``dense_rows`` already in float64 (one
        conversion per kernel call): the float32 products are exact in
        float64, accumulate there, and round to float32 once -- the
        same rule as every outer-product path.
        """
        if values.size == 0:
            return np.zeros(dense_rows.shape[1] if dense_rows.ndim == 2 else 0,
                            dtype=VALUE_DTYPE)
        return (values.astype(np.float64) @ dense_rows).astype(VALUE_DTYPE)
