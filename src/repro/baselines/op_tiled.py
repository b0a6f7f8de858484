"""Output-tiled outer-product baseline (GCNAX's loop-tiling design point).

The plain :class:`repro.baselines.op.OPAccelerator` scatters partial
outputs across the whole output matrix and pays the thrash the paper
attributes to OP engines.  The *tiled* variant models what GCNAX's
flexible loop optimisation actually buys: the output is processed in
row bands sized to the on-chip partial-sum capacity, so every partial
accumulation hits on-chip -- at the price of re-streaming the dense
operand once per band (each band's columns need their dense rows again)
and re-reading per-band sparse pointers.

This is the classic locality trade: partial-output locality bought with
input-stream redundancy.  On power-law graphs nearly every column has a
non-zero in every band, so the dense matrix is re-streamed almost
``n_bands`` times -- which is exactly the traffic HyMM's region
1 / region 2 split avoids.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.gcn.model import GCNModel
from repro.hymm.base import AcceleratorBase
from repro.hymm.config import HyMMConfig
from repro.hymm.kernels import KernelContext, aggregation_op, combination_op
from repro.sparse import CSCMatrix, CSRMatrix, coo_to_csr, csr_to_csc
from repro.sparse.coo import VALUE_DTYPE


def _row_bands(csr: CSRMatrix, band_rows: int) -> List[Tuple[int, CSCMatrix]]:
    """Slice a matrix into row bands, each in CSC for the OP engine."""
    n = csr.shape[0]
    bands = []
    for lo in range(0, n, band_rows):
        block = csr.row_block(lo, min(lo + band_rows, n))
        if block.nnz:
            bands.append((lo, csr_to_csc(block)))
    return bands


class TiledOPAccelerator(AcceleratorBase):
    """Outer product with output-row tiling (GCNAX-with-tiling proxy).

    ``band_rows=None`` sizes bands to the partial-sum capacity of the
    buffer organisation (half the buffer for the default split
    organisation), guaranteeing on-chip accumulation.  Accumulation
    within a resident band is charged like a fused MAC (GCNAX's PEs
    accumulate into their partial-sum buffer at one op per non-zero).
    """

    name = "op-tiled"

    def __init__(
        self,
        config: Optional[HyMMConfig] = None,
        band_rows: Optional[int] = None,
    ) -> None:
        if config is None:
            config = HyMMConfig(unified_buffer=False)
        super().__init__(config)
        if band_rows is not None and band_rows <= 0:
            raise ValueError("band_rows must be positive")
        self._explicit_band = band_rows

    def band_rows(self, width: int) -> int:
        """Rows per output band for ``width``-element output rows."""
        if self._explicit_band is not None:
            return self._explicit_band
        lines = self.config.capacity_lines
        if not self.config.unified_buffer:
            lines //= 2  # partials live in the output half
        # Keep a small streaming margin, as HyMM's planner does.
        usable = max(1, int(lines * 0.9))
        return max(1, usable // self.config.lines_per_row(width))

    def prepare(self, model: GCNModel) -> dict:
        prep = super().prepare(model)
        h = model.dataset.hidden_dim
        band = self.band_rows(h)
        prep["adj_bands"] = _row_bands(coo_to_csr(model.norm_adj), band)
        prep["feature_bands"] = _row_bands(model.dataset.features, band)
        prep["band_rows"] = band
        return prep

    def _run_banded(
        self,
        ctx: KernelContext,
        bands: List[Tuple[int, CSCMatrix]],
        kernel: "Callable[..., np.ndarray]",
        operand: np.ndarray,
        out_rows: int,
        width: int,
    ) -> np.ndarray:
        out = np.zeros((out_rows, width), dtype=VALUE_DTYPE)
        tracer = ctx.engine.tracer
        for lo, band_csc in bands:
            t0 = ctx.engine.drain()
            kernel(
                ctx,
                band_csc,
                operand,
                out=out,
                row_offset=lo,
                merge_mode="dmb",  # resident-band accumulation (see class doc)
                extra_pointers=1,
                finalize=True,
            )
            if tracer.enabled:
                tracer.span(
                    "op-band", t0, ctx.engine.drain(), "region",
                    {"row_lo": int(lo), "rows": int(band_csc.shape[0])},
                )
        return out

    def run_combination(
        self, ctx: KernelContext, prep: dict, features: CSRMatrix, weights: np.ndarray
    ) -> np.ndarray:
        return self._run_banded(
            ctx,
            prep["feature_bands"],
            combination_op_banded,
            weights,
            features.shape[0],
            weights.shape[1],
        )

    def run_aggregation(self, ctx: KernelContext, prep: dict, xw: np.ndarray) -> np.ndarray:
        return self._run_banded(
            ctx,
            prep["adj_bands"],
            aggregation_op,
            xw,
            xw.shape[0],
            xw.shape[1],
        )


def combination_op_banded(
    ctx: KernelContext,
    features_band_csc: CSCMatrix,
    weights: np.ndarray,
    out: np.ndarray,
    row_offset: int,
    merge_mode: str = "dmb",
    extra_pointers: int = 1,
    finalize: bool = True,
) -> np.ndarray:
    """One output band of an outer-product combination.

    Wraps :func:`repro.hymm.kernels.combination_op` on a row band and
    scatters its result into the full output at ``row_offset``; the
    weight rows of the band's non-empty columns are re-streamed, which
    is the tiling's traffic cost.
    """
    band_out = combination_op(ctx, features_band_csc, weights, merge_mode=merge_mode)
    rows = features_band_csc.shape[0]
    out[row_offset:row_offset + rows] += band_out
    return out
