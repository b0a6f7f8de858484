"""Outer-product baseline (GCNAX-proxy).

Both phases use the outer product over CSC operands (Table I: GCNAX
aggregates and combines with outer products).  Partial outputs merge
according to ``merge_mode``:

* ``"pe"`` (default) -- read-modify-write through the PE array, the
  cost the paper attributes to OP baselines ("wasted cycles caused by
  merging partial outputs");
* ``"deferred"`` -- OuterSpace-style append-then-merge, the
  no-accumulator configuration of the Figure 10 comparison;
* ``"dmb"`` -- borrow HyMM's near-memory accumulator (for ablations).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gcn.model import GCNModel
from repro.hymm.base import AcceleratorBase
from repro.hymm.config import HyMMConfig
from repro.hymm.kernels import KernelContext, aggregation_op, combination_op
from repro.sparse import CSRMatrix, coo_to_csc, csr_to_csc


class OPAccelerator(AcceleratorBase):
    """Homogeneous outer-product accelerator."""

    name = "op"

    def __init__(self, config: Optional[HyMMConfig] = None, merge_mode: str = "pe") -> None:
        if config is None:
            # Prior-accelerator organisation: split input/output buffers.
            config = HyMMConfig(unified_buffer=False)
        super().__init__(config)
        self.merge_mode = merge_mode
        if merge_mode != "pe":
            self.name = f"op-{merge_mode}"

    def prepare(self, model: GCNModel) -> dict:
        prep = super().prepare(model)
        prep["adj_csc"] = coo_to_csc(model.norm_adj)
        prep["features_csc"] = csr_to_csc(model.dataset.features)
        return prep

    def run_combination(
        self, ctx: KernelContext, prep: dict, features: CSRMatrix, weights: np.ndarray
    ) -> np.ndarray:
        # The CSC view prepared up front is what the OP engine streams.
        return combination_op(
            ctx, prep["features_csc"], weights, merge_mode=self.merge_mode
        )

    def run_aggregation(self, ctx: KernelContext, prep: dict, xw: np.ndarray) -> np.ndarray:
        return aggregation_op(
            ctx, prep["adj_csc"], xw, merge_mode=self.merge_mode
        )
