"""Row-wise-product baseline (GROW-proxy).

Both phases use the row-wise product (Table I: GROW aggregates and
combines row-stationary over CSR).  No graph preprocessing: the
adjacency is consumed in natural node order, so the dataflow can only
exploit whatever column clustering the raw graph happens to have.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gcn.model import GCNModel
from repro.hymm.base import AcceleratorBase
from repro.hymm.config import HyMMConfig
from repro.hymm.kernels import KernelContext, aggregation_rwp
from repro.sparse import coo_to_csr


class RWPAccelerator(AcceleratorBase):
    """Homogeneous row-wise-product accelerator.

    Like the other prior-art proxies, it defaults to the *split*
    input/output buffer organisation the paper ascribes to earlier
    accelerators ("Prior GCN accelerators equip separated buffers for
    different types of matrices", Section III); pass an explicit config
    to change that.
    """

    name = "rwp"

    def __init__(self, config: Optional[HyMMConfig] = None) -> None:
        if config is None:
            config = HyMMConfig(unified_buffer=False)
        super().__init__(config)

    def prepare(self, model: GCNModel) -> dict:
        prep = super().prepare(model)
        prep["adj_csr"] = coo_to_csr(model.norm_adj)
        return prep

    def run_aggregation(self, ctx: KernelContext, prep: dict, xw: np.ndarray) -> np.ndarray:
        return aggregation_rwp(ctx, prep["adj_csr"], xw)
