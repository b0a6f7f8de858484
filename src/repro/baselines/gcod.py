"""G-CoD proxy: cluster-partitioned outer-product aggregation.

G-CoD (Table I) aggregates with an outer product over CSC, combines
with a row-wise product over CSR, and preprocesses the graph into dense
and sparse clusters ("Partitioning & tuning") so the dense part enjoys
partial-output locality.  Its real partitioner is an
algorithm/accelerator co-design; per DESIGN.md's substitution rule we
stand in the same degree-based split HyMM's planner produces (dense
cluster = high-degree rows, sparse cluster = the rest), which preserves
the behaviour that matters -- partials of the dense cluster stay
resident, the sparse remainder pays the scattered read-modify-write
cost.

The contrast with HyMM is exactly the paper's Table I row: G-CoD stays
outer-product *everywhere* in aggregation, so the sparse cluster
thrashes where HyMM's row-wise engine would exploit the hot columns.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gcn.model import GCNModel
from repro.graphs.partition import plan_regions
from repro.graphs.preprocess import degree_sort
from repro.hymm.base import AcceleratorBase
from repro.hymm.config import HyMMConfig
from repro.hymm.kernels import KernelContext, aggregation_op
from repro.sparse import coo_to_csc
from repro.sparse.coo import VALUE_DTYPE


class GCoDAccelerator(AcceleratorBase):
    """Outer-product aggregation over dense/sparse clusters (G-CoD proxy)."""

    name = "gcod"

    def __init__(self, config: Optional[HyMMConfig] = None) -> None:
        if config is None:
            # Prior-accelerator organisation: split input/output buffers.
            config = HyMMConfig(unified_buffer=False)
        super().__init__(config)

    def prepare(self, model: GCNModel) -> dict:
        cfg = self.config
        dataset = model.dataset
        sort = degree_sort(dataset.adjacency)
        perm = sort.permutation
        sorted_norm = model.norm_adj.permute(row_perm=perm, col_perm=perm)
        plan = plan_regions(
            sorted_norm,
            hidden_dim=dataset.hidden_dim,
            dmb_bytes=cfg.dmb_bytes,
            threshold_fraction=cfg.threshold_fraction,
            resident_fraction=cfg.resident_fraction,
        )
        n = sorted_norm.shape[0]
        sparse_cluster = sorted_norm.submatrix(plan.threshold, n, 0, n)

        return {
            "features": dataset.features.permute_rows(perm),
            "sort_ms": sort.elapsed_ms,  # partitioning cost proxy
            "permutation": perm,
            "plan": plan,
            "sparse_cluster_csc": coo_to_csc(sparse_cluster),
        }

    def run_aggregation(self, ctx: KernelContext, prep: dict, xw: np.ndarray) -> np.ndarray:
        plan = prep["plan"]
        n = xw.shape[0]
        h = xw.shape[1]
        out = np.zeros((n, h), dtype=VALUE_DTYPE)
        # Dense clusters: OP with the output band resident -> merges are
        # cheap read-modify-writes that hit on-chip.
        for tile in plan.tiled.tiles_in_region(1):
            aggregation_op(
                ctx,
                tile.matrix,
                xw,
                out=out,
                row_offset=tile.row_lo,
                merge_mode="pe",
                finalize=True,
            )
        # Sparse cluster: still outer product (Table I), scattered over
        # the remaining rows -- the part HyMM replaces with RWP.
        sparse_csc = prep["sparse_cluster_csc"]
        if sparse_csc.nnz:
            aggregation_op(
                ctx,
                sparse_csc,
                xw,
                out=out,
                row_offset=plan.threshold,
                merge_mode="pe",
                finalize=True,
            )
        return out
