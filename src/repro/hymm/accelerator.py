"""The HyMM accelerator: degree sorting + region tiling + hybrid dataflow."""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.gcn.model import GCNModel
from repro.graphs.partition import plan_regions
from repro.graphs.preprocess import degree_sort
from repro.hymm.base import AcceleratorBase
from repro.hymm.kernels import KernelContext, aggregation_hybrid
from repro.sparse import coo_to_csr
from repro.sparse.coo import INDEX_DTYPE


class HyMMAccelerator(AcceleratorBase):
    """The paper's accelerator (Sections III-IV).

    Preprocessing: the graph is degree-sorted (the only preprocessing
    HyMM needs, Table I) and the normalised adjacency is tiled into
    regions per Section IV-E.  Aggregation runs the hybrid schedule --
    outer product with the near-memory accumulator over the high-degree
    region-1 tiles, then row-wise product over the rest.  Combination is
    row-wise product, as in Table I.

    ``sort_mode`` ablates the preprocessing: ``"degree"`` (the paper),
    ``"random"`` (a random relabelling -- tiling without the degree
    signal), or ``"none"`` (original order).  Results are mapped back
    to original node order either way, so outputs compare directly
    against baselines and the NumPy oracle.

    ``sort_seed`` seeds the ``"random"`` relabelling.  It flows in from
    the caller (``JobSpec.seed`` through the runtime's
    ``make_accelerator``) so the permutation is part of the job's
    fingerprinted identity -- a hard-coded seed here would make jobs
    that differ only in ``seed`` simulate identically, silently.
    """

    name = "hymm"

    SORT_MODES = ("degree", "random", "none")

    def __init__(
        self,
        config: Optional[HyMMConfig] = None,
        sort_mode: str = "degree",
        sort_seed: int = 0,
    ) -> None:
        super().__init__(config)
        if sort_mode not in self.SORT_MODES:
            raise ValueError(
                f"sort_mode must be one of {self.SORT_MODES}, got {sort_mode!r}"
            )
        self.sort_mode = sort_mode
        self.sort_seed = int(sort_seed)
        if sort_mode != "degree":
            self.name = f"hymm-{sort_mode}sort" if sort_mode == "random" else "hymm-nosort"

    def _permutation(self, dataset: Any) -> Tuple[np.ndarray, float]:
        """(permutation, sorting cost in ms) per the configured mode."""
        if self.sort_mode == "degree":
            sort = degree_sort(dataset.adjacency)
            return sort.permutation, sort.elapsed_ms
        n = dataset.n_nodes
        if self.sort_mode == "random":
            rng = np.random.default_rng(self.sort_seed)
            return rng.permutation(n).astype(INDEX_DTYPE), 0.0
        return np.arange(n, dtype=INDEX_DTYPE), 0.0

    def prepare(self, model: GCNModel) -> Dict[str, Any]:
        cfg = self.config
        dataset = model.dataset
        perm, sort_ms = self._permutation(dataset)
        sorted_norm = model.norm_adj.permute(row_perm=perm, col_perm=perm)
        plan = plan_regions(
            sorted_norm,
            hidden_dim=dataset.hidden_dim,
            dmb_bytes=cfg.dmb_bytes,
            threshold_fraction=cfg.threshold_fraction,
            resident_fraction=cfg.resident_fraction,
        )
        n = sorted_norm.shape[0]
        low_rows = sorted_norm.submatrix(plan.threshold, n, 0, n)
        features_sorted = dataset.features.permute_rows(perm)

        return {
            "features": features_sorted,
            "sort_ms": sort_ms,
            "permutation": perm,
            "plan": plan,
            "low_rows_csr": coo_to_csr(low_rows),
        }

    def run_aggregation(
        self, ctx: KernelContext, prep: Dict[str, Any], xw: np.ndarray
    ) -> np.ndarray:
        tracer = ctx.engine.tracer
        if tracer.enabled:
            plan = prep["plan"]
            tracer.instant(
                "hybrid.plan", ctx.engine.drain(), "region",
                {
                    "threshold": int(plan.threshold),
                    "region2_tiles": int(plan.n_region2_tiles),
                    "rwp_rows": int(prep["low_rows_csr"].shape[0]),
                },
            )
        return aggregation_hybrid(ctx, prep["plan"], prep["low_rows_csr"], xw)
