"""Generators for the paper's tables."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.area.model import AreaModel
from repro.bench.report import format_table
from repro.bench.workloads import BENCH_DATASETS, bench_scale
from repro.graphs.preprocess import degree_sort
from repro.graphs.registry import get_spec, load_dataset
from repro.hymm.config import HyMMConfig

#: Paper Table III, verbatim, for side-by-side comparison.
PAPER_TABLE3 = {
    "7nm": {"PE Array": 0.006, "DMB": 0.077, "SMQ": 0.008, "LSQ": 0.009,
            "Others": 0.004, "Total": 0.106},
    "40nm": {"PE Array": 0.21, "DMB": 2.39, "SMQ": 0.254, "LSQ": 0.292,
             "Others": 0.129, "Total": 3.215},
}


def table1() -> str:
    """Table I: qualitative comparison of the implemented dataflows.

    One proxy per column of the paper's Table I (report names in
    parentheses), plus the buffer-organisation row that Section III's
    unified-vs-split contrast adds.
    """
    headers = ["", "AWB-GCN (cwp)", "GCNAX (op)", "G-CoD (gcod)",
               "GROW (rwp)", "HyMM (hymm)"]
    rows = [
        ["Aggregation dataflow", "Column-wise product", "Outer product",
         "Outer product", "Row-wise product", "Hybrid (row + outer)"],
        ["Combination dataflow", "Column-wise product", "Outer product",
         "Row-wise product", "Row-wise product", "Row-wise product"],
        ["Compression format", "CSC", "CSC", "CSC (A), CSR (others)",
         "CSR", "CSC (region 1), CSR (others)"],
        ["Graph preprocessing", "None", "None",
         "Partitioning (degree proxy)", "None (proxy)", "Degree sorting"],
        ["Buffer organisation", "Split", "Split", "Split", "Split", "Unified"],
    ]
    return format_table(headers, rows)


def table2(scale: Optional[float] = None, seed: int = 0) -> Dict[str, object]:
    """Table II: dataset statistics + degree-sorting cost.

    Returns ``{"rows": [...], "text": str}``.  Spec columns come from
    the registry (the published numbers); measured columns (actual
    nodes/edges at the bench scale, measured sparsities, sorting
    wall-clock) come from the synthesised instances.  The sorting
    wall-clock is host time, so it stays in ``rows`` but not in
    ``text``, which is then the same on every run.
    """
    headers = [
        "dataset", "scale", "nodes", "edges", "adj spars(spec)",
        "adj spars(meas)", "feat spars(spec)", "feat spars(meas)",
        "feat len", "layer dim", "sort ms",
    ]
    rows: List[list] = []
    for name in BENCH_DATASETS:
        spec = get_spec(name)
        s = scale if scale is not None else bench_scale(name)
        ds = load_dataset(name, scale=s, seed=seed)
        sort = degree_sort(ds.adjacency)
        rows.append([
            spec.abbrev, s, ds.n_nodes, ds.n_edges,
            spec.adjacency_sparsity, ds.adjacency_sparsity,
            spec.feature_sparsity, ds.feature_sparsity,
            ds.feature_length, ds.hidden_dim, sort.elapsed_ms,
        ])
    text = format_table(headers[:-1], [row[:-1] for row in rows])
    return {"rows": rows, "text": text}


def table3(config: Optional[HyMMConfig] = None) -> Dict[str, object]:
    """Table III: hardware parameters and estimated area, ours vs paper."""
    model = AreaModel(config)
    headers = ["component", "7nm (ours)", "7nm (paper)", "40nm (ours)", "40nm (paper)"]
    r7 = dict(model.report("7nm").rows())
    r40 = dict(model.report("40nm").rows())
    rows = []
    for comp in ["PE Array", "DMB", "SMQ", "LSQ", "Others", "Total"]:
        rows.append([
            comp,
            round(r7[comp], 4), PAPER_TABLE3["7nm"][comp],
            round(r40[comp], 3), PAPER_TABLE3["40nm"][comp],
        ])
    return {"rows": rows, "text": format_table(headers, rows),
            "ours_7nm": r7, "ours_40nm": r40}
