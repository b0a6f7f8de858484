"""Table II: dataset statistics and degree-sorting cost.

Spec columns restate the published numbers; measured columns come from
the synthesised instances at the bench scale.  The sorting cost is host
wall-clock, so it stays out of the rendered table (and out of
EXPERIMENTS.md) and is only checked for its trend: cost grows with
graph size (Cora ~0.6 ms at full scale on the authors' machine).
"""

import pytest

from repro.bench import tables
from repro.bench.workloads import BENCH_DATASETS
from repro.graphs.registry import get_spec


def test_table2_datasets(emit):
    result = tables.table2()
    emit("table2_datasets", result["text"])
    rows = result["rows"]
    assert len(rows) == len(BENCH_DATASETS)
    for name, row in zip(BENCH_DATASETS, rows):
        spec = get_spec(name)
        abbr, scale, nodes, edges = row[:4]
        adj_spec, adj_meas, feat_spec, feat_meas, feat_len, dim = row[4:10]
        if scale == 1.0:
            assert (nodes, edges) == (spec.n_nodes, spec.n_edges), (
                f"Table II: {abbr}'s nodes/edges differ from the paper's at scale 1.0"
            )
        assert (feat_len, dim) == (spec.feature_length, spec.hidden_dim), (
            f"Table II: {abbr}'s feature length or layer dimension differs from the paper's"
        )
        assert adj_meas == pytest.approx(adj_spec, abs=0.01), (
            f"Table II: {abbr}'s adjacency sparsity is not within 0.01 of the paper's"
        )
        assert feat_meas == pytest.approx(feat_spec, abs=1e-4), (
            f"Table II: {abbr}'s feature sparsity is not within 1e-4 of the paper's"
        )
    sort_ms = [row[-1] for row in rows]
    assert sort_ms[-1] > sort_ms[0], "Table II: sorting YP is not slower than sorting CR"
