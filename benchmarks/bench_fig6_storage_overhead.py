"""Fig. 6: storage overhead of the region-tiled adjacency matrix.

Paper: 10.2% for Cora; the overhead shrinks as graphs grow because the
extra per-tile pointer arrays amortise over more non-zeros.
"""

from repro.bench import figures


def test_fig6_storage_overhead(emit):
    result = figures.fig6_storage_overhead()
    emit("fig6_storage_overhead", result["text"])
    overhead = result["overhead_pct"]
    for abbr, pct in overhead.items():
        assert 0 < pct < 20, f"Fig. 6: {abbr}'s tiling overhead {pct:.1f}% left (0, 20)"
    # Cora (the smallest, sparsest graph) pays the largest overhead --
    # the paper's trend -- and more than the paper's 10.2%: the tiled
    # format stores full per-tile pointer arrays.
    assert overhead["CR"] == max(overhead.values()), "Fig. 6: Cora's overhead is not the largest"
    assert overhead["CR"] > 10.2, "Fig. 6: Cora's overhead is within the paper's 10.2%"
    # Dense graphs amortise the pointers to a few percent.
    for abbr in ("AP", "AC"):
        assert overhead[abbr] < 5, f"Fig. 6: {abbr}'s overhead {overhead[abbr]:.1f}% is not below 5%"
