"""Fig. 10: memory consumed by partial outputs.

Compares the classic no-accumulator outer product (every partial is a
separate entry, overflowing the DMB to DRAM) against HyMM's near-memory
accumulator (same-index partials merge in place, and region-1 tiling
bounds the live set).  Paper: up to 85% footprint reduction at AP.
"""

from repro.bench import figures


def test_fig10_partial_outputs(emit):
    result = figures.fig10_partial_outputs()
    emit("fig10_partial_outputs", result["text"])
    reduction = result["reduction_pct"]

    for abbr, pct in reduction.items():
        assert pct > 0, f"Fig. 10: the accumulator does not shrink {abbr}'s footprint"
    # The dense graphs reach the paper's 85%.
    for abbr in ("AP", "AC"):
        assert reduction[abbr] > 85, (
            f"Fig. 10: {abbr}'s reduction {reduction[abbr]:.1f}% is below the paper's 85%"
        )
    # The paper's overflow claim: without the accumulator, the partial
    # pool exceeds the 256 KB DMB on every evaluated dataset.
    for row in result["rows"]:
        assert row[2] == "yes", f"Fig. 10: {row[0]}'s partials fit the DMB"
    # The sampled timeline behind the curve is non-trivial.
    for abbr, timeline in result["timelines"].items():
        assert len(timeline) > 1, f"Fig. 10: {abbr} has no footprint timeline"
