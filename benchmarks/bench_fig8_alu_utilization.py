"""Fig. 8: ALU utilisation of each dataflow.

Paper shape: the outer product has the lowest utilisation (merge
disruption + memory waits); HyMM improves on the row-wise product (up
to +27% at Amazon-Computers); CR/CS/PH run lower than the rest for
everyone because of feature sparsity and very long feature vectors.
"""

from repro.bench import figures


def test_fig8_alu_utilization(emit):
    result = figures.fig8_alu_utilization()
    emit("fig8_alu_utilization", result["text"])
    util = result["utilization"]
    datasets = list(util["hymm"])

    for abbr in datasets:
        for kind in ("op", "rwp", "hymm"):
            assert 0.0 < util[kind][abbr] <= 1.0

    for abbr in datasets:
        assert util["hymm"][abbr] > util["rwp"][abbr], (
            f"Fig. 8: HyMM's aggregation utilisation is not above RWP's on {abbr}"
        )
    # The paper's +27% at AC is reached.
    assert util["hymm"]["AC"] > 1.27 * util["rwp"]["AC"], (
        "Fig. 8: HyMM's gain over RWP at AC is below the paper's +27%"
    )

    # On the dense graphs the paper highlights, HyMM is the clear best.
    # (On tiny fully-cached graphs OP's merge adds inflate its "busy"
    # count -- the paper's metric also counts the adder -- so OP can
    # look artificially busy there; the dense graphs are the signal.)
    for abbr in ("AP", "AC", "FR", "YP"):
        assert util["hymm"][abbr] > util["op"][abbr], (
            f"Fig. 8: HyMM's aggregation utilisation is not above OP's on {abbr}"
        )

    # The long-feature/feature-sparse datasets (CR, CS, PH) drag
    # whole-inference utilisation down -- the paper's Fig. 8 note.
    whole = result["whole_run"]["hymm"]
    for abbr in ("CR", "CS", "PH"):
        for dense in ("AP", "AC", "FR", "YP"):
            assert whole[abbr] < whole[dense], (
                f"Fig. 8b: HyMM's whole-inference utilisation on {abbr} is not below {dense}'s"
            )
