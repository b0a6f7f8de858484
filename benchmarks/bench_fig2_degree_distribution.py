"""Fig. 2: graph degree distribution.

Paper's claim: "the top 20% of high-degree nodes account for more than
70% of the total edge count" -- the observation motivating the hybrid
dataflow.
"""

from repro.bench import figures


def test_fig2_degree_distribution(emit):
    result = figures.fig2_degree_distribution()
    emit("fig2_degree_distribution", result["text"])
    # Every synthesised dataset must clear the paper's 70% bar
    # (EXPERIMENTS.md measures 0.70 for AC up to 0.79 for CR).
    for abbr, share in result["top20_share"].items():
        assert share > 0.70, (
            f"Fig. 2: {abbr}'s top-20% nodes hold {share:.3f} of the edges, "
            "not more than the paper's 0.70"
        )
