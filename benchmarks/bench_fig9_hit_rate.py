"""Fig. 9: dense-matrix-buffer hit rates.

Paper shape: both homogeneous dataflows leave hits on the table; HyMM
achieves the best hit rate by confining request address ranges per
region and merging partials at the buffer.
"""

from repro.bench import figures

#: The datasets where HyMM's aggregation hit rate is the highest of
#: the three.  OP's is higher on CS, and on CR by at most CR_TOLERANCE.
HYMM_BEST = {"AP", "AC", "PH", "FR", "YP"}
CR_TOLERANCE = 0.02


def test_fig9_hit_rate(emit):
    result = figures.fig9_hit_rate()
    emit("fig9_hit_rate", result["text"])
    hits = result["hit_rate"]
    datasets = list(hits["hymm"])

    for abbr in datasets:
        for kind in ("op", "rwp", "hymm"):
            assert 0.0 <= hits[kind][abbr] <= 1.0

    best = {d for d in datasets if hits["hymm"][d] >= max(hits["rwp"][d], hits["op"][d])}
    assert best == HYMM_BEST, (
        f"Fig. 9: HyMM has the best hit rate on {sorted(best)}, "
        f"not on {sorted(HYMM_BEST)}"
    )
    assert hits["hymm"]["CR"] >= hits["op"]["CR"] - CR_TOLERANCE, (
        f"Fig. 9: HyMM's CR hit rate trails OP's by more than {CR_TOLERANCE}"
    )
    # RWP has the lowest hit rate of the three on every dataset.
    for abbr in datasets:
        assert hits["rwp"][abbr] < min(hits["op"][abbr], hits["hymm"][abbr]), (
            f"Fig. 9: RWP's hit rate is not the lowest on {abbr}"
        )
