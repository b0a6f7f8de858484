"""Roofline validation of every Fig. 7 run.

Two jobs: (a) a hard consistency check -- no simulated run may finish
faster than max(compute bound, bandwidth bound); (b) a bottleneck map
showing *why* each dataflow performs as it does (HyMM should push runs
toward the compute roof; OP's memory stalls keep it well below its
roof on the dense graphs).
"""

from repro.analysis import analyze_run
from repro.bench import format_table
from repro.bench.runner import run_suite
from repro.bench.workloads import BENCH_DATASETS
from repro.graphs.registry import get_spec


def test_roofline_validation(emit):
    headers = ["dataset", "dataflow", "cycles", "compute bound",
               "bandwidth bound", "bottleneck", "efficiency", "FLOPs/byte"]
    rows, reports = [], {}
    for name in BENCH_DATASETS:
        runs = run_suite(name)
        abbr = get_spec(name).abbrev
        for kind in ("op", "rwp", "hymm"):
            report = analyze_run(runs[kind])
            reports[(abbr, kind)] = (runs[kind], report)
            rows.append([
                abbr, kind, report.attained_cycles,
                int(report.compute_bound), int(report.bandwidth_bound),
                report.bottleneck, report.efficiency,
                report.arithmetic_intensity,
            ])
    emit("roofline", format_table(headers, rows))

    for (abbr, kind), (run, report) in reports.items():
        # (a) the consistency bound, for every dataflow on every dataset.
        assert run.stats.cycles >= report.roofline_cycles - 1, (
            f"Roofline: {abbr}/{kind} finishes faster than its roofline"
        )
        assert 0.0 < report.efficiency <= 1.0, (abbr, kind)

    # (b) HyMM runs closest to its roofline on the dense graphs (it
    # removes the memory stalls the baselines suffer).
    for abbr in ("AP", "AC"):
        eff = {k: reports[(abbr, k)][1].efficiency for k in ("op", "rwp", "hymm")}
        assert eff["hymm"] == max(eff.values()), (
            f"Roofline: HyMM is not the most efficient dataflow on {abbr}"
        )
        assert eff["hymm"] > 0.95, f"Roofline: HyMM's efficiency on {abbr} is 0.95 or less"
