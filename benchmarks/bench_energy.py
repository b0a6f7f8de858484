"""Energy comparison (extension beyond the paper's area-only costing).

The paper's headline mechanism -- cutting off-chip accesses by up to
91% -- is first and foremost an *energy* win (a DRAM byte costs two
orders of magnitude more than a MAC).  This bench composes the Fig. 7
runs with the Horowitz-style energy model and reports per-dataflow
energy and its breakdown.
"""

from repro.area.energy import energy_of_run
from repro.bench import format_table
from repro.bench.runner import run_suite
from repro.bench.workloads import BENCH_DATASETS
from repro.graphs.registry import get_spec


def test_energy_comparison(emit):
    headers = ["dataset", "dataflow", "total uJ", "compute %", "sram %", "dram %"]
    rows = []
    ratios = {}
    best = {}
    for name in BENCH_DATASETS:
        runs = run_suite(name)
        abbr = get_spec(name).abbrev
        totals = {}
        for kind in ("op", "rwp", "hymm"):
            report = energy_of_run(runs[kind])
            totals[kind] = report.total_pj
            bd = report.breakdown()
            rows.append([
                abbr, kind, report.total_uj,
                100 * bd["compute"], 100 * bd["sram"], 100 * bd["dram"],
            ])
        ratios[abbr] = totals["op"] / totals["hymm"]
        best[abbr] = min(totals, key=totals.get)
    emit("energy_comparison", format_table(headers, rows) + "\n\nHyMM energy advantage vs OP: "
         + ", ".join(f"{k}={v:.2f}x" for k, v in ratios.items()))

    # HyMM is the most energy-efficient dataflow everywhere, by far
    # where the traffic reduction is large (the dense graphs).
    for abbr, kind in best.items():
        assert kind == "hymm", f"Energy: {kind} uses the least energy on {abbr}"
    for abbr, ratio in ratios.items():
        assert ratio > 1.3, f"Energy: HyMM saves under 1.3x of OP's energy on {abbr}"
    for abbr in ("AP", "AC", "FR"):
        assert ratios[abbr] > 5.0, f"Energy: HyMM saves under 5x of OP's energy on {abbr}"
    # DRAM dominates every run's budget.
    for abbr, kind, *_, dram_pct in rows:
        assert dram_pct > 80, f"Energy: DRAM is 80% or less of {abbr}/{kind}'s energy"
