#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

It renders Tables I-III and Figures 2 and 6-11 with the same
generators the benchmark suite asserts against and writes into
EXPERIMENTS.md.  Simulations are memoised, so the whole script costs
one pass over the dataset suite.

Run:  python examples/reproduce_paper.py            (reduced scales, ~2-3 min)
      REPRO_FULL_SCALE=1 python examples/reproduce_paper.py   (paper scale)
"""

from repro.bench import figures, full_scale_requested, tables


def banner(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def main() -> None:
    mode = "paper scale" if full_scale_requested() else "reduced scales"
    print(f"Reproducing HyMM (DATE 2025) evaluation at {mode}.")

    banner("Table I   Dataflow comparison")
    print(tables.table1())

    banner("Table II  Graph datasets")
    print(tables.table2()["text"])

    banner("Table III Hardware parameters and estimated area")
    print(tables.table3()["text"])

    banner("Figure 2  Graph degree distribution")
    print(figures.fig2_degree_distribution()["text"])

    banner("Figure 6  Storage overhead of region tiling")
    print(figures.fig6_storage_overhead()["text"])

    banner("Figure 7  Speedup")
    print(figures.fig7_speedup()["text"])

    banner("Figure 8  ALU utilization")
    print(figures.fig8_alu_utilization()["text"])

    banner("Figure 9  DMB hit rate")
    print(figures.fig9_hit_rate()["text"])

    banner("Figure 10 Partial-output memory usage")
    print(figures.fig10_partial_outputs()["text"])

    banner("Figure 11 DRAM access breakdown")
    print(figures.fig11_dram_breakdown()["text"])


if __name__ == "__main__":
    main()
