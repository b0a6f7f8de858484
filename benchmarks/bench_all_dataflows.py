"""Grand comparison: every implemented dataflow on one dense graph.

All seven engines -- the paper's three (OP, RWP, HyMM), the Table I
proxies (CWP for AWB-GCN, G-CoD), and the extension OP variants
(deferred, tiled) -- on Amazon-Photo.  This is the capstone artifact: a
single table placing each design point by cycles, traffic, utilisation
and hit rate.
"""

import numpy as np

from repro.bench import format_table
from repro.bench.runner import ALL_ACCELERATORS, aggregation_cycles, run_suite


def test_all_dataflows(emit):
    runs = run_suite("amazon-photo", kinds=ALL_ACCELERATORS)
    # Preprocessing wall-clock (``sort_ms``) is host time, so it is not
    # rendered.
    headers = ["dataflow", "total cycles", "agg cycles", "DRAM MB", "ALU util", "hit rate"]
    rows = []
    for kind in ALL_ACCELERATORS:
        r = runs[kind]
        rows.append([
            kind, r.stats.cycles, int(aggregation_cycles(r)),
            r.stats.dram_total_bytes() / (1024 * 1024),
            r.stats.alu_utilization(), r.stats.hit_rate(),
        ])
    emit("all_dataflows", format_table(headers, rows))

    cycles = {kind: r.stats.cycles for kind, r in runs.items()}
    assert cycles["hymm"] < cycles["op"], "Grand comparison: HyMM is not faster than OP"
    assert cycles["rwp"] < cycles["op"], "Grand comparison: RWP is not faster than OP"
    # HyMM and the tiled OP lead, within 0.2% of each other; G-CoD's
    # outer-product sparse cluster keeps it behind HyMM.
    assert min(cycles, key=cycles.get) in ("hymm", "op-tiled"), (
        "Grand comparison: neither HyMM nor the tiled OP is the fastest"
    )
    assert abs(cycles["hymm"] / cycles["op-tiled"] - 1) < 0.002, (
        "Grand comparison: HyMM and the tiled OP are 0.2% or more apart"
    )
    assert cycles["gcod"] > cycles["hymm"], "Grand comparison: G-CoD is not slower than HyMM"
    # HyMM moves the least DRAM of all seven design points.
    assert runs["hymm"].stats.dram_total_bytes() == min(
        r.stats.dram_total_bytes() for r in runs.values()
    ), "Grand comparison: HyMM does not move the least DRAM"
    # Every engine computed the same matrix, bit for bit, at every layer:
    # each accumulates float32 products in float64 and rounds once.
    base = runs["hymm"].outputs
    for kind, r in runs.items():
        assert len(r.outputs) == len(base) and all(
            np.array_equal(out, ref) for out, ref in zip(r.outputs, base)
        ), f"Grand comparison: {kind} computed other bits than HyMM"
