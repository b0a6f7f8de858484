"""Outer-product design points (extension study).

Three ways to organise an OP engine's partial outputs, against HyMM:

* ``op``          -- naive scattered read-modify-write (the paper's proxy);
* ``op-deferred`` -- append-all-partials, merge later (OuterSpace);
* ``op-tiled``    -- output-row tiling so partials always hit on-chip,
                     paying dense-operand re-streaming per band (what
                     GCNAX's loop optimisation actually buys).

The interesting crossover: tiling is excellent while the output fits in
a handful of bands, but its re-streaming traffic grows with the band
count, i.e. with graph size -- exactly the regime where HyMM's hybrid
(which streams the dense operand once) keeps its advantage.
"""

from repro.bench import format_table
from repro.bench.runner import aggregation_cycles, run_suite
from repro.graphs.registry import get_spec

_KINDS = ("op", "op-deferred", "op-tiled", "hymm")
_DATASETS = ("cora", "amazon-photo", "flickr", "yelp")


def test_op_variants(emit):
    headers = ["dataset", "variant", "total cycles", "agg cycles", "DRAM MB"]
    rows, data = [], {}
    for name in _DATASETS:
        runs = run_suite(name, kinds=_KINDS)
        abbr = get_spec(name).abbrev
        data[abbr] = runs
        for kind in _KINDS:
            r = runs[kind]
            rows.append([
                abbr, kind, r.stats.cycles,
                int(aggregation_cycles(r)),
                r.stats.dram_total_bytes() / (1024 * 1024),
            ])
    emit("op_variants", format_table(headers, rows))

    for abbr, runs in data.items():
        cycles = {kind: r.stats.cycles for kind, r in runs.items()}
        dram = {kind: r.stats.dram_total_bytes() for kind, r in runs.items()}
        assert cycles["op-tiled"] < cycles["op"], (
            f"OP variants: tiling does not beat the naive OP on {abbr}"
        )
        assert cycles["hymm"] < cycles["op"], f"OP variants: HyMM is not faster than OP on {abbr}"
        # The tiled OP comes within 10% of HyMM's cycles...
        assert abs(cycles["op-tiled"] / cycles["hymm"] - 1) < 0.10, (
            f"OP variants: the tiled OP is 10% or more away from HyMM's cycles on {abbr}"
        )
        # ...but HyMM moves the fewest DRAM bytes, the deferred OP the most.
        assert min(dram, key=dram.get) == "hymm", (
            f"OP variants: HyMM does not move the fewest DRAM bytes on {abbr}"
        )
        assert max(dram, key=dram.get) == "op-deferred", (
            f"OP variants: the deferred OP does not move the most DRAM bytes on {abbr}"
        )
