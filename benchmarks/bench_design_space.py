"""Design-space sweeps: tiling threshold and DMB capacity.

Section IV-E fixes the tiling threshold at 20% of the nodes and the DMB
at 256 KB; these sweeps show the neighbourhood of those choices,
pairing each DMB size with its silicon cost from the Table III area
model.

The sweep points are expressed as :class:`repro.runtime.JobSpec`\\ s and
executed through ``repro.bench.runner.run_sweep``, with the runner's
worker count and caches.
"""

from repro.area import AreaModel
from repro.bench import format_table
from repro.bench.runner import job_spec, run_sweep
from repro.hymm import HyMMConfig

_DATASET = "amazon-photo"


def _sweep_results(configs):
    """Run one spec per config through the runtime; returns results in
    config order."""
    specs = [job_spec(_DATASET, "hymm", config=cfg) for cfg in configs]
    sweep = run_sweep(specs)
    return [sweep.for_spec(spec) for spec in specs]


def test_threshold_sweep(emit):
    fractions = (0.05, 0.1, 0.2, 0.4, 0.8)
    configs = [
        HyMMConfig(dmb_bytes=64 * 1024, threshold_fraction=frac) for frac in fractions
    ]
    rows = [
        [f"{int(frac * 100)}%", r.stats.cycles,
         r.stats.dram_total_bytes() / (1024 * 1024), r.stats.hit_rate()]
        for frac, r in zip(fractions, _sweep_results(configs))
    ]
    emit("sweep_threshold", format_table(["threshold", "cycles", "DRAM MB", "hit rate"], rows))
    cycles = [row[1] for row in rows]
    # The paper's 20% is the sweep's optimum.
    assert cycles[fractions.index(0.2)] == min(cycles), (
        "Section IV-E: the 20% threshold is not the sweep's fastest"
    )


def test_dmb_size_sweep(emit):
    sizes_kb = (16, 64, 256, 1024)
    configs = [HyMMConfig(dmb_bytes=kb * 1024) for kb in sizes_kb]
    rows = [
        [f"{kb} KB", r.stats.cycles, r.stats.dram_total_bytes() / (1024 * 1024),
         AreaModel(cfg).total_mm2("7nm")]
        for kb, cfg, r in zip(sizes_kb, configs, _sweep_results(configs))
    ]
    emit("sweep_dmb_size", format_table(["DMB", "cycles", "DRAM MB", "area mm^2 (7nm)"], rows))
    cycles = {kb: row[1] for kb, row in zip(sizes_kb, rows)}
    areas = [row[3] for row in rows]
    # Bigger buffers never hurt performance and always cost area.
    assert list(cycles.values()) == sorted(cycles.values(), reverse=True), (
        "DMB sweep: a bigger DMB is slower"
    )
    assert areas == sorted(set(areas)), "DMB sweep: a bigger DMB is not larger"
    # Diminishing returns past 64 KB: 16 -> 64 KB more than halves the
    # cycles, every step beyond saves under 1%.
    assert cycles[16] > 2 * cycles[64], "DMB sweep: 16 -> 64 KB saves under half the cycles"
    assert cycles[64] < 1.01 * cycles[1024], "DMB sweep: past 64 KB still saves 1% or more"
