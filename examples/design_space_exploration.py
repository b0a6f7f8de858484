#!/usr/bin/env python3
"""Design-space exploration: buffer size, tiling threshold, PE count.

Sweeps the key hardware parameters of Section IV around the paper's
design point, pairing each configuration's simulated performance with
its silicon cost from the Table III area model -- the trade-off a
designer adopting HyMM would actually study.

Every sweep point is a ``repro.runtime.JobSpec`` executed through the
parallel sweep engine, so the whole exploration fans out over worker
processes.  With ``--cache-dir`` it is served from that persistent
result cache on re-runs; without it, it runs over a temporary store
removed at exit.

Run:  python examples/design_space_exploration.py [--jobs N] [--cache-dir DIR]
"""

import argparse
import sys

from repro import AreaModel, HyMMConfig
from repro.bench import configure_runtime, format_table, run_sweep
from repro.runtime import JobSpec

_DATASET = "amazon-photo"
_SCALE = 0.15


def _spec(**overrides):
    return JobSpec(
        dataset=_DATASET,
        kind="hymm",
        scale=_SCALE,
        seed=5,
        feature_length=128,
        config=HyMMConfig(**overrides),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes (default: 1 = serial)")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="persist results here and skip re-simulation")
    args = parser.parse_args()

    dmb_sizes = (16, 32, 64, 128, 256)
    thresholds = (0.05, 0.1, 0.2, 0.4, 0.8)
    pe_widths = (8, 16, 32)

    dmb_specs = [_spec(dmb_bytes=kb * 1024) for kb in dmb_sizes]
    thr_specs = [_spec(dmb_bytes=32 * 1024, threshold_fraction=f)
                 for f in thresholds]
    pe_specs = [_spec(n_pes=pes) for pes in pe_widths]

    configure_runtime(n_jobs=args.jobs, cache_dir=args.cache_dir)
    sweep = run_sweep(
        dmb_specs + thr_specs + pe_specs,
        progress=lambda rec, done, total: print(
            f"  [{done}/{total}] {rec.label}: {rec.status}", file=sys.stderr
        ),
    )
    print(f"Sweep: {sweep.manifest.summary()}\n")

    print("DMB capacity sweep (performance vs area):")
    rows = []
    for kb, spec in zip(dmb_sizes, dmb_specs):
        result = sweep.for_spec(spec)
        rows.append([
            f"{kb} KB",
            result.stats.cycles,
            result.stats.dram_total_bytes() / 1024,
            AreaModel(spec.config).total_mm2("7nm"),
        ])
    print(format_table(["DMB", "cycles", "DRAM KB", "area mm^2"], rows))

    print("\nTiling-threshold sweep (Section IV-E fixes 20%):")
    rows = []
    for frac, spec in zip(thresholds, thr_specs):
        result = sweep.for_spec(spec)
        rows.append([
            f"{int(frac * 100)}%",
            result.stats.cycles,
            result.stats.hit_rate(),
        ])
    print(format_table(["threshold", "cycles", "hit rate"], rows))

    print("\nPE-array width sweep (Table III uses 16 MACs):")
    rows = []
    for pes, spec in zip(pe_widths, pe_specs):
        result = sweep.for_spec(spec)
        rows.append([
            pes,
            result.stats.cycles,
            AreaModel(spec.config).report("7nm").components["PE Array"],
        ])
    print(format_table(["PEs", "cycles", "PE area mm^2"], rows))


if __name__ == "__main__":
    main()
