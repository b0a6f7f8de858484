#!/usr/bin/env python3
"""The unified buffer's dynamic space management (paper Section III).

The paper argues that one *unified* DMB beats split input/output
buffers because each phase can claim the space its dataflow reuses:
during row-wise phases the buffer fills with XW (the reused input),
during outer-product phases with partial outputs.  This example runs
HyMM and prints the end-of-phase buffer composition recorded in
``RunResult.phase_occupancy``, then quantifies what a fixed 50/50 split
would cost.

Run:  python examples/buffer_dynamics.py
"""

from repro import GCNModel, HyMMAccelerator, HyMMConfig, load_dataset
from repro.bench import format_table


def occupancy_rows(result, capacity_lines):
    rows = []
    for phase, occ in result.phase_occupancy.items():
        total = sum(occ.values())
        rows.append([
            phase,
            occ.get("W", 0),
            occ.get("XW", 0),
            occ.get("AXW", 0),
            occ.get("partial", 0),
            f"{100 * total / capacity_lines:.0f}%",
        ])
    return rows


def main() -> None:
    model = GCNModel(
        load_dataset("amazon-photo", scale=0.1, seed=1, feature_length=128),
        n_layers=2,
        seed=2,
    )
    config = HyMMConfig(dmb_bytes=32 * 1024)  # pressure at this scale

    result = HyMMAccelerator(config).run_inference(model)
    print(f"Workload: {model.dataset}  (DMB = {config.dmb_bytes // 1024} KB "
          f"= {config.capacity_lines} lines)\n")
    print("End-of-phase buffer composition (lines per class):")
    print(format_table(
        ["phase", "W", "XW", "AXW", "partial", "fill"],
        occupancy_rows(result, config.capacity_lines),
    ))

    split = HyMMAccelerator(
        config.with_overrides(unified_buffer=False)
    ).run_inference(model)
    print(f"\nUnified buffer: {result.stats.cycles:,} cycles, "
          f"{result.stats.dram_total_bytes() / 1024:.0f} KB DRAM traffic")
    print(f"Fixed 50/50 split: {split.stats.cycles:,} cycles, "
          f"{split.stats.dram_total_bytes() / 1024:.0f} KB DRAM traffic")
    print(f"-> the unified organisation is "
          f"{split.stats.cycles / result.stats.cycles:.2f}x faster here, "
          f"because each phase repurposes the whole buffer for the data "
          f"its dataflow actually reuses.")


if __name__ == "__main__":
    main()
