#!/usr/bin/env python3
"""Full multi-layer GCN inference on the accelerator.

Runs a two-layer GCN (the standard Kipf-Welling configuration, hidden
dimension 16 as in Table II) over a synthetic Amazon-Photo instance on
HyMM, layer by layer, and verifies every intermediate activation
against the NumPy reference.  Also prints the per-phase cycle
breakdown, showing how combination-first scheduling splits the work.

Run:  python examples/gcn_inference.py
"""

import numpy as np

from repro import GCNModel, HyMMAccelerator, load_dataset, reference_inference
from repro.bench import format_table


def main() -> None:
    dataset = load_dataset("amazon-photo", scale=0.1, seed=3)
    model = GCNModel(dataset, n_layers=2, n_classes=8, seed=4)
    print(f"Model: {model}")

    result = HyMMAccelerator().run_inference(model)
    oracle = reference_inference(dataset, model.weight_list)

    print("\nPer-layer verification against the NumPy oracle:")
    for idx, (ours, ref) in enumerate(zip(result.outputs, oracle)):
        err = float(np.max(np.abs(ours - ref)))
        status = "ok" if np.allclose(ours, ref, rtol=1e-2, atol=1e-3) else "MISMATCH"
        print(f"  layer {idx}: max abs error {err:.2e}  [{status}]")

    print("\nPhase breakdown (cycles):")
    rows = [[name, snap.cycles, f"{100 * snap.cycles / result.stats.cycles:.1f}%"]
            for name, snap in result.phase_snapshots.items()]
    print(format_table(["phase", "cycles", "share"], rows))

    print(f"\nTotal: {result.stats.cycles:,} cycles "
          f"({result.stats.alu_utilization():.1%} ALU utilisation, "
          f"{result.stats.dram_total_bytes() / 1024:.0f} KB of DRAM traffic)")
    print("Predicted logits for node 0:", np.round(result.outputs[-1][0], 3))


if __name__ == "__main__":
    main()
