"""HyMM reproduction: a hybrid sparse-dense matrix multiplication
accelerator for GCNs (DATE 2025), rebuilt as a Python library.

Quick start::

    from repro import load_dataset, GCNModel, HyMMAccelerator

    model = GCNModel(load_dataset("cora", scale=0.25))
    result = HyMMAccelerator().run_inference(model)
    print(result.stats.cycles, result.stats.alu_utilization())

Package map
-----------
``repro.sparse``
    COO/CSR/CSC formats, SpMM oracles, degree statistics, region tiling.
``repro.graphs``
    Synthetic Table II datasets, degree sorting, GCN normalisation,
    region planning.
``repro.gcn``
    GCN layers, weights, NumPy reference inference.
``repro.sim``
    The cycle-accounting framework (DRAM, buffer, engine, stats).
``repro.hymm``
    The HyMM accelerator and its hardware units.
``repro.baselines``
    RWP (GROW-proxy), OP (GCNAX-proxy), CWP (AWB-GCN-style) baselines.
``repro.area``
    Analytical Table III area model.
``repro.bench``
    Regenerates every table and figure of the paper.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.area import AreaModel
    from repro.baselines import CWPAccelerator, OPAccelerator, RWPAccelerator
    from repro.gcn import GCNModel, reference_inference
    from repro.graphs import GraphDataset, load_dataset
    from repro.hymm import HyMMAccelerator, HyMMConfig, RunResult

__version__ = "1.0.0"

__all__ = [
    "load_dataset",
    "GraphDataset",
    "GCNModel",
    "reference_inference",
    "HyMMAccelerator",
    "HyMMConfig",
    "RunResult",
    "RWPAccelerator",
    "OPAccelerator",
    "CWPAccelerator",
    "AreaModel",
    "__version__",
]

# Names load on first access: ``import repro`` (and so any submodule
# import) loads none of the simulator.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.graphs": ("load_dataset", "GraphDataset"),
    "repro.gcn": ("GCNModel", "reference_inference"),
    "repro.hymm": ("HyMMAccelerator", "HyMMConfig", "RunResult"),
    "repro.baselines": ("RWPAccelerator", "OPAccelerator", "CWPAccelerator"),
    "repro.area": ("AreaModel",),
})
