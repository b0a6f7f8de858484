"""HyMM: the paper's hybrid-dataflow GCN accelerator.

The public entry point is :class:`repro.hymm.accelerator.HyMMAccelerator`:

>>> from repro.graphs import load_dataset
>>> from repro.gcn import GCNModel
>>> from repro.hymm import HyMMAccelerator, HyMMConfig
>>> model = GCNModel(load_dataset("cora", scale=0.1))
>>> result = HyMMAccelerator(HyMMConfig()).run_inference(model)
>>> result.stats.cycles > 0
True

Internally it composes the hardware units of the paper's Figure 3:
SMQ (:mod:`repro.hymm.smq`), LSQ + PE array
(:class:`repro.sim.engine.AccessExecuteEngine`,
:mod:`repro.hymm.pe`), the unified DMB with near-memory accumulator
(:mod:`repro.hymm.dmb`), and the hybrid OP-then-RWP schedule over the
degree-sorted, region-tiled adjacency matrix
(:mod:`repro.hymm.kernels`).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.hymm.accelerator import HyMMAccelerator
    from repro.hymm.base import AcceleratorBase, RunResult
    from repro.hymm.config import HyMMConfig
    from repro.hymm.dmb import AddressMap, DenseMatrixBuffer, SplitBufferPair
    from repro.hymm.pe import PEArray
    from repro.hymm.smq import SparseMatrixQueue, csc_col_stream_bytes, csr_row_stream_bytes

__all__ = [
    "HyMMConfig",
    "AddressMap",
    "DenseMatrixBuffer",
    "SplitBufferPair",
    "SparseMatrixQueue",
    "csr_row_stream_bytes",
    "csc_col_stream_bytes",
    "PEArray",
    "AcceleratorBase",
    "RunResult",
    "HyMMAccelerator",
]

# ``repro.hymm.config`` (and the stdlib-only ``repro.hymm.wire``) load
# without the kernels, the engine or numpy.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.hymm.config": ("HyMMConfig",),
    "repro.hymm.dmb": ("AddressMap", "DenseMatrixBuffer", "SplitBufferPair"),
    "repro.hymm.smq": ("SparseMatrixQueue", "csr_row_stream_bytes", "csc_col_stream_bytes"),
    "repro.hymm.pe": ("PEArray",),
    "repro.hymm.base": ("AcceleratorBase", "RunResult"),
    "repro.hymm.accelerator": ("HyMMAccelerator",),
})
