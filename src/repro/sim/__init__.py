"""Cycle-accounting simulation framework.

This package is the substrate under every simulated dataflow.  The
model is *cycle-accurate at vector-operation granularity*: the paper's
PE array (16 single-precision MACs, Table III) performs one
scalar x 64-byte-vector multiply-accumulate per cycle, so one sparse
non-zero processed against one dense row is the natural unit of both
compute and memory traffic.

Components
----------
* :class:`repro.sim.memory.DRAM` -- off-chip memory with finite
  bandwidth (64 GB/s at 1 GHz = 64 B/cycle, Section IV) and fixed access
  latency; shared bandwidth makes streams and random accesses contend
  naturally.
* :class:`repro.sim.buffer.CacheBuffer` -- an on-chip SRAM buffer with
  64 B lines, class-aware priority eviction (W evicted before XW before
  partial outputs, Section IV-D), LRU within a class, MSHRs that merge
  duplicate outstanding misses, and a near-memory accumulator for
  merging partial outputs in place.
* :class:`repro.sim.engine.AccessExecuteEngine` -- a decoupled
  access/execute pipeline: the frontend (SMQ feeding the LSQ) issues one
  memory request per cycle and may run up to ``lsq_depth`` requests
  ahead of the backend (the PE array), which consumes operands in order
  at one vector op per cycle.  Store-to-load forwarding matches the
  paper's LSQ (Section IV-B).
* :class:`repro.sim.stats.SimStats` -- the counters every experiment
  reads: cycles, ALU-busy cycles, DRAM bytes by traffic tag, buffer
  hits/misses, LSQ forwards, partial-output footprint.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sim.buffer import CLASS_OUT, CLASS_PARTIAL, CLASS_W, CLASS_XW, CacheBuffer
    from repro.sim.constants import ENGINE_KINDS
    from repro.sim.engine import (
        AccessExecuteEngine,
        BatchedAccessExecuteEngine,
        make_engine,
    )
    from repro.sim.memory import DRAM, DRAMConfig
    from repro.sim.stats import SimStats

__all__ = [
    "SimStats",
    "DRAM",
    "DRAMConfig",
    "CacheBuffer",
    "CLASS_W",
    "CLASS_XW",
    "CLASS_OUT",
    "CLASS_PARTIAL",
    "AccessExecuteEngine",
    "BatchedAccessExecuteEngine",
    "ENGINE_KINDS",
    "make_engine",
]

# Importing one submodule (``repro.sim.stats``) loads only that one:
# the engine and numpy load on first access to their names.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.sim.stats": ("SimStats",),
    "repro.sim.memory": ("DRAM", "DRAMConfig"),
    "repro.sim.buffer": ("CacheBuffer", "CLASS_W", "CLASS_XW", "CLASS_OUT", "CLASS_PARTIAL"),
    "repro.sim.constants": ("ENGINE_KINDS",),
    "repro.sim.engine": ("AccessExecuteEngine", "BatchedAccessExecuteEngine", "make_engine"),
})
