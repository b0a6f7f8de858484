"""Dense matrix buffer (DMB) wiring: address map, unified buffer, and the
split-buffer ablation (paper Sections III and IV-D).

The DMB is physically :class:`repro.sim.buffer.CacheBuffer`; this module
adds the accelerator-level concerns:

* :class:`AddressMap` -- a flat line-address space with one region per
  logical matrix (W, XW, AXW) per layer, so distinct matrices never
  alias in the buffer;
* :class:`DenseMatrixBuffer` -- the unified buffer of the paper,
  construction from a :class:`repro.hymm.config.HyMMConfig`;
* :class:`SplitBufferPair` -- the prior-accelerator organisation
  ("prior GCN accelerators equip separated buffers for different types
  of matrices"): half the capacity for inputs (W, XW reads), half for
  outputs (AXW, partials).  Used by the unified-buffer ablation bench.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple, Union

from repro.hymm.config import HyMMConfig
from repro.obs.tracer import Tracer
from repro.sim.buffer import (
    CLASS_OUT,
    CLASS_PARTIAL,
    CLASS_W,
    CLASS_XW,
    CacheBuffer,
    DEFAULT_EVICT_PRIORITY,
)
from repro.sim.memory import DRAM
from repro.sim.stats import SimStats

#: Region ids of the address map (shifted into the high bits).
_SPACE_W = 1
_SPACE_XW = 2
_SPACE_OUT = 3

_SPACE_SHIFT = 40
_LAYER_SHIFT = 32


class AddressMap:
    """Line addresses for the dense matrices of a multi-layer GCN run.

    An address encodes ``(space, layer, row, line-within-row)``; rows of
    a matrix with more than 16 values span consecutive line indices.
    """

    def __init__(self, config: HyMMConfig) -> None:
        self.config = config

    def _addr(self, space: int, layer: int, line_index: int) -> int:
        if layer < 0 or layer >= (1 << (_SPACE_SHIFT - _LAYER_SHIFT)):
            raise ValueError(f"layer {layer} out of range")
        if line_index < 0 or line_index >= (1 << _LAYER_SHIFT):
            raise ValueError(f"line index {line_index} out of range")
        return (space << _SPACE_SHIFT) | (layer << _LAYER_SHIFT) | line_index

    def w_addr(self, layer: int, row: int, width: int, line: int = 0) -> int:
        """Address of line ``line`` of weight row ``row`` (``W[row, :]``)."""
        lpr = self.config.lines_per_row(width)
        return self._addr(_SPACE_W, layer, row * lpr + line)

    def xw_addr(self, layer: int, row: int, width: int, line: int = 0) -> int:
        """Address of line ``line`` of combination-result row ``XW[row, :]``."""
        lpr = self.config.lines_per_row(width)
        return self._addr(_SPACE_XW, layer, row * lpr + line)

    def out_addr(self, layer: int, row: int, width: int, line: int = 0) -> int:
        """Address of line ``line`` of output row ``AXW[row, :]``."""
        lpr = self.config.lines_per_row(width)
        return self._addr(_SPACE_OUT, layer, row * lpr + line)


class DenseMatrixBuffer(CacheBuffer):
    """The paper's unified DMB: one buffer for W, XW, AXW and partials."""

    def __init__(self, config: HyMMConfig, dram: DRAM, stats: SimStats) -> None:
        super().__init__(
            capacity_lines=config.capacity_lines,
            line_bytes=config.line_bytes,
            dram=dram,
            stats=stats,
            hit_latency=config.dmb_hit_latency,
            mshr_entries=config.mshr_entries,
            evict_priority=DEFAULT_EVICT_PRIORITY,
            lru=config.lru,
        )


class SplitBufferPair:
    """Separate input/output buffers (the non-unified ablation).

    Exposes the same access interface as :class:`CacheBuffer`; requests
    route by line class -- W and XW to the input half, AXW and partials
    to the output half.  Each half gets half the capacity, which is the
    hardware cost a fixed partition would pay.
    """

    _INPUT_CLASSES = (CLASS_W, CLASS_XW)

    def __init__(self, config: HyMMConfig, dram: DRAM, stats: SimStats) -> None:
        half = max(1, config.capacity_lines // 2)
        common = dict(
            line_bytes=config.line_bytes,
            dram=dram,
            stats=stats,
            hit_latency=config.dmb_hit_latency,
            mshr_entries=config.mshr_entries,
            lru=config.lru,
        )
        self.input_buffer = CacheBuffer(capacity_lines=half, **common)
        self.output_buffer = CacheBuffer(capacity_lines=half, **common)
        self.line_bytes = config.line_bytes

    def _route(self, cls: str) -> CacheBuffer:
        return self.input_buffer if cls in self._INPUT_CLASSES else self.output_buffer

    # --- CacheBuffer-compatible surface -------------------------------
    @property
    def evict_priority(self) -> Tuple[str, ...]:
        return self.input_buffer.evict_priority

    @evict_priority.setter
    def evict_priority(self, order: Iterable[str]) -> None:
        self.input_buffer.evict_priority = order
        self.output_buffer.evict_priority = order

    def read(self, cycle: float, addr: int, cls: str, tag: str) -> Tuple[float, float]:
        return self._route(cls).read(cycle, addr, cls, tag)

    def write(
        self, cycle: float, addr: int, cls: str, tag: str, allocate: bool = True
    ) -> float:
        return self._route(cls).write(cycle, addr, cls, tag, allocate=allocate)

    def accumulate(self, cycle: float, addr: int, tag: str = CLASS_PARTIAL) -> float:
        return self.output_buffer.accumulate(cycle, addr, tag)

    def flush(self, cycle: float, cls: Optional[str] = None, tag: Optional[str] = None) -> float:
        end = self.input_buffer.flush(cycle, cls=cls, tag=tag)
        return self.output_buffer.flush(end, cls=cls, tag=tag)

    def drop_spilled_partials(self) -> int:
        return self.output_buffer.drop_spilled_partials()

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer to both physical halves."""
        self.input_buffer.set_tracer(tracer)
        self.output_buffer.set_tracer(tracer)

    def invalidate(self, cls: str) -> int:
        return self.input_buffer.invalidate(cls) + self.output_buffer.invalidate(cls)

    def reclassify(self, from_cls: str, to_cls: str, cycle: float = 0.0) -> int:
        src_is_input = from_cls in self._INPUT_CLASSES
        dst_is_input = to_cls in self._INPUT_CLASSES
        if src_is_input == dst_is_input:
            return self._route(from_cls).reclassify(from_cls, to_cls, cycle)
        # Crossing the physical split: a fixed-partition design cannot
        # relabel in place, so the data is written back instead -- one
        # of the costs the unified buffer avoids.
        src = self._route(from_cls)
        n = src.resident_lines(from_cls)
        src.flush(cycle, cls=from_cls, tag=to_cls)
        src.drop_spilled_partials()
        return n

    def contains(self, addr: int) -> bool:
        return self.input_buffer.contains(addr) or self.output_buffer.contains(addr)

    def route(self, cls: str) -> CacheBuffer:
        """The physical half requests of class ``cls`` land in (the
        batched engine resolves this once per address batch)."""
        return self._route(cls)

    def occupancy_by_class(self) -> Dict[str, int]:
        merged = self.input_buffer.occupancy_by_class()
        for cls, lines in self.output_buffer.occupancy_by_class().items():
            merged[cls] = merged.get(cls, 0) + lines
        return merged

    @property
    def size_lines(self) -> int:
        return self.input_buffer.size_lines + self.output_buffer.size_lines

    def snapshot_state(self) -> Dict[str, object]:
        """Snapshot both physical halves (trace replay)."""
        return {
            "input": self.input_buffer.snapshot_state(),
            "output": self.output_buffer.snapshot_state(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore both physical halves from :meth:`snapshot_state`."""
        self.input_buffer.restore_state(state["input"])  # type: ignore[arg-type]
        self.output_buffer.restore_state(state["output"])  # type: ignore[arg-type]


def make_buffer(
    config: HyMMConfig, dram: DRAM, stats: SimStats
) -> Union[DenseMatrixBuffer, SplitBufferPair]:
    """Build the buffer organisation the config asks for."""
    if config.unified_buffer:
        return DenseMatrixBuffer(config, dram, stats)
    return SplitBufferPair(config, dram, stats)
