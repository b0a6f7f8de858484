"""Hardware configuration (paper Table III plus ablation knobs).

Every design decision the paper calls out has a switch here so the
ablation benches can flip it:

=========================  =====================================
Knob                       Paper section
=========================  =====================================
``near_memory_accumulator``  IV-D (accumulator at the DMB)
``op_first``                 III (execute OP regions before RWP)
``unified_buffer``           III (one DMB vs split input/output)
``forwarding``               IV-B (LSQ store-to-load forwarding)
``lru``                      IV-D (LRU vs FIFO eviction)
``threshold_fraction``       IV-E (tiling threshold, 20% of nodes)
=========================  =====================================
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Mapping

from repro.sim.constants import ENGINE_KINDS
from repro.sim.memory import DRAMConfig


@dataclass(frozen=True)
class HyMMConfig:
    """Full hardware + policy configuration of one simulated accelerator."""

    # --- Compute (Table III: "PE Array: 16 MAC", 32-bit single precision;
    # Section V: "HyMM achieve a performance of 32 GFLOPS" = 16 MACs x
    # 2 FLOPs at 1 GHz)
    n_pes: int = 16
    value_bytes: int = 4
    clock_ghz: float = 1.0

    # --- Dense matrix buffer (Table III: 256 KB; Section IV: 64-byte vectors)
    dmb_bytes: int = 256 * 1024
    line_bytes: int = 64
    dmb_hit_latency: int = 1
    #: Outstanding *demand* misses the DMB tracks.  Random accesses are
    #: MSHR-limited (16 outstanding), while sequential operands use the
    #: SMQ-style prefetch streams that bypass the MSHRs -- this is the
    #: random-vs-sequential asymmetry the paper's dataflow analysis
    #: rests on (Section III).
    mshr_entries: int = 16

    # --- Sparse matrix queue (Table III: 4 KB pointer + 12 KB index buffers)
    smq_pointer_bytes: int = 4 * 1024
    smq_index_bytes: int = 12 * 1024

    # --- Load/store queue (Table III: 128 entries x 68 B)
    lsq_entries: int = 128
    lsq_entry_bytes: int = 68

    # --- Off-chip memory (Section IV: 64 GB/s)
    dram: DRAMConfig = field(default_factory=DRAMConfig)

    # --- Tiling (Section IV-E)
    threshold_fraction: float = 0.2
    resident_fraction: float = 0.75

    # --- Design-choice switches (ablations; defaults follow the paper)
    near_memory_accumulator: bool = True
    op_first: bool = True
    unified_buffer: bool = True
    forwarding: bool = True
    lru: bool = True

    # --- Simulator implementation (no timing effect: the two engines
    # are cycle- and stats-exact; "scalar" is the reference model,
    # "batched" the vectorized fast path -- see docs/performance.md)
    engine: str = "batched"

    def __post_init__(self):
        if self.n_pes <= 0:
            raise ValueError("n_pes must be positive")
        if self.clock_ghz <= 0:
            raise ValueError("clock_ghz must be positive")
        if self.dmb_bytes < self.line_bytes:
            raise ValueError("dmb_bytes must hold at least one line")
        if self.line_bytes % self.value_bytes:
            raise ValueError("line_bytes must be a multiple of value_bytes")
        if self.lsq_entries <= 0:
            raise ValueError("lsq_entries must be positive")
        if not 0.0 < self.threshold_fraction <= 1.0:
            raise ValueError("threshold_fraction must be in (0, 1]")
        if not 0.0 < self.resident_fraction <= 1.0:
            raise ValueError("resident_fraction must be in (0, 1]")
        if self.engine not in ENGINE_KINDS:
            raise ValueError(
                f"engine must be one of {ENGINE_KINDS}, got {self.engine!r}"
            )

    # ------------------------------------------------------------------
    @property
    def capacity_lines(self) -> int:
        """DMB capacity in 64-byte lines (4096 at Table III defaults)."""
        return self.dmb_bytes // self.line_bytes

    @property
    def lanes(self) -> int:
        """Values processed per PE-array vector op (one per PE)."""
        return self.n_pes

    @property
    def peak_gflops(self) -> float:
        """Peak throughput: 2 FLOPs per MAC per cycle (32 at defaults)."""
        return 2.0 * self.n_pes * self.clock_ghz

    @property
    def smq_bytes(self) -> int:
        """Total SMQ stream-buffer capacity (pointer + index buffers)."""
        return self.smq_pointer_bytes + self.smq_index_bytes

    def lines_per_row(self, width: int) -> int:
        """Buffer lines one ``width``-element dense row occupies."""
        if width <= 0:
            raise ValueError("width must be positive")
        row_bytes = width * self.value_bytes
        return -(-row_bytes // self.line_bytes)

    def compute_passes(self, width: int) -> int:
        """PE-array cycles one scalar x ``width``-vector MAC takes
        (one lane per PE; 1 for the Table III defaults at width 16)."""
        if width <= 0:
            raise ValueError("width must be positive")
        return -(-width // self.n_pes)

    def with_overrides(self, **kwargs) -> "HyMMConfig":
        """A modified copy (frozen dataclass); kwargs are field names."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Serialisation (runtime job fingerprints and the disk result cache)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON dict, nested ``DRAMConfig`` included."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HyMMConfig":
        """Inverse of :meth:`to_dict`; rejects unknown fields so a
        schema drift surfaces as an error, not a silently-default knob."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown HyMMConfig fields: {sorted(unknown)}")
        kwargs = dict(data)
        dram = kwargs.pop("dram", None)
        if dram is not None:
            kwargs["dram"] = (
                dram if isinstance(dram, DRAMConfig) else DRAMConfig.from_dict(dram)
            )
        return cls(**kwargs)
