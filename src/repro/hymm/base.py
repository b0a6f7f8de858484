"""Accelerator scaffolding shared by HyMM and the baseline dataflows.

:class:`AcceleratorBase` owns the run loop -- build the memory
hierarchy, execute combination then aggregation per layer, collect
statistics -- while subclasses choose the dataflow by overriding
:meth:`AcceleratorBase.prepare` (operand formats, preprocessing) and
:meth:`AcceleratorBase.run_aggregation` /
:meth:`AcceleratorBase.run_combination`.

All accelerators share the same hierarchy (PEs, DMB, SMQ, LSQ, DRAM),
matching the paper's evaluation setup: "We assume the GCN accelerators
employ the similar memory hierarchy such as sparse/dense buffers and
PEs."
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.gcn.model import GCNModel
from repro.gcn.reference import relu
from repro.hymm.config import HyMMConfig
from repro.hymm.dmb import AddressMap, make_buffer
from repro.hymm.kernels import KernelContext, combination_dense, combination_rwp
from repro.hymm.pe import PEArray
from repro.hymm.smq import SparseMatrixQueue
from repro.hymm.wire import (
    RESULT_SCHEMA_VERSION, decode_stats, encode_stats, result_fields,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.serialize import array_from_dict, array_to_dict, sanitize_extra
from repro.sim.buffer import CLASS_W, CLASS_XW
from repro.sim.engine import make_engine
from repro.sim.memory import DRAM
from repro.sim.stats import SimStats
from repro.sparse import CSRMatrix


@dataclass
class RunResult:
    """Everything one simulated inference produces.

    ``outputs`` are per-layer result matrices in *original* node order
    (accelerators that degree-sort map their results back), so results
    from different accelerators are directly comparable.
    """

    accelerator: str
    dataset: str
    config: HyMMConfig
    stats: SimStats
    outputs: List[np.ndarray]
    #: Per-phase :class:`SimStats` deltas (phase -> snapshot),
    #: including a trailing ``"drain"`` pseudo-phase when DRAM finishes
    #: after the engine.  Lets experiments separate combination
    #: behaviour from the aggregation SpDeMM the paper's Figs. 7b/8/9
    #: characterise.  Conservation invariant: folding every snapshot
    #: with :meth:`SimStats.merge` reproduces :attr:`stats` exactly --
    #: cycles sum, counters sum, the peak is the max of running peaks,
    #: and the timeline concatenates.
    phase_snapshots: Dict[str, SimStats] = field(default_factory=dict)
    #: End-of-phase buffer composition, phase -> {class: lines}
    #: (Section III's dynamic space management).
    phase_occupancy: Dict[str, Dict[str, int]] = field(default_factory=dict)
    sort_ms: float = 0.0
    wall_seconds: float = 0.0
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def runtime_ms(self) -> float:
        """Wall time of the simulated inference at the configured clock
        (lets the Table II sorting cost be compared against inference
        time directly)."""
        return self.stats.cycles / (self.config.clock_ghz * 1e6)

    def speedup_over(self, other: "RunResult") -> float:
        """How many times faster this run is than ``other``."""
        if self.stats.cycles == 0:
            raise ValueError("run has zero cycles")
        return other.stats.cycles / self.stats.cycles

    #: Wire-format version of :meth:`to_dict` (see
    #: :data:`repro.hymm.wire.RESULT_SCHEMA_VERSION`).
    SCHEMA_VERSION = RESULT_SCHEMA_VERSION

    # ------------------------------------------------------------------
    # Serialisation (runtime disk cache + cross-process transport)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict; outputs round-trip bit-identically.

        The stats and every phase snapshot are stats documents
        (:func:`repro.hymm.wire.encode_stats`): ``SimStats.to_dict()``
        with the ``partial_timeline`` pairs stored as runs ``[x, y,
        count]``, which :meth:`from_dict` expands back to the same
        pairs.  ``extra`` is sanitised: live objects (region plans, CSR
        matrices) are dropped and their keys recorded under
        ``extra["_dropped"]``, so cached results carry every scalar
        by-product but no pickled simulator state.
        """
        return {
            "schema_version": self.SCHEMA_VERSION,
            "accelerator": self.accelerator,
            "dataset": self.dataset,
            "config": self.config.to_dict(),
            "stats": encode_stats(self.stats),
            "outputs": [array_to_dict(a) for a in self.outputs],
            "phase_snapshots": {
                phase: encode_stats(snap)
                for phase, snap in self.phase_snapshots.items()
            },
            "phase_occupancy": {
                phase: dict(occ) for phase, occ in self.phase_occupancy.items()
            },
            "sort_ms": self.sort_ms,
            "wall_seconds": self.wall_seconds,
            "extra": sanitize_extra(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict`; raises on schema mismatch.

        Every field but the outputs goes through
        :func:`repro.hymm.wire.result_fields`, the checks the result
        cache applies when it serves a document without decoding it.
        """
        fields = result_fields(data)
        return cls(outputs=[array_from_dict(a) for a in data["outputs"]], **fields)


class AcceleratorBase:
    """Template for a simulated GCN accelerator."""

    #: Short name used in reports ("rwp", "op", "hymm", ...).
    name = "base"

    def __init__(self, config: Optional[HyMMConfig] = None) -> None:
        self.config = config if config is not None else HyMMConfig()

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def prepare(self, model: GCNModel) -> dict:
        """Build the operand representations this dataflow consumes.

        Returns a dict; the base implementation provides the feature
        matrix unchanged and no adjacency representation (subclasses
        add theirs).  Keys consumed by the run loop: ``features``
        (CSRMatrix), ``sort_ms`` (float), ``permutation`` (the node
        relabelling the operands were built in, ``permutation[node] =
        row``, or None).
        """
        return {"features": model.dataset.features, "sort_ms": 0.0, "permutation": None}

    def run_combination(
        self, ctx: KernelContext, prep: dict, features: CSRMatrix, weights: np.ndarray
    ) -> np.ndarray:
        """Combination dataflow; default is row-wise product (Table I)."""
        return combination_rwp(ctx, features, weights)

    def run_aggregation(self, ctx: KernelContext, prep: dict, xw: np.ndarray) -> np.ndarray:
        """Aggregation dataflow; must be provided by the subclass."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The run loop
    # ------------------------------------------------------------------
    def run_inference(
        self,
        model: GCNModel,
        tracer: Optional[Tracer] = None,
        replay_session: Optional[object] = None,
    ) -> RunResult:
        """Simulate full inference of ``model`` on this accelerator.

        ``tracer`` (optional, disabled :data:`NULL_TRACER` by default)
        receives simulated-time events: engine batch spans, buffer
        cold-path events, kernel region spans, and one ``cat="phase"``
        span per phase boundary.  Tracing never touches ``stats`` --
        cycle counts and every counter are identical whether or not a
        tracer is attached.

        ``replay_session`` (optional, a
        :class:`repro.sim.replay.TraceSession`) turns on the trace
        record/replay lane: layers whose record hits the trace store
        are *replayed* -- merge the recorded stats deltas, restore the
        recorded post-layer state, take the stored output -- instead of
        simulated, bit-identically (see the exactness argument in
        :mod:`repro.sim.replay`); any other layer simulates live and
        records both phases.
        Replay is disabled while a full tracer is attached (the engine
        and buffer events it narrates only exist during live
        simulation), but recording still runs.  Tracers that consume
        only phase-boundary events -- :class:`~repro.obs.tracer.
        PhaseFeed` -- declare ``replay_compatible`` and keep replay on:
        the run loop emits their phase spans from the recorded deltas.
        """
        wall_start = time.perf_counter()
        tracer = tracer if tracer is not None else NULL_TRACER
        cfg = self.config
        stats = SimStats()
        dram = DRAM(cfg.dram, stats)
        buffer = make_buffer(cfg, dram, stats)
        if tracer.enabled:
            buffer.set_tracer(tracer)
        engine = make_engine(
            cfg.engine,
            buffer,
            dram,
            stats,
            lsq_depth=cfg.lsq_entries,
            forwarding=cfg.forwarding,
            smq_buffer_bytes=cfg.smq_bytes,
            tracer=tracer,
        )
        amap = AddressMap(cfg)
        pe = PEArray(cfg.n_pes)
        smq = SparseMatrixQueue(cfg.smq_pointer_bytes, cfg.smq_index_bytes)

        prep = self.prepare(model)
        if tracer.enabled:
            tracer.instant("prepare", engine.drain(), "phase")
        features: CSRMatrix = prep["features"]
        perm = prep.get("permutation")

        def to_original(matrix: np.ndarray) -> np.ndarray:
            """Rows of a relabelled matrix in original node order."""
            return matrix if perm is None else matrix[perm]

        def to_relabelled(matrix: np.ndarray) -> np.ndarray:
            """Inverse of ``to_original`` (an exact gather)."""
            return matrix if perm is None else matrix[np.argsort(perm)]

        outputs: List[np.ndarray] = []
        phase_snapshots: Dict[str, SimStats] = {}
        phase_occupancy: Dict[str, Dict[str, int]] = {}
        dense_h: Optional[np.ndarray] = None
        mark = 0.0
        base_snapshot = stats.copy()
        cum_mark = 0

        def close_phase(
            name: str,
            occupancy: Optional[Dict[str, int]] = None,
            now: Optional[float] = None,
        ) -> None:
            nonlocal mark, base_snapshot, cum_mark
            # Replayed phases pass the recorded end cycle and buffer
            # composition (Section III dynamics): a replayed combination
            # has no state of its own, and a replayed aggregation's is
            # already past the W/XW invalidates, so reading the live
            # engine or buffer here would not see what the live phase saw.
            now = engine.drain() if now is None else now
            phase_occupancy[name] = (
                {k: int(v) for k, v in occupancy.items()}
                if occupancy is not None
                else buffer.occupancy_by_class()
            )
            # Full SimStats delta for this phase.  Phase cycles use the
            # cumulative-ceil scheme (ceil of the running drain, minus
            # the previous mark) so integer per-phase cycles sum to the
            # whole-run ceil total exactly -- the conservation invariant
            # phase_snapshots documents.
            delta = stats.delta_since(base_snapshot)
            cum_now = int(math.ceil(now))
            delta.cycles = cum_now - cum_mark
            phase_snapshots[name] = delta
            if tracer.enabled:
                tracer.span(name, mark, now, "phase", delta.phase_row())
                tracer.counter(
                    "buffer_occupancy_lines", now,
                    dict(buffer.occupancy_by_class()),
                )
            base_snapshot = stats.copy()
            cum_mark = cum_now
            mark = now

        replay = replay_session
        if replay is not None:
            replay.open(self.name, cfg, model)
        # Replay would skip the live simulation a full tracer narrates,
        # so a traced run records but never replays -- unless the
        # tracer only consumes phase-boundary events (PhaseFeed), which
        # close_phase still emits for replayed phases.
        use_replay = replay is not None and (
            not tracer.enabled or tracer.replay_compatible
        )

        def replay_phase(name: str, rec: Dict[str, object]) -> None:
            """Merge one recorded phase's stats delta (cycles zeroed --
            run totals are assigned once, at the end, from the restored
            state) and close the phase as the live path did, at its
            recorded ``drain`` cycle if it has one."""
            delta = decode_stats(rec["stats"])
            delta.cycles = 0
            stats.merge(delta)
            close_phase(name, occupancy=rec["occupancy"], now=rec.get("drain"))

        def trace_record(name: str) -> Dict[str, object]:
            """What `replay_phase` consumes of a live phase, captured
            right after it closed."""
            return {
                "stats": encode_stats(phase_snapshots[name]),
                "occupancy": phase_occupancy[name],
            }

        for layer_idx, layer in enumerate(model.layers):
            ctx = KernelContext(cfg, engine, buffer, amap, pe, smq, layer=layer_idx)
            comb_name = f"layer{layer_idx}.combination"
            agg_name = f"layer{layer_idx}.aggregation"
            comb_sig = replay.next_signature(comb_name) if replay is not None else ""
            agg_sig = replay.next_signature(agg_name) if replay is not None else ""
            rec = (
                replay.lookup_layer(comb_name, agg_sig, agg_name)
                if use_replay else None
            )
            if rec is not None:
                # The layer replays whole: close the combination at its
                # recorded cycle, restore the post-layer state, and take
                # the layer's output as ``outputs`` holds it.
                replay_phase(comb_name, rec["combination"])
                buffer.restore_state(rec["buffer"])
                engine.restore_state(rec["engine"])
                dram.next_free = float(rec["dram_next_free"])
                replay_phase(agg_name, rec)
                outputs.append(rec["output"])
                dense_h = None
            else:
                if layer_idx == 0:
                    xw = self.run_combination(ctx, prep, features, layer.weights)
                else:
                    if dense_h is None:
                        # The previous layer replayed.
                        dense_h = to_relabelled(outputs[-1])
                    xw = combination_dense(ctx, dense_h, layer.weights)
                close_phase(comb_name)
                if replay is not None:
                    replay.record(comb_sig, comb_name, dict(trace_record(comb_name), drain=mark))
                axw = self.run_aggregation(ctx, prep, xw)
                close_phase(agg_name)
                if layer.activation is not None:
                    axw = relu(axw)
                dense_h = axw
                outputs.append(to_original(axw))
            # W and XW are dead after the aggregation consumed them.
            buffer.invalidate(CLASS_W)
            buffer.invalidate(CLASS_XW)
            if replay is not None and rec is None:
                # Layer records capture state *after* the W/XW
                # invalidates: a replayed layer restores straight to the
                # post-invalidate point, and the invalidates above then
                # no-op on restored state.
                replay.record(agg_sig, agg_name, dict(
                    trace_record(agg_name),
                    buffer=buffer.snapshot_state(),
                    engine=engine.snapshot_state(),
                    dram_next_free=dram.next_free,
                    output=outputs[-1],
                ))

        stats.cycles = int(math.ceil(max(engine.drain(), dram.busy_until)))
        tail = stats.cycles - cum_mark
        if tail:
            # DRAM finishes the last writebacks after the engine drains;
            # give the tail its own pseudo-phase so the snapshots still
            # sum to the whole-run aggregate.
            phase_snapshots["drain"] = SimStats(cycles=tail)
            if tracer.enabled:
                tracer.instant(
                    "drain", float(stats.cycles), "phase", {"cycles": tail}
                )
        return RunResult(
            accelerator=self.name,
            dataset=model.dataset.name,
            config=cfg,
            stats=stats,
            outputs=outputs,
            phase_snapshots=phase_snapshots,
            phase_occupancy=phase_occupancy,
            sort_ms=prep.get("sort_ms", 0.0),
            wall_seconds=time.perf_counter() - wall_start,
            extra={k: v for k, v in prep.items()
                   if k not in ("features", "permutation")},
        )
