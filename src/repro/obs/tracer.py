"""Tracers: the event sink the simulator and the host report into.

A trace has one of two clocks.  The default, ``clock="sim"``, is the
*simulated* cycle count (the decoupled engine's timelines), not wall
time, so a trace of a run is a picture of the modelled hardware: where
the pipeline's cycles went, phase by phase, tile by tile, batch by
batch.  ``clock="wall"`` is host time in microseconds -- the spans
:func:`repro.telemetry.spans.span` records around serving and runtime
work.  Both are written by :class:`ChromeTracer`, the one place that
builds Chrome trace-event dicts.

Three implementations share one interface:

:class:`Tracer`
    The protocol-style base.  ``enabled`` is a class attribute the hot
    paths check *before* building event arguments -- the contract that
    makes the default tracer free:  every emission site reads
    ``tracer.enabled`` (one attribute load) and only constructs the
    span/args when it is true.
:class:`NullTracer` / :data:`NULL_TRACER`
    The default.  ``enabled`` is ``False`` and every method is a no-op,
    so a guarded call site performs no allocation and no call at all.
:class:`ChromeTracer`
    Collects events in memory and exports Chrome trace-event JSON
    (the ``traceEvents`` array format), loadable in Perfetto or
    ``chrome://tracing``.  A simulated-clock export is deterministic:
    given the same simulated run, :meth:`ChromeTracer.to_json` returns
    byte-identical output (no wall-clock timestamps, sorted keys).

Event vocabulary (Chrome trace-event phases):

* ``span(name, start, end)`` -> one complete event (``"ph": "X"``) --
  an engine batch, a region tile, an accelerator phase, a host span;
* ``instant(name, cycle)`` -> an instant event (``"ph": "i"``) -- a
  buffer invalidation, a spilled-partial refetch;
* ``counter(name, cycle, values)`` -> a counter event (``"ph": "C"``)
  -- e.g. buffer occupancy per line class at a phase boundary.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

#: Categories the simulator emits (the ``cat`` field of every event).
TRACE_CATEGORIES = ("engine", "buffer", "region", "phase", "run")

#: Numeric type of the simulated clock.
Cycle = Union[int, float]


class Tracer:
    """Event sink for simulated-time traces.

    Implementations override the three emission methods; callers MUST
    guard each call with ``if tracer.enabled:`` so the disabled path
    costs one attribute check and nothing else (the ``obs-hygiene``
    analyzer rule enforces this for kernel and accelerator code).
    """

    #: Whether emission sites should build and send events.
    enabled: bool = False

    #: Whether this tracer's output survives phase replay.  Replaying a
    #: recorded phase skips the live simulation, so engine-batch,
    #: buffer, and region events for that phase simply never happen; a
    #: tracer that consumes only the per-phase boundary events (which
    #: the run loop still emits from the recorded deltas) can declare
    #: itself compatible and keep replay enabled.  Full tracers leave
    #: this ``False`` so a traced run never silently produces a
    #: skeleton trace.
    replay_compatible: bool = False

    def span(
        self,
        name: str,
        start: Cycle,
        end: Cycle,
        cat: str = "engine",
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """A complete interval ``[start, end]`` in simulated cycles."""

    def instant(
        self,
        name: str,
        cycle: Cycle,
        cat: str = "engine",
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """A point event at ``cycle``."""

    def counter(
        self, name: str, cycle: Cycle, values: Mapping[str, Cycle]
    ) -> None:
        """A sampled counter series (one track per key of ``values``)."""


class NullTracer(Tracer):
    """The zero-overhead default: disabled, and every method a no-op."""

    __slots__ = ()

    enabled = False


#: Shared disabled tracer -- the default of every tracing entry point,
#: so "no tracer" never allocates anything.
NULL_TRACER: Tracer = NullTracer()


class PhaseFeed(Tracer):
    """Live per-phase progress feed built on the tracer protocol.

    Forwards every ``cat="phase"`` event that carries counters (the
    spans :meth:`repro.hymm.base.AcceleratorBase.run_inference` emits at
    each phase boundary, plus the ``drain`` instant) to ``on_phase``
    as ``(phase_name, end_cycle, counters)`` -- the feed the serve
    front end streams to ``/status`` followers while a simulation is
    still running.  Everything else (engine batches, buffer events,
    region tiles) is dropped at the cheapest possible point, so the
    overhead over an untraced run is one guarded call per phase.

    The callback runs on the simulating thread; callers bridging into
    an event loop must hand off (e.g. ``loop.call_soon_threadsafe``)
    rather than block.
    """

    __slots__ = ("on_phase",)

    enabled = True
    #: Phase-boundary spans are emitted for replayed phases too (from
    #: the recorded stats deltas), so the feed loses nothing on replay.
    replay_compatible = True

    def __init__(self, on_phase: "Callable[[str, float, Dict[str, Any]], None]") -> None:
        self.on_phase = on_phase

    def span(
        self,
        name: str,
        start: Cycle,
        end: Cycle,
        cat: str = "engine",
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if cat == "phase" and args and "cycles" in args:
            self.on_phase(name, float(end), dict(args))

    def instant(
        self,
        name: str,
        cycle: Cycle,
        cat: str = "engine",
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if cat == "phase" and args and "cycles" in args:
            self.on_phase(name, float(cycle), dict(args))


class ChromeTracer(Tracer):
    """In-memory collector exporting Chrome trace-event JSON.

    With ``clock="sim"`` (the default), ``ts``/``dur`` carry simulated
    cycles directly (the JSON format nominally uses microseconds;
    Perfetto renders any unit, and ``displayTimeUnit`` is advisory).
    ``pid``/``tid`` are fixed -- one simulated pipeline -- which keeps
    traces of the same run byte-identical.

    With ``clock="wall"``, ``ts``/``dur`` are host microseconds since
    :attr:`origin` (Chrome trace ``ts`` must be >= 0 and the viewer
    only cares about deltas), every event carries the emitting
    thread's ``tid``, and the absolute ``epoch_s`` anchor lands in the
    document metadata so two recordings can still be aligned.

    Appends are locked: host spans arrive from many threads at once.
    """

    enabled = True

    def __init__(self, pid: int = 0, tid: int = 0, clock: str = "sim") -> None:
        if clock not in ("sim", "wall"):
            raise ValueError(f"clock must be 'sim' or 'wall', got {clock!r}")
        self.pid = pid
        self.tid = tid
        self.clock = clock
        wall = clock == "wall"
        #: ``perf_counter`` reading that wall-clock ``ts`` counts from.
        self.origin = time.perf_counter() if wall else 0.0
        self._epoch_s = time.time() if wall else 0.0
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _append(self, event: Dict[str, Any]) -> None:
        if self.clock == "wall":
            # Host microseconds to the nanosecond; the emitting thread.
            event["ts"] = round(event["ts"], 3)
            if "dur" in event:
                event["dur"] = round(event["dur"], 3)
            event["tid"] = threading.get_ident() % 1_000_000
        with self._lock:
            self._events.append(event)

    def span(
        self,
        name: str,
        start: Cycle,
        end: Cycle,
        cat: str = "engine",
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        event: Dict[str, Any] = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": float(start),
            "dur": float(end) - float(start),
            "pid": self.pid,
            "tid": self.tid,
        }
        if args:
            event["args"] = dict(args)
        self._append(event)

    def instant(
        self,
        name: str,
        cycle: Cycle,
        cat: str = "engine",
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        event: Dict[str, Any] = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "s": "t",  # thread-scoped instant
            "ts": float(cycle),
            "pid": self.pid,
            "tid": self.tid,
        }
        if args:
            event["args"] = dict(args)
        self._append(event)

    def counter(
        self, name: str, cycle: Cycle, values: Mapping[str, Cycle]
    ) -> None:
        self._append(
            {
                "name": name,
                "cat": "counter",
                "ph": "C",
                "ts": float(cycle),
                "pid": self.pid,
                "tid": self.tid,
                "args": {str(k): float(v) for k, v in values.items()},
            }
        )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    @property
    def n_events(self) -> int:
        return len(self._events)

    def trace_dict(
        self, metadata: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """The full trace document (Chrome trace-event JSON object form).

        ``otherData`` declares the clock (plus, for wall time, the
        ``epoch_s`` anchor) and carries ``metadata`` -- the obs CLI
        records the job spec and the run's ``SimStats`` totals there,
        which is what lets ``repro.obs report`` cross-check per-phase
        sums against the whole-run aggregate.  Callers must keep
        simulated-clock metadata free of wall times so those exports
        stay deterministic.
        """
        with self._lock:
            events = list(self._events)
        other: Dict[str, Any] = {"clock": self.clock}
        if self.clock == "wall":
            # Spans are appended as they close, from many threads;
            # export them by start time.
            events.sort(key=lambda e: (e["ts"], e["name"]))
            other["epoch_s"] = round(self._epoch_s, 6)
        if metadata:
            other.update(metadata)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms" if self.clock == "wall" else "ns",
            "otherData": other,
        }

    def to_json(self, metadata: Optional[Mapping[str, Any]] = None) -> str:
        """JSON export (sorted keys, fixed separators)."""
        return json.dumps(
            self.trace_dict(metadata), sort_keys=True, separators=(",", ":")
        )

    def write(
        self, path: str, metadata: Optional[Mapping[str, Any]] = None
    ) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json(metadata))
            fh.write("\n")
