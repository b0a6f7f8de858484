"""repro.obs: opt-in observability for the simulator and runtime.

Three layers, all off by default:

* **simulated-time tracing** (:mod:`repro.obs.tracer`) -- span/instant/
  counter events with the simulated cycle count as the clock, exported
  as Chrome trace-event JSON (Perfetto-loadable); the same writer
  records host wall-clock spans with ``clock="wall"``;
* **phase-attributed metrics** -- per-phase :class:`repro.sim.stats.
  SimStats` snapshots on every :class:`repro.hymm.base.RunResult`
  (``phase_snapshots``), conserving the whole-run aggregate under
  ``SimStats.merge``;
* **host-side run telemetry** -- wall time, retries, timeouts, cache
  hits and peak RSS per job in the run manifest
  (:mod:`repro.runtime.manifest`).

``python -m repro.obs`` exposes ``trace`` / ``report`` / ``diff`` /
``slo`` / ``validate`` subcommands; see :mod:`repro.obs.cli`.

This module deliberately re-exports only the tracer surface -- it is
imported by the simulator's hot modules, so it must stay stdlib-only
and cycle-free.
"""

from repro.obs.tracer import (
    NULL_TRACER,
    ChromeTracer,
    NullTracer,
    PhaseFeed,
    Tracer,
)

__all__ = ["Tracer", "NullTracer", "ChromeTracer", "PhaseFeed", "NULL_TRACER"]
