"""repro.telemetry -- the wall-clock observability spine.

Five pieces, one contract:

* :mod:`~repro.telemetry.metrics` -- typed registry (counters, gauges,
  exponential-bucket histograms, labels), exact under threads,
  O(buckets) scrapes;
* :mod:`~repro.telemetry.prometheus` -- text exposition render +
  in-repo format validator (no client-library dependency);
* :mod:`~repro.telemetry.logs` -- NDJSON structured logging with
  contextvars-propagated correlation IDs that survive ``await``,
  ``to_thread``, and (via ``JobSpec.corr_id``) process pools;
* :mod:`~repro.telemetry.spans` -- host-time spans recorded into a
  ``repro.obs`` :class:`~repro.obs.tracer.ChromeTracer` with
  ``clock="wall"``, correlation-joined to simulated-time traces;
* :mod:`~repro.telemetry.slo` -- declared objectives evaluated over
  rolling windows, burn-rate gauges, ok/degraded verdicts.

The contract: with telemetry off (no handler configured, no span
recorder installed) results are byte-identical and the hit path pays
nothing measurable.  Simulated-time observability, the trace writer
and the CLI (``python -m repro.obs``) live in :mod:`repro.obs`; this
package only ever talks about the host clock.
"""

from .logs import (
    bind_correlation,
    configure_logging,
    correlation_scope,
    current_correlation_id,
    get_logger,
    new_correlation_id,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    exponential_buckets,
    get_registry,
)
from .prometheus import ExpositionError, render_exposition, validate_exposition
from .slo import Objective, SloTracker
from .spans import install_recorder, span

__all__ = [
    "Counter",
    "ExpositionError",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "Objective",
    "SloTracker",
    "bind_correlation",
    "configure_logging",
    "correlation_scope",
    "current_correlation_id",
    "exponential_buckets",
    "get_logger",
    "get_registry",
    "install_recorder",
    "new_correlation_id",
    "render_exposition",
    "span",
    "validate_exposition",
]
