"""repro.serve: a long-lived sweep service over the runtime layer.

The serving story the runtime was built toward: one resident process
that accepts simulation job submissions over a line-delimited JSON
protocol, answers repeats from the sharded result cache in
sub-millisecond time, single-flights concurrent identical submissions
into one execution, and streams per-phase progress (via
:class:`repro.obs.tracer.PhaseFeed`) while a miss simulates.

Layout:

* :mod:`repro.serve.protocol` -- wire format, request parsing,
  endpoint and job-state vocabulary;
* :mod:`repro.serve.server` -- the asyncio server, single-flight job
  table, metrics, and the :class:`~repro.serve.server.ServerThread`
  harness that tests and ``repro.serve smoke`` run in-process;
* :mod:`repro.serve.client` -- the blocking client the CLI and tests
  use;
* :mod:`repro.serve.cli` -- ``python -m repro.serve`` subcommands.

The hit path is benchmarked by ``python3 perf/run.py --workload
serve-hit``, which drives a fresh ``repro.serve`` process.

The event-loop side never blocks on disk or simulation (cache probes
and SweepExecutor batches run in worker threads); the
``transitive-blocking`` analyzer rule enforces that contract statically.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.serve.client import ServeClient, ServeError
    from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError, Request
    from repro.serve.server import ServerThread, ServeSettings, SweepServer

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "ServeClient",
    "ServeError",
    "ServeSettings",
    "ServerThread",
    "SweepServer",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.serve.client": ("ServeClient", "ServeError"),
    "repro.serve.protocol": ("PROTOCOL_VERSION", "ProtocolError", "Request"),
    "repro.serve.server": ("ServeSettings", "ServerThread", "SweepServer"),
})
