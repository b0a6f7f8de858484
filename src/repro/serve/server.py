"""The long-lived asyncio sweep server.

Architecture (one process, stdlib only)::

    client conns ──> asyncio stream handlers ──┐
                                               │ single-flight table
                                               │ (fingerprint -> JobEntry)
    sharded ResultCache <── cache probe ───────┤
         (worker thread)                       │ miss
                                               v
                                        asyncio.Queue
                                               │ batched drain
                                               v
                                     SweepExecutor batch
                              (worker thread; process pool when
                               ``workers > 1``, serial + live
                               PhaseFeed progress otherwise)
                                               │ every job
                                               v
                                          execute_job

The server runs no job itself: each batch of misses is one
:class:`SweepExecutor` run, which probes the cache, runs each job
through :func:`repro.runtime.execute.execute_job` (in this process or
a pool worker) and stores the worker's wire document -- the same path a
``repro.bench`` sweep takes, with the same spans, log records and
manifest.

Single-flight: every job is keyed by its :class:`JobSpec` content-hash
fingerprint.  Submissions of a fingerprint that is already queued,
probing the cache, or executing *attach* to the existing
:class:`JobEntry` instead of enqueueing again -- N concurrent identical
submissions cost one cache probe and at most one execution, and all N
receive the same terminal answer.  Once an entry reaches a terminal
state it stops absorbing submissions: the next identical submission
performs a fresh cache lookup (by then the executed result is on disk),
which is exactly the "million cached lookups a day" hit path
``perf/run.py --workload serve-hit`` measures.

Every server runs over a store, and the store is the only copy of a
finished result: a terminal entry keeps its ``result_summary`` and
phase rows, and drops its wire document once the replies waiting on it
have been sent; a later ``/status`` that asks for the result loads it
from the store.  A server given no cache runs over a private temporary
store that it removes on shutdown, so it reads nothing another run
wrote and leaves nothing behind.

A hit is served from the stored bytes, with the standard library
alone.  A summary-only submit reads
:meth:`~repro.runtime.cache.ResultCache.probe`: the record, checked,
and each output blob re-hashed and its header checked, none inflated.
A reply that carries the result reads
:meth:`~repro.runtime.cache.ResultCache.load_document`, which inflates
the blobs into the wire document, and sends it as it is.  The
executor -- and with it numpy, the simulator and the workload layer --
is imported by the first batch of misses, in its worker thread, timed
as the ``serve.load_executor`` span (``executor_loaded`` in
``/metrics``), so a server that only answers hits never loads it.

Blocking work (cache reads, the executor import, simulation batches)
runs in worker threads; the event-loop side never touches the disk or
the simulator, a contract enforced by the ``transitive-blocking``
analyzer rule.  Cache reads go through ``asyncio.to_thread``.  Batches
run on one dedicated thread (:class:`BatchThread`): on the default
executor each batch could land on any of its idle threads, and glibc
gives every thread its own malloc arena, which keeps the fragments of
the jobs it ran (``docs/performance.md``, "Index width and one batch
thread").
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import logging
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace as dc_replace
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple, TypeVar,
)

from repro.obs.tracer import PhaseFeed
from repro.runtime.cache import ResultCache
from repro.runtime.job import SCHEMA_VERSION, JobSpec
from repro.runtime.manifest import STATUS_FAILED
from repro.sim.constants import TRACE_SCHEMA_VERSION
from repro.sim.stats import PHASE_ROW_FIELDS
from repro.telemetry import (
    MetricsRegistry,
    Objective,
    SloTracker,
    correlation_scope,
    get_logger,
    get_registry,
    new_correlation_id,
    render_exposition,
    span,
)
from repro.serve.protocol import (
    JOB_DONE,
    JOB_FAILED,
    JOB_QUEUED,
    JOB_RUNNING,
    MAX_LINE_BYTES,
    OP_HEALTHZ,
    OP_METRICS,
    OP_SHUTDOWN,
    OP_STATUS,
    OP_SUBMIT,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    SOURCE_CACHE_DISK,
    SOURCE_EXECUTED,
    TERMINAL_STATES,
    decode,
    encode,
    error_payload,
    parse_request,
)

if TYPE_CHECKING:
    from tempfile import TemporaryDirectory

    from repro.runtime.executor import SweepResult

T = TypeVar("T")

#: How long shutdown waits for open connections to finish after
#: waking them (their clients get EOF or a final failed status).
SHUTDOWN_GRACE_S = 5.0

_log = get_logger("serve.server")


#: Default service-level objectives the server's /healthz verdict
#: evaluates (rolling 5-minute windows): the cached-lookup hit path
#: stays under 5 ms at p99, and under 1% of submissions end in failure.
DEFAULT_SLOS = (
    Objective(
        name="hitpath-p99",
        kind="latency",
        target=5.0,
        metric="repro_serve_hitpath_ms",
        percentile=99.0,
        window_s=300.0,
    ),
    Objective(
        name="error-rate",
        kind="error_rate",
        target=0.01,
        numerator="repro_serve_jobs_failed_total",
        denominator="repro_serve_submitted_total",
        window_s=300.0,
    ),
)


def phase_row(
    name: str, counters: Mapping[str, Any], rows: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """The progress row for phase ``name`` following ``rows``.

    ``counters`` is a phase snapshot, either the live
    :class:`PhaseFeed` counters or the wire form of a
    ``phase_snapshots`` entry (per-tag counters are summed).
    ``end_cycle`` is the previous row's end plus this phase's integer
    cycles, so a job's rows are the same whether it ran live or came
    from the cache, and the last one equals ``stats.cycles`` (the
    snapshots' conservation invariant).
    """
    row: Dict[str, Any] = {"phase": str(name)}
    for fld in PHASE_ROW_FIELDS:
        value = counters.get(fld, 0)
        row[fld] = sum(value.values()) if isinstance(value, dict) else value
    row["end_cycle"] = (rows[-1]["end_cycle"] if rows else 0.0) + row["cycles"]
    return row


def phase_rows_from_record(record: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Per-phase progress rows from a serialised ``RunResult`` dict:
    the rows :class:`PhaseFeed` streams live, rebuilt from the wire
    form's ``phase_snapshots`` for answers served from the cache."""
    rows: List[Dict[str, Any]] = []
    snapshots = record.get("phase_snapshots")
    if not isinstance(snapshots, dict):
        return rows
    for name, snap in snapshots.items():
        if isinstance(snap, dict):
            rows.append(phase_row(name, snap, rows))
    return rows


@dataclass
class ServeSettings:
    """Tunables of one server instance."""

    #: SweepExecutor width for one batch of misses (``1`` = serial
    #: in-thread execution with live per-phase progress; ``>1`` = the
    #: runtime's process pool, progress lands per job at completion).
    workers: int = 1
    #: Most queued misses drained into one SweepExecutor invocation.
    max_batch: int = 8
    #: Bounded retry on worker failure (SweepExecutor semantics).
    retries: int = 1
    #: Optional per-job timeout (pool path only; SweepExecutor
    #: semantics -- best-effort, measured from submission).
    timeout: Optional[float] = None
    #: Terminal jobs kept addressable by ``/status`` (LRU-bounded;
    #: in-flight jobs are never evicted).
    registry_limit: int = 512

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.registry_limit < 1:
            raise ValueError("registry_limit must be >= 1")


class JobEntry:
    """One fingerprint's lifecycle inside the single-flight table."""

    __slots__ = (
        "spec", "fingerprint", "corr_id", "status", "source", "error",
        "submits", "attempts", "wall_seconds", "phases", "events",
        "result_record", "result_summary", "waiters", "done", "_tick",
    )

    def __init__(
        self,
        spec: JobSpec,
        fingerprint: str,
        corr_id: str,
    ) -> None:
        self.spec = spec
        self.fingerprint = fingerprint
        #: Telemetry correlation ID minted (or adopted from the client)
        #: at /submit; stamped on every event/status payload and
        #: carried into workers via ``spec.corr_id``.
        self.corr_id = corr_id
        self.status = JOB_QUEUED
        self.source: Optional[str] = None
        self.error: Optional[str] = None
        #: Submissions answered by this entry (1 + single-flight joins).
        self.submits = 1
        self.attempts = 0
        self.wall_seconds = 0.0
        self.phases: List[Dict[str, Any]] = []
        self.events: List[Dict[str, Any]] = []
        #: Serialised ``RunResult`` (the wire dict) once done, only
        #: until the waiting replies are sent.
        self.result_record: Optional[Dict[str, Any]] = None
        #: Accelerator, dataset and cycles of the result once done.
        self.result_summary: Optional[Dict[str, Any]] = None
        #: Replies in progress that may still send ``result_record``.
        self.waiters = 0
        self.done = asyncio.Event()
        self._tick = asyncio.Event()

    # All mutation happens on the event-loop thread (worker threads
    # bridge through ``loop.call_soon_threadsafe``), so plain lists and
    # a rotating Event are race-free.
    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    def signal(self) -> asyncio.Event:
        """The event the *next* change will set (capture, then await)."""
        return self._tick

    def _rotate(self) -> None:
        tick, self._tick = self._tick, asyncio.Event()
        tick.set()

    def add_event(self, payload: Dict[str, Any]) -> None:
        payload = dict(payload)
        payload["seq"] = len(self.events)
        payload["corr_id"] = self.corr_id
        self.events.append(payload)
        self._rotate()

    def set_status(self, status: str) -> None:
        self.status = status
        self.add_event({"event": "status", "status": status})
        if status in TERMINAL_STATES:
            self.done.set()

    def add_phase(self, name: str, args: Dict[str, Any]) -> None:
        row = phase_row(name, args, self.phases)
        self.phases.append(row)
        self.add_event({"event": "phase", **row})

    def complete(
        self,
        record: Dict[str, Any],
        source: str,
        attempts: int = 0,
        wall_seconds: float = 0.0,
        with_outputs: bool = True,
    ) -> None:
        """Finish the job with the wire document ``record``; without
        ``with_outputs`` its outputs are blob references (a probe's
        summary), so it is not kept to reply with."""
        self.result_record = record if with_outputs else None
        stats = record.get("stats")
        self.result_summary = {
            "accelerator": record.get("accelerator"),
            "dataset": record.get("dataset"),
            "cycles": stats.get("cycles") if isinstance(stats, dict) else None,
        }
        self.source = source
        self.attempts = attempts
        self.wall_seconds = wall_seconds
        if not self.phases:
            for row in phase_rows_from_record(record):
                self.phases.append(row)
        self.set_status(JOB_DONE)

    def fail(self, error: str, attempts: int = 0, wall_seconds: float = 0.0) -> None:
        self.error = error
        self.attempts = attempts
        self.wall_seconds = wall_seconds
        self.set_status(JOB_FAILED)


class ServeMetrics:
    """The server's typed instruments behind ``/metrics``.

    All counters live in the *per-server* :class:`MetricsRegistry`
    (``registry``): two ServerThreads in one test process never bleed
    counts into each other, and a scrape renders this registry plus the
    process-global one (executor/replay instruments).  Callers use the
    instruments directly (``metrics.submitted.inc()``).

    Hit-path latency is a fixed-exponential-bucket histogram: recording
    a sample is O(log buckets), a scrape summarises O(buckets) -- no
    sample window copied and sorted on the event loop per scrape, and
    no window silently dropping history on overflow.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.submitted = registry.counter(
            "repro_serve_submitted_total", "Submissions accepted"
        )
        #: Submissions answered by attaching to an in-flight entry.
        self.deduped = registry.counter(
            "repro_serve_deduped_total",
            "Submissions answered by single-flight attach",
        )
        #: Submissions answered straight from the result cache.
        self.cache_served = registry.counter(
            "repro_serve_cache_served_total",
            "Submissions answered from the result cache",
        )
        self.executed = registry.counter(
            "repro_serve_jobs_executed_total", "Jobs simulated to completion"
        )
        self.failed = registry.counter(
            "repro_serve_jobs_failed_total", "Jobs that ended in failure"
        )
        self.timeouts = registry.counter(
            "repro_serve_job_timeouts_total", "Jobs that hit the pool timeout"
        )
        self.retries = registry.counter(
            "repro_serve_job_retries_total",
            "Extra attempts beyond the first, summed over jobs",
        )
        self.batches = registry.counter(
            "repro_serve_batches_total", "SweepExecutor batch invocations"
        )
        #: Phase-trace replay accounting over executed jobs: phases
        #: replayed from the trace store vs simulated live and recorded
        #: (folded in from each batch's run manifest).
        self._replay = registry.counter(
            "repro_serve_replay_phases_total",
            "Phases replayed from the trace store vs recorded live",
            labelnames=("mode",),
        )
        self._rss = registry.gauge(
            "repro_serve_peak_rss_kb",
            "Highest per-process peak RSS reported by any batch (KiB)",
        )
        self._seen_rss = False
        self.hitpath = registry.histogram(
            "repro_serve_hitpath_ms",
            "Wall milliseconds to serve a submission from the result cache",
        )
        self._queue_depth = registry.gauge(
            "repro_serve_queue_depth", "Jobs waiting for an executor batch"
        )
        self._in_flight = registry.gauge(
            "repro_serve_in_flight", "Jobs inside the current executor batch"
        )
        self._uptime = registry.gauge(
            "repro_serve_uptime_seconds", "Seconds since the server started"
        )
        #: 1 once the first batch has imported the executor (and numpy
        #: and the simulator with it); a hit-only server stays at 0.
        self.executor_loaded = registry.gauge(
            "repro_serve_executor_loaded",
            "1 once a batch of misses has loaded the executor and simulator",
        )

    @property
    def replay_hits(self) -> int:
        return int(self._replay.labels("replayed").value)

    @property
    def replay_misses(self) -> int:
        return int(self._replay.labels("recorded").value)

    @property
    def peak_rss_kb(self) -> Optional[int]:
        return int(self._rss.value) if self._seen_rss else None

    def set_runtime_gauges(self, queue_depth: int, in_flight: int, uptime_s: float) -> None:
        """Refresh point-in-time gauges (called at scrape time)."""
        self._queue_depth.set(queue_depth)
        self._in_flight.set(in_flight)
        self._uptime.set(round(uptime_s, 3))

    def merge_manifest(self, manifest: Any) -> None:
        """Fold one SweepExecutor run manifest into the aggregates."""
        self.batches.inc()
        self.executed.inc(manifest.executed)
        self.failed.inc(manifest.failed)
        self.timeouts.inc(manifest.timeouts)
        self.retries.inc(manifest.retries)
        replay_hits = getattr(manifest, "replay_hits", 0)
        replay_misses = getattr(manifest, "replay_misses", 0)
        if replay_hits:
            self._replay.labels("replayed").inc(replay_hits)
        if replay_misses:
            self._replay.labels("recorded").inc(replay_misses)
        rss = manifest.peak_rss_kb
        if rss is not None:
            self._seen_rss = True
            if rss > self._rss.value:
                self._rss.set(rss)


class BatchThread:
    """One dedicated worker thread: ``asyncio.to_thread`` onto a
    single-thread executor of its own, so every batch runs on the same
    thread (and in the same malloc arena).  The method keeps the
    ``to_thread`` name: the analyzer's call graph reads any
    ``.to_thread(func, ...)`` as running ``func`` on a worker thread."""

    def __init__(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-batch"
        )

    async def to_thread(self, func: Callable[..., T], *args: Any) -> T:
        """Run ``func(*args)`` on the thread in a copy of the caller's
        context, as ``asyncio.to_thread`` does, so spans and
        correlation IDs flow into it."""
        loop = asyncio.get_running_loop()
        call = functools.partial(contextvars.copy_context().run, func, *args)
        return await loop.run_in_executor(self._executor, call)

    def shutdown(
        self, then: Optional[Callable[[], object]] = None
    ) -> Optional["asyncio.Future[object]"]:
        """Stop the thread once its current batch (if any) returns;
        ``then`` runs on it after that batch, as the returned future."""
        last = None
        if then is not None:
            last = asyncio.get_running_loop().run_in_executor(self._executor, then)
        self._executor.shutdown(wait=False)
        return last


class SweepServer:
    """The asyncio front end over cache + executor (see module doc)."""

    #: Also the home of phase traces: executed jobs record and replay
    #: them here.
    cache: ResultCache

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        settings: Optional[ServeSettings] = None,
        runner: Optional[Callable[[JobSpec], object]] = None,
    ) -> None:
        #: Given no cache, the server runs over a private temporary
        #: store, which :meth:`aclose` removes.
        self._tmp_store: Optional[TemporaryDirectory[str]] = None
        if cache is None:
            import tempfile  # here only: a server over a store never needs it

            self._tmp_store = tempfile.TemporaryDirectory(prefix="repro-serve-")
            cache = ResultCache(self._tmp_store.name)
        self.cache = cache
        self.settings = settings if settings is not None else ServeSettings()
        #: Test seam: forces serial execution through this callable.
        self._runner = runner
        #: Per-server instrument namespace: ServerThreads in one test
        #: process must not bleed counts into each other.  Scrapes
        #: export this registry plus the process-global one.
        self.registry = MetricsRegistry()
        self.metrics = ServeMetrics(self.registry)
        self.slo = SloTracker(self.registry, list(DEFAULT_SLOS))
        self._jobs: "OrderedDict[str, JobEntry]" = OrderedDict()
        self._queue: "asyncio.Queue[JobEntry]" = asyncio.Queue()
        self._in_flight = 0
        #: Runs every batch; hit probes stay on the default executor.
        self._batch_thread = BatchThread()
        self._started_monotonic = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatcher: Optional["asyncio.Task[None]"] = None
        #: Open connection handler task -> its stream writer.
        self._connections: Dict["asyncio.Task[Any]", asyncio.StreamWriter] = {}
        self._stopping = asyncio.Event()
        self.host = ""
        self.port = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_LINE_BYTES
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    def request_stop(self) -> None:
        """Ask the server to exit (thread-safe only via its own loop)."""
        self._stopping.set()

    async def serve_until_stopped(self) -> None:
        """Run until :meth:`request_stop` (or the shutdown op) fires."""
        await self._stopping.wait()
        await self.aclose()

    async def aclose(self) -> None:
        # Claim each handle *before* the first await: a concurrent
        # aclose (request_stop racing an explicit close) then sees None
        # instead of double-cancelling / double-closing a handle whose
        # teardown is already in flight.
        dispatcher, self._dispatcher = self._dispatcher, None
        if dispatcher is not None:
            dispatcher.cancel()
            try:
                await dispatcher
            except asyncio.CancelledError:
                pass
        # A batch still running stores into the temporary store, so the
        # store goes last on the batch thread (a worker thread).
        tmp_store, self._tmp_store = self._tmp_store, None
        removed = self._batch_thread.shutdown(
            tmp_store.cleanup if tmp_store is not None else None
        )
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # End every open connection so its handler *returns*: one left
        # for asyncio.run's teardown ends cancelled, which the stream
        # machinery logs as a traceback.  Waiters on a job the cancelled
        # dispatcher will never finish get a failed status; idle
        # readers get EOF once their writer closes.  This must come
        # before ``wait_closed()``: from Python 3.12.1 on it waits for
        # every accepted connection to drop, so an open one would hang
        # it.
        for entry in self._jobs.values():
            if not entry.terminal:
                entry.fail("server shut down")
        handlers, self._connections = self._connections, {}
        if handlers:
            await asyncio.sleep(0)  # let woken waiters queue their reply
            for writer in handlers.values():
                writer.close()
            await asyncio.wait(set(handlers), timeout=SHUTDOWN_GRACE_S)
        if server is not None:
            await server.wait_closed()
        if removed is not None:
            await removed

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started_monotonic

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _send(
        self, writer: asyncio.StreamWriter, payload: Dict[str, Any]
    ) -> None:
        writer.write(encode(payload))
        await writer.drain()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    await self._send(
                        writer, error_payload("request line too long")
                    )
                    break
                if not line:
                    break
                try:
                    request = parse_request(decode(line))
                except ProtocolError as exc:
                    await self._send(writer, error_payload(str(exc)))
                    continue
                await self._route(request, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        if request.op == OP_SUBMIT:
            await self._handle_submit(request, writer)
        elif request.op == OP_STATUS:
            await self._handle_status(request, writer)
        elif request.op == OP_HEALTHZ:
            await self._send(writer, self._healthz_payload())
        elif request.op == OP_METRICS:
            if request.format == "prometheus":
                await self._send(writer, self._prometheus_payload())
            else:
                await self._send(writer, self._metrics_payload())
        elif request.op == OP_SHUTDOWN:
            await self._send(writer, {"ok": True, "stopping": True})
            self.request_stop()

    # ------------------------------------------------------------------
    # /submit
    # ------------------------------------------------------------------
    def _register(self, entry: JobEntry) -> None:
        self._jobs[entry.fingerprint] = entry
        self._jobs.move_to_end(entry.fingerprint)
        if len(self._jobs) <= self.settings.registry_limit:
            return
        for fingerprint in list(self._jobs):
            if len(self._jobs) <= self.settings.registry_limit:
                break
            candidate = self._jobs[fingerprint]
            if candidate.terminal:
                del self._jobs[fingerprint]

    def _cache_probe(self, spec: JobSpec) -> Optional[Dict[str, Any]]:
        """Worker-thread cache probe for a summary -> the stored
        result's wire document with its outputs left as checked blob
        references."""
        return self.cache.probe(spec)

    def _cache_lookup(self, spec: JobSpec) -> Optional[Dict[str, Any]]:
        """Worker-thread cache read -> the stored result's wire
        document, built from the record and the inflated blobs."""
        return self.cache.load_document(spec)

    def _release(self, entry: JobEntry) -> None:
        """Drop a done entry's wire document once no reply waits on it:
        the store holds the result, so the registry keeps only the
        summary and phase rows."""
        if not entry.waiters:
            entry.result_record = None

    async def _handle_submit(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        assert request.spec is not None
        try:
            spec = JobSpec.from_dict(dict(request.spec))
            fingerprint = spec.fingerprint()
        except Exception as exc:  # malformed spec: a client error
            await self._send(
                writer,
                error_payload(f"bad spec: {type(exc).__name__}: {exc}"),
            )
            return
        self.metrics.submitted.inc()

        prior = self._jobs.get(fingerprint)
        if prior is not None and not prior.terminal:
            # Single-flight: attach to the in-flight entry.
            entry = prior
            entry.submits += 1
            self.metrics.deduped.inc()
            if _log.isEnabledFor(logging.INFO):
                _log.info(
                    "submit join",
                    extra={
                        "corr_id": entry.corr_id,
                        "fingerprint": fingerprint,
                        "submits": entry.submits,
                    },
                )
        else:
            # Mint (or adopt the client's) correlation ID for this
            # request and thread it into the spec so pool workers, log
            # records, the manifest JobRecord, and the replay session
            # all carry the same ID.
            corr_id = spec.corr_id
            if corr_id is None:
                corr_id = new_correlation_id()
            entry = JobEntry(spec, fingerprint, corr_id=corr_id)
            self._register(entry)
            entry.add_event({"event": "status", "status": JOB_QUEUED})

        entry.waiters += 1
        try:
            if entry is not prior:
                await self._answer_or_enqueue(entry, request.include_result)
            if request.wait and not entry.terminal:
                await entry.done.wait()
            await self._send_status(writer, entry, request.include_result)
        finally:
            entry.waiters -= 1
            self._release(entry)

    async def _answer_or_enqueue(self, entry: JobEntry, include_result: bool) -> None:
        """Complete a new entry from the store, else queue it.  Only a
        submit that returns the result inflates its outputs."""
        with correlation_scope(entry.corr_id):
            probe_start = time.perf_counter()
            with span("serve.cache_probe", job=entry.fingerprint[:12]):
                if include_result:
                    record = await asyncio.to_thread(self._cache_lookup, entry.spec)
                else:
                    record = await asyncio.to_thread(self._cache_probe, entry.spec)
            if record is not None:
                self.metrics.hitpath.observe(
                    (time.perf_counter() - probe_start) * 1000.0
                )
                self.metrics.cache_served.inc()
                entry.complete(record, SOURCE_CACHE_DISK, with_outputs=include_result)
            else:
                # Tag the spec only when it actually travels to a
                # worker (corr_id is excluded from the fingerprint;
                # the hit path never needs the copy).
                if entry.spec.corr_id is None:
                    entry.spec = dc_replace(entry.spec, corr_id=entry.corr_id)
                self._queue.put_nowait(entry)
            if _log.isEnabledFor(logging.INFO):
                _log.info(
                    "submit",
                    extra={
                        "corr_id": entry.corr_id,
                        "fingerprint": entry.fingerprint,
                        "outcome": entry.source or "queued",
                    },
                )

    # ------------------------------------------------------------------
    # /status
    # ------------------------------------------------------------------
    async def _handle_status(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        assert request.job_id is not None
        entry = self._jobs.get(request.job_id)
        if entry is None:
            await self._send(
                writer,
                error_payload(
                    f"unknown job {request.job_id!r}", job_id=request.job_id
                ),
            )
            return
        if not request.follow:
            await self._send_status(writer, entry, request.include_result)
            return
        entry.waiters += 1
        try:
            seen = 0
            while True:
                signal = entry.signal()
                while seen < len(entry.events):
                    event = dict(entry.events[seen])
                    event.update({"ok": True, "job_id": entry.fingerprint})
                    await self._send(writer, event)
                    seen += 1
                if entry.terminal:
                    await self._send_status(
                        writer, entry, request.include_result, final=True
                    )
                    return
                await signal.wait()
        finally:
            entry.waiters -= 1
            self._release(entry)

    # ------------------------------------------------------------------
    # Payloads
    # ------------------------------------------------------------------
    async def _send_status(
        self,
        writer: asyncio.StreamWriter,
        entry: JobEntry,
        include_result: bool,
        final: bool = False,
    ) -> None:
        """Send ``entry``'s status; with ``include_result``, a done job
        carries its wire document, the one in hand or else the store's
        (absent when the store no longer holds it)."""
        payload = self._status_payload(entry)
        if include_result and entry.status == JOB_DONE:
            record = entry.result_record
            if record is None:
                record = await asyncio.to_thread(self._cache_lookup, entry.spec)
            if record is not None:
                payload["result"] = record
        if final:
            payload["final"] = True
        await self._send(writer, payload)

    def _status_payload(self, entry: JobEntry) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "ok": True,
            "job_id": entry.fingerprint,
            "label": entry.spec.describe(),
            "corr_id": entry.corr_id,
            "status": entry.status,
            "source": entry.source,
            "submits": entry.submits,
            "attempts": entry.attempts,
            "wall_seconds": entry.wall_seconds,
            "phases": list(entry.phases),
            "error": entry.error,
        }
        if entry.source == SOURCE_EXECUTED:
            payload["cache"] = "miss"
        elif entry.source == SOURCE_CACHE_DISK:
            payload["cache"] = "hit"
        else:
            payload["cache"] = None
        if entry.result_summary is not None:
            payload["result_summary"] = entry.result_summary
        return payload

    def _healthz_payload(self) -> Dict[str, Any]:
        # The SLO verdict is the load-balancer signal: "ok" only while
        # every declared objective is inside budget over its rolling
        # window, so a degraded instance can actually be shed.
        slo = self.slo.evaluate()
        return {
            "ok": True,
            "status": slo["verdict"],
            "protocol": PROTOCOL_VERSION,
            "versions": {
                "protocol": PROTOCOL_VERSION,
                "job_schema": SCHEMA_VERSION,
                "trace_schema": TRACE_SCHEMA_VERSION,
            },
            "uptime_s": round(self.uptime_s, 3),
            "queue_depth": self._queue.qsize(),
            "in_flight": self._in_flight,
            "slo": slo,
        }

    def _metrics_payload(self) -> Dict[str, Any]:
        m = self.metrics
        hitpath = m.hitpath.percentile_summary()
        return {
            "ok": True,
            "uptime_s": round(self.uptime_s, 3),
            "queue_depth": self._queue.qsize(),
            "in_flight": self._in_flight,
            "registry_size": len(self._jobs),
            # Entries still holding a wire document: 0 between
            # requests (the store holds finished results).
            "registry_records": sum(
                1 for entry in self._jobs.values()
                if entry.result_record is not None
            ),
            # False until a batch of misses loads the executor: a
            # server that has answered only hits never does.
            "executor_loaded": bool(m.executor_loaded.value),
            "jobs": {
                "submitted": int(m.submitted.value),
                "deduped": int(m.deduped.value),
                "cache_served": int(m.cache_served.value),
                "executed": int(m.executed.value),
                "failed": int(m.failed.value),
                "batches": int(m.batches.value),
            },
            "cache": {**self.cache.stats(), "hit_rate": round(self.cache.hit_rate, 4)},
            "replay": {
                "hits": m.replay_hits,
                "misses": m.replay_misses,
            },
            # O(buckets) summary out of the telemetry histogram -- no
            # sample window copied/sorted on the event loop per scrape.
            "hitpath_ms": {
                key: round(value, 4) if key != "count" else value
                for key, value in hitpath.items()
            },
            "workers": {
                "pool_jobs": self.settings.workers,
                "max_batch": self.settings.max_batch,
                "timeouts": int(m.timeouts.value),
                "retries": int(m.retries.value),
                "peak_rss_kb": m.peak_rss_kb,
            },
        }

    def _prometheus_payload(self) -> Dict[str, Any]:
        """``/metrics/prometheus``: text exposition of the per-server
        registry plus the process-global one (executor/replay), carried
        in the JSON reply's ``exposition`` field."""
        self.metrics.set_runtime_gauges(
            self._queue.qsize(), self._in_flight, self.uptime_s
        )
        self.slo.evaluate()  # refresh the burn-rate gauges pre-scrape
        return {
            "ok": True,
            "content_type": "text/plain; version=0.0.4",
            "exposition": render_exposition(self.registry, get_registry()),
        }

    # ------------------------------------------------------------------
    # Dispatch: queue -> SweepExecutor batches
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            batch = [first]
            while len(batch) < self.settings.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            self._in_flight = len(batch)
            for entry in batch:
                entry.set_status(JOB_RUNNING)
            try:
                with span("serve.batch", jobs=len(batch)):
                    sweep = await self._batch_thread.to_thread(
                        self._run_batch, batch, loop
                    )
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # executor blew up: fail the batch
                for entry in batch:
                    entry.fail(f"{type(exc).__name__}: {exc}")
                self.metrics.failed.inc(len(batch))
                if _log.isEnabledFor(logging.WARNING):
                    _log.warning(
                        "batch failed",
                        extra={
                            "jobs": len(batch),
                            "error": f"{type(exc).__name__}: {exc}",
                        },
                    )
            else:
                self._apply_sweep(batch, sweep)
                # Free the batch's results and documents now, not when
                # the next batch's sweep replaces them.
                del sweep
            finally:
                self._in_flight = 0

    def _load_executor(self) -> None:
        """Import the executor, and through it numpy, the simulator and
        the workload layer (worker thread; timed once per server as
        ``serve.load_executor``)."""
        if self.metrics.executor_loaded.value:
            return
        with span("serve.load_executor"):
            importlib.import_module("repro.runtime.executor")
        self.metrics.executor_loaded.set(1)

    def _run_batch(
        self, batch: List[JobEntry], loop: asyncio.AbstractEventLoop
    ) -> SweepResult:
        """Worker thread: one SweepExecutor invocation for the batch.

        Two lanes, picked by ``workers``: the process pool, or serial
        in this thread, where each job runs through ``execute_job`` with
        a :class:`PhaseFeed` streaming its progress rows (the ``runner``
        test seam replaces that runner).
        """
        self._load_executor()
        from repro.runtime.execute import execute_job
        from repro.runtime.executor import SweepExecutor

        n_jobs = min(self.settings.workers, len(batch))
        runner = self._runner
        if runner is None and n_jobs <= 1:
            by_fingerprint = {entry.fingerprint: entry for entry in batch}

            def feed_runner(spec: JobSpec) -> Dict[str, object]:
                entry = by_fingerprint[spec.fingerprint()]

                def on_phase(
                    name: str, end_cycle: float, args: Dict[str, Any]
                ) -> None:
                    try:
                        loop.call_soon_threadsafe(entry.add_phase, name, args)
                    except RuntimeError:
                        pass  # loop shutting down: drop progress, keep the run

                # PhaseFeed is replay-compatible: live phases stream
                # their progress rows as they simulate, replayed phases
                # stream theirs from the recorded deltas -- followers
                # see per-phase progress either way.
                return execute_job(
                    spec,
                    cache_dir=str(self.cache.cache_dir),
                    tracer=PhaseFeed(on_phase),
                )

            runner = feed_runner

        executor = SweepExecutor(
            n_jobs=1 if runner is not None else n_jobs,
            cache=self.cache,
            retries=self.settings.retries,
            timeout=self.settings.timeout,
            runner=runner,
            keep_docs=True,
        )
        return executor.run([entry.spec for entry in batch])

    def _apply_sweep(self, batch: List[JobEntry], sweep: SweepResult) -> None:
        from repro.hymm.base import RunResult  # loaded by _run_batch

        records = {
            rec.fingerprint: rec for rec in sweep.manifest.records
        }
        for entry in batch:
            result = sweep.results.get(entry.fingerprint)
            rec = records.get(entry.fingerprint)
            attempts = rec.attempts if rec is not None else 0
            wall = rec.wall_seconds if rec is not None else 0.0
            if isinstance(result, RunResult):
                source = (
                    SOURCE_CACHE_DISK
                    if rec is not None and rec.worker == "cache"
                    else SOURCE_EXECUTED
                )
                # An executed job replies with its worker's wire
                # document (the one the cache stored from), so the job
                # is encoded once.
                doc = sweep.docs.get(entry.fingerprint)
                if doc is None:
                    doc = result.to_dict()
                entry.complete(doc, source, attempts, wall)
                self._release(entry)
            else:
                error = rec.error if rec is not None else None
                if rec is not None and rec.status == STATUS_FAILED:
                    entry.fail(error or "job failed", attempts, wall)
                else:
                    entry.fail(error or "job produced no result", attempts, wall)
        self.metrics.merge_manifest(sweep.manifest)


class ServerThread:
    """A sweep server on a daemon thread (tests, ``repro.serve smoke``).

    Runs the server's event loop off the caller's thread and hands back
    the bound ``(host, port)`` once accepting::

        with ServerThread(cache=cache) as srv:
            with ServeClient(srv.host, srv.port) as client:
                client.submit(spec_dict)

    Exit (or :meth:`stop`) requests a clean shutdown through the
    server's own loop and joins the thread.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        settings: Optional[ServeSettings] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        runner: Optional[Callable[[JobSpec], object]] = None,
    ) -> None:
        import threading

        self.server = SweepServer(cache=cache, settings=settings, runner=runner)
        self.host = host
        self.port = port
        self._want_host, self._want_port = host, port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            try:
                self.host, self.port = await self.server.start(
                    self._want_host, self._want_port
                )
            finally:
                self._ready.set()
            await self.server.serve_until_stopped()

        try:
            asyncio.run(main())
        except BaseException as exc:  # surface bind errors to start()
            self._error = exc
            self._ready.set()

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("server thread did not come up")
        if self._error is not None:
            raise RuntimeError("server thread failed") from self._error
        return self

    def stop(self, timeout: float = 10.0) -> None:
        loop = self._loop
        if loop is not None and loop.is_running():
            try:
                loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
