"""Parallel sweep execution over a process pool, with serial fallback.

:class:`SweepExecutor` takes a batch of :class:`JobSpec`\\ s and returns
a :class:`SweepResult` (results keyed by fingerprint + a
:class:`RunManifest`).  The policy:

* duplicate specs are collapsed (one execution per fingerprint);
* every sweep runs over a :class:`ResultCache`, and every spec is
  first looked up there;
* misses run on a ``ProcessPoolExecutor`` when ``n_jobs > 1``, with a
  per-job timeout (measured from submission; best-effort, since a
  running worker cannot be interrupted) and bounded retry on worker
  failure;
* when ``n_jobs == 1``, or the pool cannot be created, or it breaks
  mid-sweep, jobs run (or finish) in-process serially -- a sweep never
  dies because multiprocessing is unavailable;
* workers return the *serialised* result dict
  (:func:`repro.runtime.execute.execute_job`), and the parent rebuilds
  the ``RunResult`` through the same ``from_dict`` path the cache uses,
  so parallel, serial-normalised, and cached results are bit-identical;
* that wire document is also what the cache stores: this class is the
  only code that probes and stores results, and the serve front end and
  ``repro.bench`` run every job through it;
* executed jobs record/replay phase traces in the cache: each worker
  replays phases whose chained signature is already in the job's trace
  directory and records the rest, reporting the counts back through a
  side channel the parent folds into the manifest's
  ``replay_hits``/``replay_misses``.

A failed job (after retries) is recorded in the manifest and simply
absent from the results -- callers decide whether that is fatal.
"""

from __future__ import annotations

import functools
import logging
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.hymm.base import RunResult
from repro.runtime.execute import execute_job
from repro.runtime.cache import ResultCache
from repro.runtime.job import JobSpec
from repro.runtime.manifest import (
    STATUS_CACHE_HIT,
    STATUS_DONE,
    STATUS_FAILED,
    JobRecord,
    RunManifest,
    peak_rss_kb,
)
from repro.telemetry import get_logger, get_registry, span

#: ``progress(record, n_finished, n_total)`` callback type.
ProgressFn = Callable[[JobRecord, int, int], None]

_log = get_logger("runtime.executor")

# Executor instruments live in the process-global registry so any
# front end (serve, bench) exports them alongside its own.  Registered
# once, here, at module scope (the telemetry-hygiene convention).
_registry = get_registry()
_JOBS_TOTAL = _registry.counter(
    "repro_runtime_jobs_total",
    "Sweep jobs by terminal status",
    labelnames=("status",),
)
_BATCHES_TOTAL = _registry.counter(
    "repro_runtime_pool_batches_total",
    "Batches submitted to the process pool (retries included)",
)
_CACHE_PROBES_TOTAL = _registry.counter(
    "repro_runtime_cache_probes_total",
    "Result-cache probes at sweep entry, by outcome",
    labelnames=("outcome",),
)
_JOB_SECONDS = _registry.histogram(
    "repro_runtime_job_seconds",
    "Wall seconds per executed (non-cache) job",
)


def run_job_group(runner, specs: Sequence[JobSpec]) -> List[tuple]:
    """Worker-side batch entry: run ``specs`` back to back in this
    process, returning ``(status, payload, elapsed_seconds, rss_kb)``
    per spec.

    Batching jobs that share a workload into one worker lets the
    process-local ``make_model`` memo, which holds one workload, build
    each dataset model once per worker instead of once per job; errors
    are confined to their spec.
    The RSS figure is this worker's peak when the job finished -- a
    high-water mark, so later jobs in a batch report >= earlier ones.
    """
    out = []
    for spec in specs:
        t0 = time.perf_counter()
        try:
            raw = runner(spec)
        except Exception as exc:
            out.append(("error", f"{type(exc).__name__}: {exc}",
                        time.perf_counter() - t0, peak_rss_kb()))
        else:
            out.append(("ok", raw, time.perf_counter() - t0, peak_rss_kb()))
    return out


def _workload_key(spec: JobSpec) -> tuple:
    """Specs sharing this key share one ``make_model`` result."""
    return (spec.dataset, spec.scale, spec.n_layers, spec.seed,
            spec.feature_length)


def _group_by_workload(specs: Iterable[JobSpec]) -> List[List[JobSpec]]:
    """``specs`` split by :func:`_workload_key`, groups in first-seen
    order and specs in their given order within each group."""
    groups: Dict[tuple, List[JobSpec]] = {}
    for spec in specs:
        groups.setdefault(_workload_key(spec), []).append(spec)
    return list(groups.values())


@dataclass
class SweepResult:
    """What a sweep produced: fingerprint-keyed results + accounting."""

    results: Dict[str, RunResult] = field(default_factory=dict)
    manifest: RunManifest = field(default_factory=RunManifest)
    #: Wire documents (``RunResult.to_dict()`` form) of the jobs this
    #: sweep executed, by fingerprint -- only when the executor was
    #: built with ``keep_docs=True``, so a front end that answers with
    #: the document need not encode the result a second time.
    docs: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def for_spec(self, spec: JobSpec) -> Optional[RunResult]:
        return self.results.get(spec.fingerprint())

    def __len__(self) -> int:
        return len(self.results)


def _dedupe(specs: Iterable[JobSpec]) -> List[JobSpec]:
    seen: Dict[str, JobSpec] = {}
    for spec in specs:
        seen.setdefault(spec.fingerprint(), spec)
    return list(seen.values())


class SweepExecutor:
    """Run batches of simulation jobs, concurrently when asked."""

    def __init__(
        self,
        cache: ResultCache,
        n_jobs: int = 1,
        timeout: Optional[float] = None,
        retries: int = 1,
        runner: Optional[Callable[[JobSpec], Mapping[str, object]]] = None,
        progress: Optional[ProgressFn] = None,
        batch_by_workload: bool = True,
        keep_docs: bool = False,
    ):
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.n_jobs = max(1, int(n_jobs))
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        #: Returns a job's wire document.  The built-in runner records
        #: and replays phase traces in the cache (a picklable directory
        #: string reaches pool workers).
        self.runner: Callable[[JobSpec], Mapping[str, object]] = (
            runner if runner is not None else functools.partial(
                execute_job, cache_dir=str(cache.cache_dir)
            )
        )
        self.progress = progress
        #: Ship jobs sharing a workload (dataset/scale/layers/seed) to
        #: the same worker so its one-workload model memo is built
        #: once, not once per job.  ``False`` submits one pool task per
        #: job (finer timeout granularity, more duplicated model
        #: synthesis).  The serial lane always runs jobs grouped by
        #: workload.
        self.batch_by_workload = batch_by_workload
        #: Keep each executed job's wire document on
        #: :attr:`SweepResult.docs` (the serve front end replies with
        #: it); off by default, so a long sweep does not hold every
        #: result twice.
        self.keep_docs = keep_docs

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> SweepResult:
        start = time.perf_counter()
        unique = _dedupe(specs)
        sweep = SweepResult(manifest=RunManifest(n_jobs=self.n_jobs))
        self._total = len(unique)

        pending: List[JobSpec] = []
        with span("runtime.cache_probe", jobs=len(unique)):
            for spec in unique:
                cached = self.cache.load(spec)
                if cached is not None:
                    _CACHE_PROBES_TOTAL.labels("hit").inc()
                    sweep.results[spec.fingerprint()] = cached
                    self._record(sweep, spec, STATUS_CACHE_HIT, worker="cache")
                else:
                    _CACHE_PROBES_TOTAL.labels("miss").inc()
                    pending.append(spec)

        if pending:
            with span("runtime.sweep", jobs=len(pending)):
                if self.n_jobs > 1:
                    leftover = self._run_pool(pending, sweep)
                else:
                    leftover = pending
                if leftover:
                    self._run_serial(leftover, sweep)

        sweep.manifest.wall_seconds = time.perf_counter() - start
        sweep.manifest.cache_stats = self.cache.stats()
        return sweep

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _record(
        self,
        sweep: SweepResult,
        spec: JobSpec,
        status: str,
        attempts: int = 0,
        wall: float = 0.0,
        worker: str = "serial",
        error: Optional[str] = None,
        rss_kb: Optional[int] = None,
        timed_out: bool = False,
    ) -> None:
        record = JobRecord(
            fingerprint=spec.fingerprint(),
            label=spec.describe(),
            status=status,
            attempts=attempts,
            wall_seconds=wall,
            worker=worker,
            error=error,
            max_rss_kb=rss_kb,
            timed_out=timed_out,
            corr_id=spec.corr_id,
        )
        _JOBS_TOTAL.labels(status).inc()
        if status != STATUS_CACHE_HIT:
            _JOB_SECONDS.observe(wall)
        if _log.isEnabledFor(logging.INFO):
            _log.info(
                "job record",
                extra={
                    "corr_id": spec.corr_id,
                    "fingerprint": record.fingerprint,
                    "status": status,
                    "worker": worker,
                    "attempts": attempts,
                    "wall_s": round(wall, 6),
                    "job_error": error,
                },
            )
        sweep.manifest.add(record)
        if self.progress is not None:
            self.progress(record, len(sweep.manifest.records), self._total)

    def _accept(
        self,
        sweep: SweepResult,
        spec: JobSpec,
        raw: Mapping[str, object],
        attempts: int,
        wall: float,
        worker: str,
        rss_kb: Optional[int] = None,
    ) -> None:
        # Strip the runner's replay side-channel (phases replayed from
        # the trace store vs recorded live) into the manifest; what is
        # left is the wire document, decoded here and stored as-is (the
        # job is encoded once, by its worker).
        doc = dict(raw)
        replay_info = doc.pop("replay", None)
        if isinstance(replay_info, Mapping):
            sweep.manifest.replay_hits += int(replay_info.get("replayed", 0))
            sweep.manifest.replay_misses += int(replay_info.get("recorded", 0))
        sweep.results[spec.fingerprint()] = RunResult.from_dict(doc)
        self.cache.store(spec, doc)
        if self.keep_docs:
            sweep.docs[spec.fingerprint()] = doc
        self._record(sweep, spec, STATUS_DONE, attempts, wall, worker,
                     rss_kb=rss_kb)

    # ------------------------------------------------------------------
    # Serial path (n_jobs == 1 or pool unavailable/broken)
    # ------------------------------------------------------------------
    def _run_serial(self, specs: Sequence[JobSpec], sweep: SweepResult) -> None:
        """Run ``specs`` in this process, grouped by workload so the
        one-workload model memo builds each model once."""
        for spec in (s for group in _group_by_workload(specs) for s in group):
            t0 = time.perf_counter()
            error: Optional[str] = None
            for attempt in range(1, self.retries + 2):
                try:
                    raw = self.runner(spec)
                except Exception as exc:  # worker failure: bounded retry
                    error = f"{type(exc).__name__}: {exc}"
                    continue
                self._accept(
                    sweep, spec, raw, attempt, time.perf_counter() - t0,
                    "serial", rss_kb=peak_rss_kb(),
                )
                break
            else:
                self._record(
                    sweep, spec, STATUS_FAILED, self.retries + 1,
                    time.perf_counter() - t0, "serial", error,
                    rss_kb=peak_rss_kb(),
                )

    # ------------------------------------------------------------------
    # Pool path
    # ------------------------------------------------------------------
    def _make_units(self, specs: Sequence[JobSpec]) -> List[List[JobSpec]]:
        """Partition specs into pool submissions (see
        ``batch_by_workload``)."""
        if not self.batch_by_workload:
            return [[spec] for spec in specs]
        return _group_by_workload(specs)

    def _run_pool(
        self, specs: Sequence[JobSpec], sweep: SweepResult
    ) -> List[JobSpec]:
        """Execute on a process pool; returns the specs that still need
        serial execution (all of them if no pool could be created, the
        unfinished remainder if the pool broke mid-sweep)."""
        units = self._make_units(specs)
        try:
            pool = ProcessPoolExecutor(max_workers=min(self.n_jobs, len(units)))
        except Exception:
            return list(specs)

        # future -> (unit_specs, attempt, submit_time)
        pending: Dict[object, tuple] = {}
        leftover: List[JobSpec] = []

        def submit(unit: List[JobSpec], attempt: int) -> None:
            future = pool.submit(functools.partial(run_job_group, self.runner), unit)
            _BATCHES_TOTAL.inc()
            pending[future] = (unit, attempt, time.monotonic())

        try:
            for unit in units:
                submit(unit, 1)
            while pending:
                done, _ = wait(
                    set(pending),
                    timeout=self._wait_budget(pending),
                    return_when=FIRST_COMPLETED,
                )
                now = time.monotonic()
                for future in done:
                    unit, attempt, t0 = pending.pop(future)
                    try:
                        outcomes = future.result()
                    except BrokenProcessPool:
                        leftover.extend(unit)
                        raise
                    except Exception as exc:
                        # The whole batch died (transport error, ...).
                        self._retry_or_fail(
                            submit, sweep, unit, attempt, now - t0,
                            f"{type(exc).__name__}: {exc}",
                        )
                    else:
                        failed = []
                        for spec, (status, payload, elapsed, rss_kb) in zip(
                            unit, outcomes
                        ):
                            if status == "ok":
                                self._accept(
                                    sweep, spec, payload, attempt, elapsed,
                                    "pool", rss_kb=rss_kb,
                                )
                            else:
                                failed.append((spec, payload, elapsed, rss_kb))
                        if failed:
                            self._retry_or_fail_each(
                                submit, sweep, failed, attempt
                            )
                if self.timeout is not None:
                    for future in list(pending):
                        unit, attempt, t0 = pending[future]
                        if now - t0 >= self.timeout:
                            del pending[future]
                            future.cancel()
                            self._retry_or_fail(
                                submit, sweep, unit, attempt, now - t0,
                                f"timed out after {self.timeout:g}s",
                                timed_out=True,
                            )
        except BrokenProcessPool:
            for unit, _, _ in pending.values():
                leftover.extend(unit)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return leftover

    def _wait_budget(self, pending: Mapping[object, tuple]) -> Optional[float]:
        """How long :func:`wait` may block before a deadline check."""
        if self.timeout is None:
            return None
        now = time.monotonic()
        next_deadline = min(t0 + self.timeout for _, _, t0 in pending.values())
        return max(0.01, next_deadline - now)

    def _retry_or_fail(
        self,
        submit: Callable[[List[JobSpec], int], None],
        sweep: SweepResult,
        unit: List[JobSpec],
        attempt: int,
        wall: float,
        error: str,
        timed_out: bool = False,
    ) -> None:
        if attempt <= self.retries:
            submit(unit, attempt + 1)
        else:
            for spec in unit:
                self._record(
                    sweep, spec, STATUS_FAILED, attempt, wall, "pool", error,
                    timed_out=timed_out,
                )

    def _retry_or_fail_each(
        self,
        submit: Callable[[List[JobSpec], int], None],
        sweep: SweepResult,
        failed: List[tuple],
        attempt: int,
    ) -> None:
        """Per-spec failures inside a batch: resubmit the failures as
        one new unit, or record them once retries are exhausted."""
        if attempt <= self.retries:
            submit([spec for spec, _, _, _ in failed], attempt + 1)
        else:
            for spec, error, elapsed, rss_kb in failed:
                self._record(
                    sweep, spec, STATUS_FAILED, attempt, elapsed, "pool",
                    error, rss_kb=rss_kb,
                )
