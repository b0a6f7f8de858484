"""Job execution: turn a :class:`JobSpec` into a :class:`RunResult`.

These are the only functions worker processes run, so they are plain
module-level callables (picklable by reference).  Importing this module
loads everything a job runs -- the accelerators, the workload layer and
the trace replay -- so a process that imports it (a sweep, a pool
worker, a server's first batch) pays for that once, up front, and the
lighter parts of ``repro.runtime`` (specs, the store) load without it.

A job the runtime runs always runs against a result cache:
:func:`execute_job` records and replays its phase traces there.
:func:`execute_spec` alone simulates every phase live and writes
nothing (``python -m repro.obs trace`` and tests use it).
"""

from __future__ import annotations

import logging
import time
from typing import Dict, Optional

from repro.baselines import (
    CWPAccelerator,
    GCoDAccelerator,
    OPAccelerator,
    RWPAccelerator,
    TiledOPAccelerator,
)
from repro.bench import workloads
from repro.hymm.accelerator import HyMMAccelerator
from repro.hymm.base import AcceleratorBase, RunResult
from repro.hymm.config import HyMMConfig
from repro.obs.tracer import Tracer
from repro.runtime.cache import job_trace_store
from repro.runtime.job import JobSpec
from repro.sim.replay import TraceSession
from repro.telemetry import bind_correlation, get_logger, span

_log = get_logger("runtime.execute")


def make_accelerator(
    kind: str,
    config: Optional[HyMMConfig] = None,
    sort_mode: Optional[str] = None,
    seed: int = 0,
) -> "AcceleratorBase":
    """Instantiate an accelerator by its report name.

    ``sort_mode`` selects HyMM's preprocessing ("degree", "none",
    "random"); it is an error for any other accelerator.  ``seed``
    (normally ``JobSpec.seed``) seeds any stochastic preprocessing --
    currently HyMM's ``"random"`` relabelling -- so the permutation is
    pinned by the job fingerprint rather than by a constant buried in
    the accelerator.
    """
    if kind == "hymm":
        return HyMMAccelerator(
            config if config is not None else HyMMConfig(),
            sort_mode=sort_mode if sort_mode is not None else "degree",
            sort_seed=seed,
        )
    if sort_mode is not None:
        raise ValueError(f"sort_mode is only supported by 'hymm', not {kind!r}")
    if kind == "rwp":
        return RWPAccelerator(config)
    if kind == "op":
        return OPAccelerator(config)
    if kind == "op-deferred":
        return OPAccelerator(config, merge_mode="deferred")
    if kind == "op-tiled":
        return TiledOPAccelerator(config)
    if kind == "gcod":
        return GCoDAccelerator(config)
    if kind == "cwp":
        return CWPAccelerator(config)
    raise ValueError(f"unknown accelerator kind {kind!r}")


def execute_spec(
    spec: JobSpec,
    tracer: Optional[Tracer] = None,
    replay_session: Optional[object] = None,
) -> RunResult:
    """Run one job in this process, returning the live result
    (including non-serialisable ``extra`` entries such as the HyMM
    region plan).

    ``tracer`` (optional) receives the run's simulated-time events --
    the ``python -m repro.obs trace`` entry point.  Tracing never
    changes the result: stats are identical with or without it.

    ``replay_session`` (optional, a
    :class:`~repro.sim.replay.TraceSession`) records and replays the
    run's phase traces; ``None`` (the default) simulates every phase
    live and writes nothing.
    """
    model = workloads.make_model(
        spec.dataset,
        spec.scale,
        n_layers=spec.n_layers,
        seed=spec.seed,
        feature_length=spec.feature_length,
    )
    accelerator = make_accelerator(
        spec.kind, spec.config, spec.sort_mode, seed=spec.seed
    )
    return accelerator.run_inference(
        model, tracer=tracer, replay_session=replay_session
    )


def execute_job(
    spec: JobSpec,
    cache_dir: str,
    tracer: Optional[Tracer] = None,
) -> Dict[str, object]:
    """Worker entry point: run one job and return its serialised dict.

    This is the only code that runs a job: the sweep executor's serial
    lane and pool workers, the serve front end and ``repro.bench`` all
    reach it through :class:`~repro.runtime.executor.SweepExecutor`.
    Returning the wire form (rather than the live object) keeps the
    pool transport, the disk cache, and serial execution on one code
    path, which is what makes ``n_jobs=4`` bit-identical to serial.
    The executor stores this document as the cache record, so a job is
    encoded exactly once.

    ``tracer`` is handed to :func:`execute_spec`; the serve front end's
    serial lane passes a :class:`~repro.obs.tracer.PhaseFeed` to stream
    per-phase progress while the job runs.

    The run records and replays phase traces in the job's store in
    ``cache_dir``, the job's result cache
    (:func:`repro.runtime.cache.job_trace_store`), and the returned dict
    carries a ``"replay"`` side channel, ``{"replayed": n, "recorded":
    m}``, that :class:`~repro.runtime.executor.SweepExecutor` folds into
    the run manifest.
    """
    # Re-establish the submitting request's correlation context in this
    # (possibly pool-worker) process: JobSpec.corr_id is how the ID
    # crosses the pickle boundary.
    bind_correlation(spec.corr_id)
    # Telemetry-off contract: skip even building the log payloads (the
    # fingerprint is a SHA-256) unless a handler actually wants them.
    chatty = _log.isEnabledFor(logging.INFO)
    t0 = time.perf_counter()
    if chatty:
        _log.info(
            "job start",
            extra={"fingerprint": spec.fingerprint(), "job": spec.describe()},
        )
    try:
        session = TraceSession(job_trace_store(cache_dir, spec))
        with span("runtime.execute", job=spec.describe()):
            doc = execute_spec(
                spec, tracer=tracer, replay_session=session
            ).to_dict()
        doc["replay"] = {
            "replayed": len(session.replayed),
            "recorded": len(session.recorded),
        }
    except Exception as exc:
        if _log.isEnabledFor(logging.WARNING):
            _log.warning(
                "job failed",
                extra={
                    "fingerprint": spec.fingerprint(),
                    "error": f"{type(exc).__name__}: {exc}",
                    "wall_s": round(time.perf_counter() - t0, 6),
                },
            )
        raise
    if chatty:
        _log.info(
            "job done",
            extra={
                "fingerprint": spec.fingerprint(),
                "wall_s": round(time.perf_counter() - t0, 6),
                "replay": doc["replay"],
            },
        )
    return doc
