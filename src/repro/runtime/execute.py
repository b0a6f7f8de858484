"""Job execution: turn a :class:`JobSpec` into a :class:`RunResult`.

These are the only functions worker processes run, so they are plain
module-level callables (picklable by reference) and they import the
bench workload layer lazily to keep ``repro.runtime`` importable
without dragging in -- or cyclically re-entering -- ``repro.bench``.
"""

from __future__ import annotations

import logging
import time
from typing import TYPE_CHECKING, Dict, Optional

from repro.hymm import HyMMAccelerator, HyMMConfig
from repro.hymm.base import AcceleratorBase, RunResult
from repro.obs.tracer import Tracer
from repro.runtime.job import JobSpec
from repro.telemetry import bind_correlation, get_logger, span

if TYPE_CHECKING:
    from repro.runtime.cache import ResultCache

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
    from repro.baselines import (
        CWPAccelerator,
        GCoDAccelerator,
        OPAccelerator,
        RWPAccelerator,
        TiledOPAccelerator,
    )

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


#: Sentinel for "resolve the replay session from the default trace
#: root" -- distinct from ``None``, which means "replay off".
AUTO_REPLAY = object()

#: ``REPRO_TRACE_DIR`` values that turn replay off process-wide.
_REPLAY_OFF = frozenset({"0", "off", "none", "no", "false", "disabled"})


def trace_root() -> Optional[str]:
    """Root of the on-disk phase-trace tree, or ``None`` (replay off).

    Replay is the production path: by default traces live under
    ``<default cache dir>/traces``, next to the result cache, so every
    execution lane -- serial runner, pool workers, the serve front end
    -- records phase traces on a miss and replays them on a hit.
    ``REPRO_TRACE_DIR`` relocates the tree; setting it to ``off`` (or
    ``0``/``none``/``false``) disables record/replay entirely.  Replay
    is bit-identical to live simulation (see :mod:`repro.sim.replay`),
    so the switch only ever changes how fast a result is produced.
    """
    import os

    raw = os.environ.get("REPRO_TRACE_DIR")
    if raw is not None:
        stripped = raw.strip()
        if stripped.lower() in _REPLAY_OFF or not stripped:
            return None
        return stripped
    from repro.runtime.cache import default_cache_dir

    return os.path.join(str(default_cache_dir()), "traces")


def cache_trace_root(cache: Optional[ResultCache]) -> Optional[str]:
    """The trace root for a run that stores its results in ``cache``.

    Traces live next to the results they produced, in
    ``<cache_dir>/traces``, so ``--cache-dir /x`` never leaks traces
    into the default root.  ``REPRO_TRACE_DIR`` still wins (both as a
    relocation and as the ``off`` kill-switch), and a run without a
    cache uses the process-wide :func:`trace_root`.
    """
    import os

    if cache is None or os.environ.get("REPRO_TRACE_DIR") is not None:
        return trace_root()
    return str(cache.cache_dir / "traces")


def trace_blob_dir(root: str) -> str:
    """Where the phase traces under ``root`` keep their output blobs.

    The default layout, ``<cache_dir>/traces`` (no ``REPRO_TRACE_DIR``),
    shares ``<cache_dir>/blobs`` with the result records, so an output
    matrix that is both a phase output and a job output is stored once.
    Any other root -- a relocated ``REPRO_TRACE_DIR`` or an explicit
    ``trace_root`` not named ``traces`` -- keeps ``<root>/blobs``.
    """
    import os

    parent, name = os.path.split(os.path.normpath(root))
    if name == "traces" and os.environ.get("REPRO_TRACE_DIR") is None:
        return os.path.join(parent, "blobs")
    return os.path.join(root, "blobs")


def job_trace_session(
    spec: JobSpec, root: Optional[str] = None
) -> Optional[object]:
    """A :class:`repro.sim.replay.TraceSession` over ``spec``'s own
    trace directory (``JobSpec.trace_dir``), or ``None`` when replay is
    disabled.  ``root`` overrides the process-wide :func:`trace_root`;
    output blobs go to :func:`trace_blob_dir` of it.
    """
    root = root if root is not None else trace_root()
    if root is None:
        return None
    from repro.runtime.cache import TraceStore
    from repro.sim.replay import TraceSession

    return TraceSession(TraceStore(spec.trace_dir(root), trace_blob_dir(root)))


def replay_summary(session: Optional[object]) -> Optional[Dict[str, int]]:
    """Replay accounting of one finished session: phases replayed from
    the store vs simulated live and recorded.  ``None`` in, ``None``
    out (replay was off)."""
    if session is None:
        return None
    return {
        "replayed": len(session.replayed),
        "recorded": len(session.recorded),
    }


def execute_spec(
    spec: JobSpec,
    tracer: Optional[Tracer] = None,
    replay_session: object = AUTO_REPLAY,
) -> RunResult:
    """Run one job in this process, returning the live result
    (including non-serialisable ``extra`` entries such as the HyMM
    region plan).

    ``tracer`` (optional) receives the run's simulated-time events --
    the ``python -m repro.obs trace`` entry point.  Tracing never
    changes the result: stats are identical with or without it.

    ``replay_session`` defaults to :data:`AUTO_REPLAY`: a per-job
    session over the shared trace tree (see :func:`trace_root`), so
    repeated executions of the same spec replay their recorded phases
    instead of simulating.  Pass ``None`` to force a fully live run, or
    an explicit :class:`~repro.sim.replay.TraceSession` to direct the
    traces elsewhere and read the counters afterwards.
    """
    from repro.bench.workloads import make_model

    model = make_model(
        spec.dataset,
        spec.scale,
        n_layers=spec.n_layers,
        seed=spec.seed,
        feature_length=spec.feature_length,
    )
    accelerator = make_accelerator(
        spec.kind, spec.config, spec.sort_mode, seed=spec.seed
    )
    if replay_session is AUTO_REPLAY:
        replay_session = job_trace_session(spec)
    return accelerator.run_inference(
        model, tracer=tracer, replay_session=replay_session
    )


def execute_job(
    spec: JobSpec,
    replay: bool = True,
    trace_root_dir: Optional[str] = None,
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

    With ``replay`` (the default) the run records/replays phase traces
    through the job's directory under ``trace_root_dir`` (or the
    process-wide :func:`trace_root`), and the returned dict carries a
    ``"replay"`` side-channel entry -- ``{"replayed": n, "recorded":
    m}`` -- that :class:`~repro.runtime.executor.SweepExecutor` strips
    into the run manifest's replay counters before deserialising the
    result.
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
        session = job_trace_session(spec, trace_root_dir) if replay else None
        with span("runtime.execute", job=spec.describe()):
            doc = execute_spec(
                spec, tracer=tracer, replay_session=session
            ).to_dict()
        summary = replay_summary(session)
        if summary is not None:
            doc["replay"] = summary
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
                "replay": summary,
            },
        )
    return doc
