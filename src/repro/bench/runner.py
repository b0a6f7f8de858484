"""Shared simulation runner on top of the ``repro.runtime`` subsystem.

Execution policy lives in :mod:`repro.runtime`; this module keeps the
bench-facing conveniences: the process-wide worker count and result
store, configured once (:func:`configure_runtime`), and the
aggregation-phase metric helpers the figure generators read.  Every
simulation goes through :func:`run_sweep`, i.e. one
:class:`SweepExecutor` run over that store, so a repeated point (the
Fig. 7/8/9/11 benches read the same runs) is a store hit.  The store
is the persistent one the CLI selects, or else a private temporary
store this process makes on first use and removes at exit.
"""

from __future__ import annotations

import atexit
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.hymm import HyMMConfig
from repro.hymm.base import RunResult
from repro.sim import SimStats
from repro.runtime import (
    JobSpec,
    ResultCache,
    SweepExecutor,
    SweepResult,
    make_accelerator,
)
from repro.bench.workloads import bench_scale

if TYPE_CHECKING:
    from tempfile import TemporaryDirectory

__all__ = [
    "DEFAULT_ACCELERATORS",
    "ALL_ACCELERATORS",
    "make_accelerator",
    "job_spec",
    "configure_runtime",
    "runtime_settings",
    "run_accelerator",
    "run_suite",
    "run_sweep",
    "aggregation_cycles",
    "aggregation_utilization",
    "aggregation_hit_rate",
    "phase_snapshot_rows",
    "merged_phase_snapshot",
]

#: The dataflows of the paper's Figure 7 comparison, plus extensions.
DEFAULT_ACCELERATORS = ("op", "rwp", "hymm")
ALL_ACCELERATORS = ("op", "rwp", "cwp", "gcod", "op-deferred", "op-tiled", "hymm")

#: Process-wide execution defaults (set by :func:`configure_runtime`).
_N_JOBS = 1
#: The store every sweep runs over; ``None`` until the private
#: temporary store is made (:func:`_store`).
_STORE: Optional[ResultCache] = None
#: The private store's directory, while there is one.
_PRIVATE: "Optional[TemporaryDirectory[str]]" = None


def configure_runtime(
    n_jobs: Optional[int] = None, cache_dir: Optional[str] = None
) -> None:
    """Set process-wide execution defaults (used by the CLI).

    ``n_jobs`` is the default worker count for :func:`run_suite` /
    :func:`run_sweep`.  ``cache_dir`` selects the persistent
    :class:`ResultCache` there; ``None`` selects a private temporary
    store, made on first use and removed when it is replaced or when
    the interpreter exits.  A ``cache_dir`` that cannot be created
    raises ``OSError`` and changes nothing.
    """
    global _N_JOBS, _STORE, _PRIVATE
    store = None if cache_dir is None else ResultCache(cache_dir)
    if n_jobs is not None:
        _N_JOBS = max(1, int(n_jobs))
    if _PRIVATE is not None:
        atexit.unregister(_PRIVATE.cleanup)
        _PRIVATE.cleanup()
        _PRIVATE = None
    _STORE = store


def _store() -> ResultCache:
    """The process-wide store, making the private one on first use."""
    global _STORE, _PRIVATE
    if _STORE is None:
        import tempfile  # here only: a persistent store never needs it

        _PRIVATE = tempfile.TemporaryDirectory(prefix="repro-bench-")
        atexit.register(_PRIVATE.cleanup)
        _STORE = ResultCache(_PRIVATE.name)
    return _STORE


def runtime_settings() -> Dict[str, object]:
    """The current process-wide worker count and store (the private
    store is made here if there is none yet)."""
    return {"n_jobs": _N_JOBS, "cache": _store()}


def job_spec(
    dataset: str,
    kind: str,
    scale: Optional[float] = None,
    n_layers: int = 1,
    seed: int = 0,
    config: Optional[HyMMConfig] = None,
    sort_mode: Optional[str] = None,
) -> JobSpec:
    """Build the :class:`JobSpec` for one bench point, resolving
    ``scale=None`` to the dataset's bench scale."""
    return JobSpec(
        dataset=dataset,
        kind=kind,
        scale=bench_scale(dataset) if scale is None else scale,
        n_layers=n_layers,
        seed=seed,
        config=config,
        sort_mode=sort_mode,
    )


def run_accelerator(
    dataset: str,
    kind: str,
    scale: Optional[float] = None,
    n_layers: int = 1,
    seed: int = 0,
    config: Optional[HyMMConfig] = None,
) -> RunResult:
    """Simulate one accelerator on one dataset.

    ``config=None`` uses each accelerator's paper-default configuration
    (HyMM unified buffer, baselines split buffers).  This is a one-job
    :func:`run_sweep`, so a point already in the store is a hit and a
    miss takes the executor's path (trace replay, retry).  A job that
    still fails raises ``RuntimeError`` with its error.
    """
    spec = job_spec(dataset, kind, scale, n_layers, seed, config)
    return _result_for(run_sweep([spec], n_jobs=1), spec)


def run_suite(
    dataset: str,
    kinds=DEFAULT_ACCELERATORS,
    scale: Optional[float] = None,
    n_layers: int = 1,
    seed: int = 0,
    n_jobs: Optional[int] = None,
) -> Dict[str, RunResult]:
    """Simulate several accelerators on one dataset.

    One :func:`run_sweep` over the kinds: ``n_jobs=None`` uses the
    process-wide default (1 unless the CLI was invoked with ``--jobs``);
    above 1 the kinds fan out over the runtime's process pool.
    """
    specs = {
        kind: job_spec(dataset, kind, scale, n_layers, seed) for kind in kinds
    }
    sweep = run_sweep(list(specs.values()), n_jobs=n_jobs)
    return {kind: _result_for(sweep, spec) for kind, spec in specs.items()}


def _result_for(sweep: SweepResult, spec: JobSpec) -> RunResult:
    """``spec``'s result in ``sweep``, or ``RuntimeError`` carrying the
    error its manifest recorded."""
    result = sweep.for_spec(spec)
    if result is not None:
        return result
    fingerprint = spec.fingerprint()
    errors = [
        record.error for record in sweep.manifest.records
        if record.fingerprint == fingerprint
    ]
    raise RuntimeError(
        f"{spec.describe()} failed: {errors[-1] if errors else 'no result'}"
    )


def run_sweep(
    specs: Sequence[JobSpec],
    n_jobs: Optional[int] = None,
    progress=None,
    timeout: Optional[float] = None,
    retries: int = 1,
) -> SweepResult:
    """Execute a batch of jobs through the runtime.

    One :class:`SweepExecutor` run over the process-wide store: stored
    jobs are hits, the rest run (process pool, retry) with the
    process-wide defaults unless overridden.  Failed jobs are recorded
    in the returned manifest, not raised -- a later
    :func:`run_accelerator` call will retry them.
    """
    return SweepExecutor(
        _store(),
        n_jobs=_N_JOBS if n_jobs is None else n_jobs,
        timeout=timeout,
        retries=retries,
        progress=progress,
    ).run(specs)


def aggregation_cycles(result: RunResult) -> int:
    """Cycles spent in aggregation phases (the SpDeMM under study)."""
    return merged_phase_snapshot(result, "aggregation").cycles


def aggregation_utilization(result: RunResult) -> float:
    """ALU utilisation within the aggregation phases (Fig. 8's subject:
    the SpDeMM dataflow, uncontaminated by the shared combination)."""
    return merged_phase_snapshot(result, "aggregation").alu_utilization()


def aggregation_hit_rate(result: RunResult) -> float:
    """Buffer hit rate within the aggregation phases (Fig. 9's subject);
    LSQ forwards count as on-chip hits."""
    return merged_phase_snapshot(result, "aggregation").hit_rate()


def phase_snapshot_rows(
    result: RunResult,
) -> List[Tuple[str, Dict[str, int]]]:
    """(phase, summed fields) per entry of ``result.phase_snapshots``,
    in execution order -- the rows the bench report tables and the obs
    trace report both print, so the two agree by construction."""
    return [
        (phase, snap.phase_row())
        for phase, snap in result.phase_snapshots.items()
    ]


def merged_phase_snapshot(result: RunResult, suffix: str = "") -> SimStats:
    """Fold the phase snapshots whose name ends with ``suffix`` into one
    :class:`SimStats` via ``merge`` (empty suffix folds everything --
    by the conservation invariant that reproduces the whole-run
    aggregate, minus fields prepare-time code never touches)."""
    merged = SimStats()
    for phase, snap in result.phase_snapshots.items():
        if phase.endswith(suffix):
            merged.merge(snap)
    return merged
