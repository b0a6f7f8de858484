"""Shared simulation runner on top of the ``repro.runtime`` subsystem.

Execution policy lives in :mod:`repro.runtime`; this module keeps the
bench-facing conveniences: a bounded in-process memo (keyed by the
runtime job fingerprint, LRU-evicted so unbounded sweeps cannot grow
memory without limit), an optional process-wide disk cache and worker
count configured once by the CLI (:func:`configure_runtime`), and the
aggregation-phase metric helpers the figure generators read.  Every
simulation goes through :func:`run_sweep`, i.e. one
:class:`SweepExecutor` run.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

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
    "prime_cache",
    "aggregation_cycles",
    "aggregation_utilization",
    "aggregation_hit_rate",
    "phase_snapshot_rows",
    "merged_phase_snapshot",
    "clear_cache",
]

#: The dataflows of the paper's Figure 7 comparison, plus extensions.
DEFAULT_ACCELERATORS = ("op", "rwp", "hymm")
ALL_ACCELERATORS = ("op", "rwp", "cwp", "gcod", "op-deferred", "op-tiled", "hymm")

#: In-process memo: job fingerprint -> RunResult, LRU-bounded.
_CACHE: "OrderedDict[str, RunResult]" = OrderedDict()
_MEMO_LIMIT = 256

#: Process-wide execution defaults (set by :func:`configure_runtime`).
_N_JOBS = 1
#: Also where executions record and replay phase traces; without it
#: every run simulates live.
_DISK_CACHE: Optional[ResultCache] = None


def configure_runtime(
    n_jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    disk_cache: Optional[bool] = None,
    memo_limit: Optional[int] = None,
) -> None:
    """Set process-wide execution defaults (used by the CLI).

    ``n_jobs`` is the default worker count for :func:`run_suite` /
    :func:`run_sweep`; ``disk_cache=True`` attaches a persistent
    :class:`ResultCache` (at ``cache_dir`` or the default location),
    ``disk_cache=False`` detaches it; ``memo_limit`` resizes the
    in-process memo.
    """
    global _N_JOBS, _DISK_CACHE, _MEMO_LIMIT
    if n_jobs is not None:
        _N_JOBS = max(1, int(n_jobs))
    if disk_cache is True or (disk_cache is None and cache_dir is not None):
        _DISK_CACHE = ResultCache(cache_dir)
    elif disk_cache is False:
        _DISK_CACHE = None
    if memo_limit is not None:
        if memo_limit <= 0:
            raise ValueError("memo_limit must be positive")
        _MEMO_LIMIT = memo_limit
        while len(_CACHE) > _MEMO_LIMIT:
            _CACHE.popitem(last=False)


def runtime_settings() -> Dict[str, object]:
    """The current process-wide defaults (for tests and the CLI)."""
    return {
        "n_jobs": _N_JOBS,
        "disk_cache": _DISK_CACHE,
        "memo_limit": _MEMO_LIMIT,
        "memo_size": len(_CACHE),
    }


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


def _memo_put(fingerprint: str, result: RunResult) -> None:
    _CACHE[fingerprint] = result
    _CACHE.move_to_end(fingerprint)
    while len(_CACHE) > _MEMO_LIMIT:
        _CACHE.popitem(last=False)


def prime_cache(spec: JobSpec, result: RunResult) -> None:
    """Insert an externally produced result into the in-process memo
    (the CLI primes sweep results so figure generators hit memory)."""
    _memo_put(spec.fingerprint(), result)


def run_accelerator(
    dataset: str,
    kind: str,
    scale: Optional[float] = None,
    n_layers: int = 1,
    seed: int = 0,
    config: Optional[HyMMConfig] = None,
) -> RunResult:
    """Simulate one accelerator on one dataset (memoised).

    ``config=None`` uses each accelerator's paper-default configuration
    (HyMM unified buffer, baselines split buffers).  The in-process memo
    is consulted first; a miss is a one-job :func:`run_sweep`, so it
    takes the executor's path (disk cache when configured, retry).  A
    job that still fails raises ``RuntimeError`` with its error.
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
    """Execute a batch of jobs through the runtime and prime the memo.

    Jobs already in the memo are served from it; the rest go through
    :class:`SweepExecutor` (disk cache, process pool, retry) with the
    process-wide defaults unless overridden.  Failed jobs are recorded
    in the returned manifest, not raised -- a later
    :func:`run_accelerator` call will retry them.
    """
    workers = _N_JOBS if n_jobs is None else max(1, int(n_jobs))
    sweep = SweepResult()
    todo = []
    for spec in specs:
        fingerprint = spec.fingerprint()
        if fingerprint in _CACHE:
            _CACHE.move_to_end(fingerprint)
            sweep.results[fingerprint] = _CACHE[fingerprint]
        else:
            todo.append(spec)
    if todo:
        executor = SweepExecutor(
            n_jobs=workers,
            cache=_DISK_CACHE,
            timeout=timeout,
            retries=retries,
            progress=progress,
        )
        executed = executor.run(todo)
        sweep.manifest = executed.manifest
        for fingerprint, result in executed.results.items():
            sweep.results[fingerprint] = result
            _memo_put(fingerprint, result)
    return sweep


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


def clear_cache() -> int:
    """Drop memoised runs; returns how many were cached."""
    n = len(_CACHE)
    _CACHE.clear()
    return n
