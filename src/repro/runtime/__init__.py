"""Sweep-execution runtime: job specs, parallel execution, result cache.

This package owns *how* simulations get executed, separating that
concern from *what* gets simulated (``repro.hymm`` / ``repro.baselines``)
and *which* experiments need the results (``repro.bench``):

* :class:`JobSpec` -- one simulation point (dataset, accelerator,
  scale, layers, seed, config overrides) with a stable content-hash
  fingerprint that is identical across processes and sessions.
* :class:`SweepExecutor` -- runs a batch of jobs over a
  :class:`ResultCache`, fanning the misses out over a process pool
  with per-job timeout and bounded retry, falling back to in-process
  serial execution when ``n_jobs=1`` or no pool can be created.
* :class:`ResultCache` -- on-disk records keyed by job fingerprint
  (which covers the schema version and the result-computing source),
  so repeated figure/table runs and CI re-runs skip already-simulated
  points, and the only home of phase traces.
* :class:`RunManifest` -- per-sweep accounting (queued/done/failed,
  cache hit rate, wall-clock per job) surfaced by the bench CLI.

Everything every future scaling layer (sharding, async serving,
multi-backend) plugs into lives here.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.runtime.cache import ResultCache, default_cache_dir
    from repro.runtime.execute import (
        execute_job,
        execute_spec,
        make_accelerator,
    )
    from repro.runtime.executor import SweepExecutor, SweepResult
    from repro.runtime.job import SCHEMA_VERSION, JobSpec
    from repro.runtime.manifest import JobRecord, RunManifest
    from repro.runtime.serialize import to_jsonable

__all__ = [
    "SCHEMA_VERSION",
    "JobSpec",
    "ResultCache",
    "default_cache_dir",
    "JobRecord",
    "RunManifest",
    "SweepExecutor",
    "SweepResult",
    "execute_job",
    "execute_spec",
    "make_accelerator",
    "to_jsonable",
]

# The specs, the store and the manifest load without the simulator;
# ``SweepExecutor`` and the ``execute_*`` functions load all of it.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.runtime.job": ("SCHEMA_VERSION", "JobSpec"),
    "repro.runtime.serialize": ("to_jsonable",),
    "repro.runtime.cache": ("ResultCache", "default_cache_dir"),
    "repro.runtime.manifest": ("JobRecord", "RunManifest"),
    "repro.runtime.executor": ("SweepExecutor", "SweepResult"),
    "repro.runtime.execute": (
        "execute_job", "execute_spec", "make_accelerator",
    ),
})
