"""Sweep accounting: per-job records and the run manifest.

Every :class:`~repro.runtime.executor.SweepExecutor` run produces one
:class:`RunManifest` -- how many jobs were queued, which came from the
cache, which executed where (pool worker vs in-process serial), how
many attempts and seconds each took, and what failed with which error.
The bench CLI prints the summary line and, with ``--output DIR``,
writes the whole manifest as ``DIR/run_manifest.json``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.runtime.job import JobSpec

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platform
    resource = None  # type: ignore[assignment]

#: Job states a record can end in.
STATUS_DONE = "done"
STATUS_FAILED = "failed"
STATUS_CACHE_HIT = "cache-hit"


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of the calling process, in KiB.

    ``None`` where :mod:`resource` is unavailable.  ``ru_maxrss`` is
    kilobytes on Linux but bytes on macOS.
    """
    if resource is None:
        return None
    rss = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if sys.platform == "darwin":
        rss //= 1024
    return rss


@dataclass
class JobRecord:
    """Outcome of one job within a sweep."""

    fingerprint: str
    label: str
    status: str
    attempts: int = 0
    wall_seconds: float = 0.0
    worker: str = "serial"  # "pool", "serial", or "cache"
    error: Optional[str] = None
    #: Peak RSS of the process that ran the job, at the time the job
    #: finished.  A high-water mark, not a per-job delta: jobs sharing a
    #: worker share the worker's peak.  ``None`` for cache hits.
    max_rss_kb: Optional[int] = None
    timed_out: bool = False
    #: Telemetry correlation ID of the request that caused this job
    #: (``JobSpec.corr_id``); ``None`` outside the serve path -- and
    #: then absent from the serialised record, so pre-telemetry
    #: manifests are byte-identical.
    corr_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "fingerprint": self.fingerprint,
            "label": self.label,
            "status": self.status,
            "attempts": self.attempts,
            "wall_seconds": self.wall_seconds,
            "worker": self.worker,
            "error": self.error,
            "max_rss_kb": self.max_rss_kb,
            "timed_out": self.timed_out,
        }
        if self.corr_id is not None:
            doc["corr_id"] = self.corr_id
        return doc


@dataclass
class RunManifest:
    """Aggregated accounting for one sweep."""

    n_jobs: int = 1
    records: List[JobRecord] = field(default_factory=list)
    started_unix: float = field(default_factory=time.time)
    wall_seconds: float = 0.0
    cache_stats: Dict[str, int] = field(default_factory=dict)
    #: Phase-trace replay accounting across every executed job: phases
    #: served from the trace store vs simulated live and recorded (the
    #: record-on-miss, replay-on-hit production path).  Both stay zero
    #: when the sweep has no result cache (no traces without one) or
    #: every job was a result-cache hit.
    replay_hits: int = 0
    replay_misses: int = 0

    # ------------------------------------------------------------------
    def add(self, record: JobRecord) -> None:
        self.records.append(record)

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def executed(self) -> int:
        return sum(1 for r in self.records if r.status == STATUS_DONE)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.status == STATUS_FAILED)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.records if r.status == STATUS_CACHE_HIT)

    @property
    def cache_misses(self) -> int:
        """Jobs the cache could not serve (executed or failed)."""
        return self.total - self.cache_hits

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    @property
    def timeouts(self) -> int:
        return sum(1 for r in self.records if r.timed_out)

    @property
    def retries(self) -> int:
        """Extra attempts beyond the first, summed over all jobs."""
        return sum(max(0, r.attempts - 1) for r in self.records)

    @property
    def peak_rss_kb(self) -> Optional[int]:
        """Highest per-process peak RSS seen by any job, in KiB."""
        values = [r.max_rss_kb for r in self.records if r.max_rss_kb]
        return max(values) if values else None

    def failures(self) -> List[JobRecord]:
        return [r for r in self.records if r.status == STATUS_FAILED]

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One line for the CLI: totals, hit rate, failures, wall."""
        parts = [
            f"{self.total} job{'s' if self.total != 1 else ''}:",
            f"{self.executed} simulated,",
            f"{self.cache_hits} cache hit{'s' if self.cache_hits != 1 else ''}"
            f" ({self.hit_rate:.0%}),",
            f"{self.failed} failed;",
            f"{self.n_jobs} worker{'s' if self.n_jobs != 1 else ''},",
            f"{self.wall_seconds:.1f}s wall",
        ]
        if self.timeouts:
            parts.append(f"({self.timeouts} timed out)")
        if self.replay_hits or self.replay_misses:
            parts.append(
                f"[replay {self.replay_hits}/"
                f"{self.replay_hits + self.replay_misses} phases]"
            )
        rss = self.peak_rss_kb
        if rss is not None:
            parts.append(f"[peak RSS {rss / 1024:.0f} MB]")
        return " ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "summary": self.summary(),
            "n_jobs": self.n_jobs,
            "started_unix": self.started_unix,
            "wall_seconds": self.wall_seconds,
            "total": self.total,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "failed": self.failed,
            "hit_rate": self.hit_rate,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "peak_rss_kb": self.peak_rss_kb,
            "replay_hits": self.replay_hits,
            "replay_misses": self.replay_misses,
            "cache_stats": dict(self.cache_stats),
            "jobs": [r.to_dict() for r in self.records],
        }


def record_label(spec: JobSpec) -> str:
    return spec.describe()
