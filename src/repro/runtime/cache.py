"""Persistent on-disk stores: job results and phase traces.

Both stores keep one JSON file per record and share the record I/O
below (:func:`_read_record`, :func:`_write_record`).

:class:`ResultCache` maps a job fingerprint to its ``RunResult``
(``{"fingerprint", "spec", "result", ...}``), sharded into two levels
of hash-prefix directories so no directory piles up every record of a
large cache.  ``"result"`` is the wire document the job's worker
returned, stored as-is; :class:`~repro.runtime.executor.SweepExecutor`
is the only code that stores records::

    <cache_dir>/
        <fp[0:2]>/<fp[2:4]>/<fingerprint>.json
        manifests/              # sweep manifests (written by the CLI)
        traces/                 # phase traces (see TraceStore)

:class:`TraceStore` holds one job's phase traces flat in that job's
own directory (``JobSpec.trace_dir``, already sharded by fingerprint)::

    <trace root>/<fp[0:2]>/<fingerprint>/<phase signature>.json

Invalidation rules:

* the fingerprint already encodes the job schema version and the
  ``repro`` package version, so upgrading either simply stops hitting
  old records;
* a record whose embedded ``RunResult`` schema version no longer
  matches the code is treated as a miss and evicted;
* unreadable/corrupt records (truncated writes, bad JSON, missing
  keys) are evicted on first touch and counted in
  :attr:`ResultCache.corrupt` -- a damaged cache degrades to cold, it
  never fails a run.

Writes go through a temp file in the record's *own* directory +
``os.replace``, so a concurrent reader (or a killed writer) can never
observe a partial record, and two writers racing the same key resolve
last-writer-wins with no torn JSON.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import threading
import time
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple, TypeVar, Union

from repro.hymm.base import RunResult
from repro.runtime.job import SCHEMA_VERSION, JobSpec

T = TypeVar("T")


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/hymm-repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env).expanduser()
    return pathlib.Path.home() / ".cache" / "hymm-repro"


def _evict(path: pathlib.Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def _read_record(
    path: pathlib.Path, decode: Callable[[Dict[str, Any]], T]
) -> Tuple[Optional[T], bool]:
    """``(decode of the JSON object at path, corrupt)``.

    A missing record is ``(None, False)``.  A record that cannot be
    read, is not a JSON object, or that ``decode`` rejects is evicted
    and reported as ``(None, True)``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        if not isinstance(record, dict):
            raise ValueError("record is not a JSON object")
        return decode(record), False
    except FileNotFoundError:
        return None, False
    except (KeyError, TypeError, ValueError, OSError):
        _evict(path)
        return None, True


def _write_record(path: pathlib.Path, record: Mapping[str, Any]) -> pathlib.Path:
    """Atomically persist one record; returns ``path``.

    The temp file lives in the record's own directory, so the final
    ``os.replace`` is a same-filesystem atomic rename: a reader can
    never see a partial record, and concurrent writers racing the
    same key resolve last-writer-wins (each publishes a complete
    record; whichever rename lands last sticks).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        os.replace(tmp_name, path)
    except BaseException:
        _evict(pathlib.Path(tmp_name))
        raise
    return path


def _decode_result(record: Dict[str, Any]) -> RunResult:
    return RunResult.from_dict(record["result"])


class ResultCache:
    """Disk-backed map ``JobSpec fingerprint -> RunResult``."""

    def __init__(self, cache_dir: "Optional[os.PathLike[str]]" = None) -> None:
        #: Counters since construction (surfaced in manifests).  The
        #: serve front end probes the cache from worker threads
        #: (``asyncio.to_thread``) while its event loop renders
        #: ``stats()``, so every counter update takes the lock --
        #: ``+=`` alone is a non-atomic read-modify-write.
        self._counter_lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir else default_cache_dir()
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    def _path(self, fingerprint: str) -> pathlib.Path:
        return (
            self.cache_dir / fingerprint[0:2] / fingerprint[2:4]
            / f"{fingerprint}.json"
        )

    def load(self, spec: JobSpec) -> Optional[RunResult]:
        """The cached result for ``spec``, or ``None`` (miss).

        Records that cannot be parsed or no longer match the current
        result schema are evicted and reported as misses.
        """
        result, corrupt = _read_record(
            self._path(spec.fingerprint()), _decode_result
        )
        with self._counter_lock:
            if result is None:
                self.misses += 1
                self.corrupt += int(corrupt)
            else:
                self.hits += 1
        return result

    def store(self, spec: JobSpec, doc: Mapping[str, Any]) -> pathlib.Path:
        """Atomically persist one result; returns the record path.

        ``doc`` is the job's wire document (``RunResult.to_dict()``, as
        :func:`repro.runtime.execute.execute_job` returns it, minus the
        executor's ``"replay"`` side-channel); it is written as the
        record's ``"result"`` without being encoded again.
        """
        fingerprint = spec.fingerprint()
        spec_doc = spec.to_dict()
        # Cache records are content-addressed and shared across
        # requests; the telemetry correlation ID of whichever request
        # happened to compute the result first does not belong in them.
        spec_doc.pop("corr_id", None)
        record = {
            "fingerprint": fingerprint,
            "schema_version": SCHEMA_VERSION,
            "created_unix": time.time(),
            "spec": spec_doc,
            "result": doc,
        }
        path = _write_record(self._path(fingerprint), record)
        with self._counter_lock:
            self.stores += 1
        return path

    # ------------------------------------------------------------------
    def _record_paths(self) -> Iterator[pathlib.Path]:
        """Every record file (maintenance walks)."""
        return iter(self.cache_dir.glob("??/??/*.json"))

    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        removed = 0
        for path in list(self._record_paths()):
            _evict(path)
            removed += 1
        return removed

    def size(self) -> int:
        """Number of records currently on disk."""
        return sum(1 for _ in self._record_paths())

    def stats(self) -> Dict[str, int]:
        with self._counter_lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "corrupt": self.corrupt,
            }

    @property
    def hit_rate(self) -> float:
        """Hits over lookups since construction (0.0 before any)."""
        with self._counter_lock:
            lookups = self.hits + self.misses
            return self.hits / lookups if lookups else 0.0


class TraceStore:
    """One job's resolved phase-timing traces (record/replay).

    Keys are the 64-hex chained phase signatures :mod:`repro.sim.replay`
    computes; records are raw JSON dicts carrying the phase's resolved
    timing -- stats delta, output matrix, and post-phase simulator
    state -- stored flat as ``<root>/<sig>.json``, where ``root`` is the
    job's own trace directory.  Corrupt records are evicted, the same
    degradation contract as the result cache.  Invalidation is
    structural: the signature chain hashes the trace schema version,
    the model fingerprint, and every timing-relevant config knob, so
    any change simply stops hitting old records.
    """

    def __init__(self, root: Union[str, os.PathLike[str]]) -> None:
        self.root = pathlib.Path(root)

    def load_trace(self, sig: str) -> Optional[Dict[str, Any]]:
        """The stored trace record for ``sig``, or ``None`` (miss)."""
        return _read_record(self.root / f"{sig}.json", dict)[0]

    def store_trace(self, sig: str, record: Dict[str, Any]) -> pathlib.Path:
        """Atomically persist one trace record; returns the path."""
        return _write_record(self.root / f"{sig}.json", record)
