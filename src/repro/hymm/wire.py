"""The wire form of a :class:`~repro.hymm.base.RunResult`: its schema
version, the codec of its stats documents and the checks every reader
of it applies.

A stats document is :meth:`SimStats.to_dict
<repro.sim.stats.SimStats.to_dict>` with its ``partial_timeline`` --
the Fig. 10 footprint curve, one ``(partials, bytes)`` sample every
``PARTIAL_TIMELINE_STRIDE`` partials -- stored as runs ``[x, y, count]``
(:func:`encode_timeline`).  The footprint holds still for long
stretches, so an op-tiled job's thousands of samples fit in a few
hundred runs.  ``SimStats`` in memory and ``SimStats.to_dict()`` keep
the pairs; only the wire form (the result record, the pool transport,
serve replies and phase-trace records) holds runs.

Stdlib only: the result cache builds a served job's wire document from
the stored record and blob bytes (``ResultCache.load_document``), and
checks it here without loading numpy or the simulator.
:meth:`RunResult.from_dict <repro.hymm.base.RunResult.from_dict>` runs
the same checks before it decodes the outputs, so a document either
reader accepts decodes.  A summary hit (``ResultCache.probe``) runs
:func:`check_result`: every check :func:`result_fields` makes, with
each timeline's runs checked but never expanded.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.hymm.config import HyMMConfig
from repro.sim.stats import SimStats

#: Wire-format version of :meth:`RunResult.to_dict
#: <repro.hymm.base.RunResult.to_dict>`.  Bump on layout changes; the
#: runtime's disk cache treats records of any other version as misses.
#: v2: added ``phase_snapshots``.  v3: ``phase_snapshots`` is the only
#: per-phase counter record, with ``phase_occupancy`` beside it.  v4:
#: every stats document holds its ``partial_timeline`` as runs.
RESULT_SCHEMA_VERSION = 4

_STRIDE = SimStats.PARTIAL_TIMELINE_STRIDE


def encode_timeline(pairs: Iterable[Tuple[int, int]]) -> List[List[int]]:
    """The int pairs ``pairs`` as runs ``[x, y, count]``, each standing
    for the pairs ``(x + k * PARTIAL_TIMELINE_STRIDE, y)``, ``k <
    count``.  Exact for any list of int pairs: a gap in ``x`` or a
    change of ``y`` starts a new run."""
    runs: List[List[int]] = []
    run: List[int] = []
    extends: Optional[int] = None  # the x that would extend ``run``
    for x, y in pairs:
        if x == extends and y == run[1]:
            run[2] += 1
        else:
            run = [x, y, 1]
            runs.append(run)
        extends = x + _STRIDE
    return runs


def check_timeline(runs: Any) -> None:
    """Raise ``ValueError`` unless ``runs`` is a list of runs
    :func:`encode_timeline` can write: three ints each (bools are not),
    the count at least 1.  Expands nothing."""
    if type(runs) is not list:
        raise ValueError("partial_timeline is not a list of runs")
    for run in runs:
        if (
            type(run) is not list
            or len(run) != 3
            or type(run[0]) is not int
            or type(run[1]) is not int
            or type(run[2]) is not int
            or run[2] < 1
        ):
            raise ValueError(f"malformed partial_timeline run {run!r}")


def decode_timeline(runs: Any) -> List[Tuple[int, int]]:
    """The pairs the runs ``runs`` stand for, checked first
    (:func:`check_timeline`); inverse of :func:`encode_timeline`."""
    check_timeline(runs)
    pairs: List[Tuple[int, int]] = []
    for x, y, count in runs:
        pairs.extend(zip(range(x, x + count * _STRIDE, _STRIDE), repeat(y, count)))
    return pairs


def encode_stats(stats: SimStats) -> Dict[str, Any]:
    """The stats document of ``stats``: ``stats.to_dict()`` with its
    timeline as runs."""
    return stats.to_dict(partial_timeline=encode_timeline(stats.partial_timeline))


def decode_stats(doc: Mapping[str, Any]) -> SimStats:
    """Inverse of :func:`encode_stats`: the runs expanded, every counter
    checked by :meth:`SimStats.from_dict`."""
    return SimStats.from_dict(
        doc, partial_timeline=decode_timeline(doc["partial_timeline"])
    )


def check_stats(doc: Mapping[str, Any]) -> SimStats:
    """Every check :func:`decode_stats` makes, with the timeline's runs
    checked but not expanded; returns the counters with an empty
    timeline."""
    check_timeline(doc["partial_timeline"])
    return SimStats.from_dict(doc, partial_timeline=[])


def _fields(
    data: Mapping[str, Any], stats: Callable[[Mapping[str, Any]], SimStats]
) -> Dict[str, Any]:
    version = data.get("schema_version")
    if version != RESULT_SCHEMA_VERSION:
        raise ValueError(
            f"RunResult schema mismatch: record v{version}, "
            f"code v{RESULT_SCHEMA_VERSION}"
        )
    return {
        "accelerator": data["accelerator"],
        "dataset": data["dataset"],
        "config": HyMMConfig.from_dict(data["config"]),
        "stats": stats(data["stats"]),
        "phase_snapshots": {
            p: stats(s) for p, s in data["phase_snapshots"].items()
        },
        "phase_occupancy": {
            p: dict(o) for p, o in data["phase_occupancy"].items()
        },
        "sort_ms": data["sort_ms"],
        "wall_seconds": data["wall_seconds"],
        "extra": dict(data["extra"]),
    }


def result_fields(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Every ``RunResult`` constructor argument but ``outputs``, parsed
    from the wire document ``data``.

    Raises ``ValueError`` on a schema-version mismatch, and ``KeyError``,
    ``TypeError`` or ``ValueError`` on a missing or malformed field
    (the config goes through ``HyMMConfig.from_dict``, the stats and
    every phase snapshot through :func:`decode_stats`).
    """
    return _fields(data, decode_stats)


def check_result(data: Mapping[str, Any]) -> None:
    """Raise as :func:`result_fields` would on ``data``, without
    expanding any timeline (:func:`check_stats`): what a reader that
    answers a summary needs."""
    _fields(data, check_stats)
