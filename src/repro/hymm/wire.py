"""The wire form of a :class:`~repro.hymm.base.RunResult`: its schema
version and the checks every reader of it applies.

Stdlib only: the result cache builds a served job's wire document from
the stored record and blob bytes (``ResultCache.load_document``), and
checks it here without loading numpy or the simulator.
:meth:`RunResult.from_dict <repro.hymm.base.RunResult.from_dict>` runs
the same checks before it decodes the outputs, so a document either
reader accepts decodes.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.hymm.config import HyMMConfig
from repro.sim.stats import SimStats

#: Wire-format version of :meth:`RunResult.to_dict
#: <repro.hymm.base.RunResult.to_dict>`.  Bump on layout changes; the
#: runtime's disk cache treats records of any other version as misses.
#: v2: added ``phase_snapshots``.  v3: ``phase_snapshots`` is the only
#: per-phase counter record, with ``phase_occupancy`` beside it.
RESULT_SCHEMA_VERSION = 3


def result_fields(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Every ``RunResult`` constructor argument but ``outputs``, parsed
    from the wire document ``data``.

    Raises ``ValueError`` on a schema-version mismatch, and ``KeyError``,
    ``TypeError`` or ``ValueError`` on a missing or malformed field
    (the config goes through ``HyMMConfig.from_dict``, the stats and
    every phase snapshot through ``SimStats.from_dict``).
    """
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
        "stats": SimStats.from_dict(data["stats"]),
        "phase_snapshots": {
            p: SimStats.from_dict(s) for p, s in data["phase_snapshots"].items()
        },
        "phase_occupancy": {
            p: dict(o) for p, o in data["phase_occupancy"].items()
        },
        "sort_ms": data["sort_ms"],
        "wall_seconds": data["wall_seconds"],
        "extra": dict(data["extra"]),
    }
