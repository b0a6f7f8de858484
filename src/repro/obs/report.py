"""Summaries and comparisons of traces and run manifests.

Loaders plus the renderers used by the ``python -m repro.obs`` CLI:

* :func:`trace_report` -- per-phase cycle / DRAM-byte breakdown of one
  trace, cross-checked against the whole-run totals the obs CLI stores
  in ``otherData`` (the sums must match exactly -- the phase spans carry
  SimStats deltas built with the conservation invariant);
* :func:`wall_report` -- per-span wall-millisecond breakdown of a
  host-time trace (the files a ``ChromeTracer(clock="wall")`` writes,
  e.g. ``repro.serve serve --span-file``; detected via
  ``otherData.clock == "wall"``);
* :func:`manifest_report` -- per-job host telemetry of one run manifest
  (status, attempts, wall time, peak RSS, timeouts);
* :func:`diff_report` -- side-by-side comparison of two traces (e.g.
  scalar vs batched engine, two accelerators), two manifests, or --
  the *two clocks* view -- one wall-clock span file against one
  simulated-time trace, joined by the correlation IDs both carry (see
  ``docs/observability.md``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.report import format_table
from repro.sim.stats import PHASE_ROW_FIELDS


def load_json(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return doc


def is_trace(doc: Mapping[str, Any]) -> bool:
    return isinstance(doc.get("traceEvents"), list)


def is_manifest(doc: Mapping[str, Any]) -> bool:
    return isinstance(doc.get("jobs"), list)


def is_wall_trace(doc: Mapping[str, Any]) -> bool:
    """A host-time span file (``ChromeTracer(clock="wall")`` export): a
    trace whose declared clock is wall time rather than simulated
    cycles."""
    other = doc.get("otherData")
    return (
        is_trace(doc)
        and isinstance(other, dict)
        and other.get("clock") == "wall"
    )


def trace_corr_ids(doc: Mapping[str, Any]) -> List[str]:
    """Every correlation ID a trace carries, in first-seen order.

    Wall-clock span files stamp ``corr_id`` into event args; simulated
    traces recorded under a bound correlation carry one in
    ``otherData``.  The two-clocks diff joins on the intersection.
    """
    seen: List[str] = []
    other = doc.get("otherData")
    if isinstance(other, dict) and isinstance(other.get("corr_id"), str):
        seen.append(other["corr_id"])
    for event in doc.get("traceEvents", []):
        if not isinstance(event, dict):
            continue
        args = event.get("args")
        if isinstance(args, dict):
            cid = args.get("corr_id")
            if isinstance(cid, str) and cid not in seen:
                seen.append(cid)
    return seen


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
def phase_rows(doc: Mapping[str, Any]) -> List[Tuple[str, Dict[str, int]]]:
    """(phase, summed fields) per ``cat="phase"`` event, in trace order.

    Both phase spans and phase instants count: the ``drain`` tail is an
    instant carrying only cycles, and it must participate for the sums
    to reach the run totals.
    """
    rows: List[Tuple[str, Dict[str, int]]] = []
    for event in doc.get("traceEvents", []):
        if not isinstance(event, dict) or event.get("cat") != "phase":
            continue
        args = event.get("args")
        if not isinstance(args, dict) or "cycles" not in args:
            continue  # e.g. the "prepare" marker, which carries no counters
        rows.append(
            (
                str(event.get("name")),
                {f: int(args.get(f, 0)) for f in PHASE_ROW_FIELDS},
            )
        )
    return rows


def phase_sums(doc: Mapping[str, Any]) -> Dict[str, int]:
    """Per-field totals over every phase row."""
    sums = {f: 0 for f in PHASE_ROW_FIELDS}
    for _, fields in phase_rows(doc):
        for f in PHASE_ROW_FIELDS:
            sums[f] += fields[f]
    return sums


def trace_totals(doc: Mapping[str, Any]) -> Optional[Dict[str, int]]:
    """The whole-run SimStats totals the obs CLI stored, if present."""
    other = doc.get("otherData")
    if isinstance(other, dict) and isinstance(other.get("totals"), dict):
        return {k: int(v) for k, v in other["totals"].items()}
    return None


def trace_summary(doc: Mapping[str, Any]) -> Dict[str, Any]:
    """Structured summary of one trace (the ``report --json`` payload)."""
    rows = phase_rows(doc)
    sums = phase_sums(doc)
    totals = trace_totals(doc)
    summary: Dict[str, Any] = {
        "n_events": len(doc.get("traceEvents", [])),
        "phases": {name: fields for name, fields in rows},
        "phase_sums": sums,
    }
    other = doc.get("otherData")
    if isinstance(other, dict) and isinstance(other.get("spec"), dict):
        summary["spec"] = other["spec"]
    if totals is not None:
        summary["totals"] = totals
        summary["sums_match_totals"] = all(
            sums[f] == totals.get(f, 0) for f in PHASE_ROW_FIELDS if f in totals
        )
    return summary


def trace_report(doc: Mapping[str, Any]) -> str:
    """Per-phase breakdown table of one trace."""
    rows = phase_rows(doc)
    sums = phase_sums(doc)
    headers = ["phase"] + list(PHASE_ROW_FIELDS)
    table_rows: List[Sequence[object]] = [
        [name] + [fields[f] for f in PHASE_ROW_FIELDS] for name, fields in rows
    ]
    table_rows.append(["TOTAL"] + [sums[f] for f in PHASE_ROW_FIELDS])
    lines = [format_table(headers, table_rows)]
    totals = trace_totals(doc)
    if totals is not None:
        checked = [f for f in PHASE_ROW_FIELDS if f in totals]
        ok = all(sums[f] == totals[f] for f in checked)
        lines.append(
            "phase sums match run totals"
            if ok
            else "MISMATCH: phase sums != run totals: "
            + ", ".join(
                f"{f} {sums[f]} != {totals[f]}"
                for f in checked
                if sums[f] != totals[f]
            )
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Wall-clock span files (host time)
# ----------------------------------------------------------------------
def host_span_rows(doc: Mapping[str, Any]) -> List[Tuple[str, Dict[str, Any]]]:
    """Aggregate ``cat="host"`` complete events per span name.

    ``ts``/``dur`` are microseconds on the recorder's wall clock; the
    rows report milliseconds.  Order is first appearance in the file
    (the recorder sorts events by start time).
    """
    rows: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    for event in doc.get("traceEvents", []):
        if not isinstance(event, dict) or event.get("cat") != "host":
            continue
        if event.get("ph") != "X":
            continue
        name = str(event.get("name"))
        if name not in rows:
            rows[name] = {"count": 0, "total_ms": 0.0, "max_ms": 0.0}
            order.append(name)
        dur_ms = float(event.get("dur", 0.0)) / 1000.0
        row = rows[name]
        row["count"] += 1
        row["total_ms"] += dur_ms
        row["max_ms"] = max(row["max_ms"], dur_ms)
    return [(name, rows[name]) for name in order]


def wall_summary(doc: Mapping[str, Any]) -> Dict[str, Any]:
    """Structured summary of one wall-clock span file."""
    rows = host_span_rows(doc)
    other = doc.get("otherData")
    summary: Dict[str, Any] = {
        "clock": "wall",
        "n_events": len(doc.get("traceEvents", [])),
        "spans": {
            name: {
                "count": fields["count"],
                "total_ms": round(fields["total_ms"], 4),
                "mean_ms": round(fields["total_ms"] / fields["count"], 4),
                "max_ms": round(fields["max_ms"], 4),
            }
            for name, fields in rows
        },
        "corr_ids": trace_corr_ids(doc),
    }
    if isinstance(other, dict) and "epoch_s" in other:
        summary["epoch_s"] = other["epoch_s"]
    return summary


def wall_report(doc: Mapping[str, Any]) -> str:
    """Per-span wall-time table of one span file."""
    rows = host_span_rows(doc)
    headers = ["span", "count", "total ms", "mean ms", "max ms"]
    table: List[Sequence[object]] = [
        [
            name,
            fields["count"],
            round(fields["total_ms"], 3),
            round(fields["total_ms"] / fields["count"], 3),
            round(fields["max_ms"], 3),
        ]
        for name, fields in rows
    ]
    lines = ["clock: wall (host time)", format_table(headers, table)]
    corr_ids = trace_corr_ids(doc)
    if corr_ids:
        lines.append(
            f"correlation ids: {', '.join(corr_ids[:8])}"
            + (f" (+{len(corr_ids) - 8} more)" if len(corr_ids) > 8 else "")
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------
def manifest_cache_effectiveness(doc: Mapping[str, Any]) -> Dict[str, Any]:
    """Cache hits/misses/hit-rate of one manifest.

    Prefers the manifest's own aggregates (``cache_hits`` /
    ``cache_misses``, recorded since manifests learned them); older
    manifests fall back to counting job records by status, so a report
    over an old file still shows cache effectiveness.
    """
    jobs = [j for j in doc.get("jobs", []) if isinstance(j, dict)]
    hits = doc.get("cache_hits")
    if not isinstance(hits, int):
        hits = sum(1 for j in jobs if j.get("status") == "cache-hit")
    misses = doc.get("cache_misses")
    if not isinstance(misses, int):
        misses = len(jobs) - hits
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "hit_rate": hits / total if total else 0.0,
    }


def manifest_report(doc: Mapping[str, Any]) -> str:
    """Per-job telemetry table of one run manifest."""
    jobs = doc.get("jobs", [])
    headers = [
        "label", "status", "attempts", "wall s", "rss MB", "timed out",
    ]
    rows: List[Sequence[object]] = []
    for job in jobs:
        if not isinstance(job, dict):
            continue
        rss_kb = job.get("max_rss_kb")
        rows.append(
            [
                str(job.get("label", job.get("fingerprint", "?"))),
                str(job.get("status", "?")),
                int(job.get("attempts", 0)),
                float(job.get("wall_seconds", 0.0)),
                round(rss_kb / 1024.0, 1) if rss_kb else "-",
                "yes" if job.get("timed_out") else "-",
            ]
        )
    lines = [format_table(headers, rows)]
    cache = manifest_cache_effectiveness(doc)
    lines.append(
        f"cache: {cache['hits']} hit{'s' if cache['hits'] != 1 else ''}, "
        f"{cache['misses']} miss{'es' if cache['misses'] != 1 else ''} "
        f"({cache['hit_rate']:.0%} hit rate)"
    )
    summary = doc.get("summary")
    if isinstance(summary, str):
        lines.append(summary)
    return "\n".join(lines)


def manifest_summary(doc: Mapping[str, Any]) -> Dict[str, Any]:
    """Structured summary of one manifest (the ``report --json`` payload)."""
    jobs = [j for j in doc.get("jobs", []) if isinstance(j, dict)]
    by_status: Dict[str, int] = {}
    for job in jobs:
        status = str(job.get("status", "?"))
        by_status[status] = by_status.get(status, 0) + 1
    rss = [int(j["max_rss_kb"]) for j in jobs if j.get("max_rss_kb")]
    return {
        "n_jobs": len(jobs),
        "by_status": by_status,
        "total_wall_seconds": sum(
            float(j.get("wall_seconds", 0.0)) for j in jobs
        ),
        "timeouts": sum(1 for j in jobs if j.get("timed_out")),
        "retries": sum(
            max(0, int(j.get("attempts", 1)) - 1) for j in jobs
        ),
        "peak_rss_kb": max(rss) if rss else None,
        "cache": manifest_cache_effectiveness(doc),
    }


# ----------------------------------------------------------------------
# Diffs
# ----------------------------------------------------------------------
def diff_report(
    a: Mapping[str, Any], b: Mapping[str, Any], name_a: str, name_b: str
) -> str:
    """Compare two traces (per-phase cycles/bytes), two manifests
    (per-label wall time and status), or one wall-clock span file
    against one simulated-time trace (the two-clocks view)."""
    if is_wall_trace(a) != is_wall_trace(b) and is_trace(a) and is_trace(b):
        wall, sim = (a, b) if is_wall_trace(a) else (b, a)
        wall_name, sim_name = (
            (name_a, name_b) if is_wall_trace(a) else (name_b, name_a)
        )
        return two_clocks_report(wall, sim, wall_name, sim_name)
    if is_trace(a) and is_trace(b):
        return _diff_traces(a, b, name_a, name_b)
    if is_manifest(a) and is_manifest(b):
        return _diff_manifests(a, b, name_a, name_b)
    raise ValueError(
        "diff needs two traces or two manifests "
        f"({name_a} is {'trace' if is_trace(a) else 'manifest?'}, "
        f"{name_b} is {'trace' if is_trace(b) else 'manifest?'})"
    )


def two_clocks_report(
    wall: Mapping[str, Any],
    sim: Mapping[str, Any],
    wall_name: str,
    sim_name: str,
) -> str:
    """Host wall time next to simulated cycles for one correlated run.

    The two files measure *different clocks*: the span file records how
    long the host spent (queueing, cache probes, executing the
    simulator), the trace records how long the modelled hardware would
    take (cycles).  They join on the correlation ID the serving path
    mints at ``/submit`` and threads through both recorders.
    """
    wall_ids = trace_corr_ids(wall)
    sim_ids = trace_corr_ids(sim)
    shared = [cid for cid in wall_ids if cid in sim_ids]
    lines = [f"two clocks: {wall_name} (host wall) vs {sim_name} (simulated)"]
    if shared:
        lines.append(f"correlated: shared corr_id {', '.join(shared)}")
    elif wall_ids or sim_ids:
        lines.append(
            "not correlated: no shared corr_id "
            f"(wall: {', '.join(wall_ids) or 'none'}; "
            f"sim: {', '.join(sim_ids) or 'none'})"
        )
    lines.append("")
    lines.append(f"host spans (wall ms) -- {wall_name}:")
    lines.append(wall_report(wall))
    lines.append("")
    lines.append(f"simulated phases (cycles) -- {sim_name}:")
    lines.append(trace_report(sim))
    return "\n".join(lines)


def _ratio(x: int, y: int) -> str:
    if y == 0:
        return "-" if x == 0 else "inf"
    return f"{x / y:.3f}x"


def _diff_traces(
    a: Mapping[str, Any], b: Mapping[str, Any], name_a: str, name_b: str
) -> str:
    rows_a = dict(phase_rows(a))
    rows_b = dict(phase_rows(b))
    order = list(rows_a)
    order.extend(p for p in rows_b if p not in rows_a)
    headers = [
        "phase",
        f"cycles {name_a}",
        f"cycles {name_b}",
        "ratio",
        f"dram B {name_a}",
        f"dram B {name_b}",
    ]
    table: List[Sequence[object]] = []
    for phase in order:
        fa = rows_a.get(phase)
        fb = rows_b.get(phase)
        ca = fa["cycles"] if fa else 0
        cb = fb["cycles"] if fb else 0
        da = (fa["dram_read_bytes"] + fa["dram_write_bytes"]) if fa else 0
        db = (fb["dram_read_bytes"] + fb["dram_write_bytes"]) if fb else 0
        table.append([phase, ca, cb, _ratio(ca, cb), da, db])
    sums_a = phase_sums(a)
    sums_b = phase_sums(b)
    table.append(
        [
            "TOTAL",
            sums_a["cycles"],
            sums_b["cycles"],
            _ratio(sums_a["cycles"], sums_b["cycles"]),
            sums_a["dram_read_bytes"] + sums_a["dram_write_bytes"],
            sums_b["dram_read_bytes"] + sums_b["dram_write_bytes"],
        ]
    )
    return format_table(headers, table)


def _diff_manifests(
    a: Mapping[str, Any], b: Mapping[str, Any], name_a: str, name_b: str
) -> str:
    jobs_a = {
        str(j.get("label")): j for j in a.get("jobs", []) if isinstance(j, dict)
    }
    jobs_b = {
        str(j.get("label")): j for j in b.get("jobs", []) if isinstance(j, dict)
    }
    order = list(jobs_a)
    order.extend(label for label in jobs_b if label not in jobs_a)
    headers = [
        "label",
        f"status {name_a}",
        f"status {name_b}",
        f"wall s {name_a}",
        f"wall s {name_b}",
    ]
    table: List[Sequence[object]] = []
    for label in order:
        ja = jobs_a.get(label)
        jb = jobs_b.get(label)
        table.append(
            [
                label,
                str(ja.get("status")) if ja else "-",
                str(jb.get("status")) if jb else "-",
                float(ja.get("wall_seconds", 0.0)) if ja else "-",
                float(jb.get("wall_seconds", 0.0)) if jb else "-",
            ]
        )
    return format_table(headers, table)
