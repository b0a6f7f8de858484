"""Plain-text table/series rendering for experiment reports."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.sim.stats import PHASE_ROW_FIELDS


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.2f}"
        return f"{value:.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render an aligned monospace table."""
    str_rows: List[List[str]] = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_series(title: str, series: Dict[str, Dict[str, float]],
                  value_format: str = "{:.3f}") -> str:
    """Render one figure's data: ``series[line_name][x_label] = value``.

    Produces the table a bar-chart figure would be drawn from (rows =
    x labels, columns = lines).
    """
    lines = sorted(series)
    xs: List[str] = []
    for line in lines:
        for x in series[line]:
            if x not in xs:
                xs.append(x)
    headers = ["x"] + lines
    rows = []
    for x in xs:
        rows.append(
            [x]
            + [
                value_format.format(series[line][x]) if x in series[line] else "-"
                for line in lines
            ]
        )
    return f"{title}\n{format_table(headers, rows)}"


def render_phase_breakdown(
    title: str,
    rows_by_label: Dict[str, List[Tuple[str, Dict[str, int]]]],
) -> str:
    """Render per-phase SimStats snapshots as one table.

    ``rows_by_label[run_label]`` is the output of
    :func:`repro.bench.runner.phase_snapshot_rows` for that run; each
    run contributes one row per phase plus a TOTAL row, and by the
    conservation invariant the TOTAL cycles equal the run's whole-run
    cycle count.
    """
    headers = ["run", "phase"] + list(PHASE_ROW_FIELDS)
    table: List[List[object]] = []
    for label, rows in rows_by_label.items():
        totals = {f: 0 for f in PHASE_ROW_FIELDS}
        for phase, fields in rows:
            table.append(
                [label, phase]
                + [fields.get(f, 0) for f in PHASE_ROW_FIELDS]
            )
            for f in PHASE_ROW_FIELDS:
                totals[f] += fields.get(f, 0)
        table.append(
            [label, "TOTAL"] + [totals[f] for f in PHASE_ROW_FIELDS]
        )
    return f"{title}\n{format_table(headers, table)}"


def replace_block(document: str, name: str, text: str) -> str:
    """Return ``document`` with its ``name`` block holding ``text``.

    A block is the span between ``<!-- bench:NAME -->`` and
    ``<!-- /bench:NAME -->``; its content becomes a fenced copy of
    ``text`` with trailing spaces stripped.  A marker that is missing,
    repeated or out of order raises ``ValueError``, so a report never
    loses or duplicates a table silently.
    """
    start, end = f"<!-- bench:{name} -->", f"<!-- /bench:{name} -->"
    if document.count(start) != 1 or document.count(end) != 1:
        raise ValueError(f"need exactly one {start} ... {end} pair")
    head, _, rest = document.partition(start)
    _, found, tail = rest.partition(end)
    if not found:
        raise ValueError(f"{end} comes before {start}")
    body = "\n".join(line.rstrip() for line in text.splitlines())
    return f"{head}{start}\n```\n{body}\n```\n{end}{tail}"
