"""``python -m repro.obs`` -- trace, report, diff, validate.

Subcommands:

``trace DATASET [--kind hymm] [-o out.json]``
    Run one simulation with a :class:`repro.obs.tracer.ChromeTracer`
    attached and write the Chrome trace-event JSON.  The job spec and
    the run's SimStats totals land in ``otherData`` (no wall times), so
    the export is byte-deterministic for a given spec.
``report FILE [--json]``
    Per-phase breakdown of a simulated-clock trace, per-span wall-time
    breakdown of a wall-clock span file (``repro.serve serve
    --span-file``), or per-job telemetry of a run manifest
    (auto-detected).
``diff A B``
    Compare two traces (per-phase cycles and DRAM bytes) or two
    manifests (per-label wall time and status).  One wall-clock span
    file against one simulated trace renders the *two clocks* view --
    host milliseconds next to simulated cycles, joined by correlation
    ID (see ``docs/observability.md``).
``slo [--host H] [--port P] [--json]``
    SLO verdict of a running sweep server (scraped from ``/healthz``);
    exit 1 when degraded.
``validate FILE [FILE ...] [--min-samples N]``
    Check each file (or ``-`` for stdin), told apart by content: a JSON
    object against the in-repo trace schema (either clock), anything
    else as a Prometheus text exposition (``--min-samples`` sets the
    least number of samples it must carry).  Exit 1 on any problem.

Runtime/bench imports happen inside the handlers -- the CLI must be
importable (e.g. for ``--help``) without dragging the workload layer in.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.report import (
    diff_report,
    is_manifest,
    is_trace,
    is_wall_trace,
    load_json,
    manifest_report,
    manifest_summary,
    trace_report,
    trace_summary,
    wall_report,
    wall_summary,
)
from repro.obs.schema import validate_trace
from repro.obs.tracer import ChromeTracer
from repro.telemetry.prometheus import ExpositionError, validate_exposition

def build_trace(spec: Any) -> Tuple[ChromeTracer, Any, Dict[str, Any]]:
    """Run ``spec`` traced; returns (tracer, result, otherData metadata).

    The metadata carries only deterministic values (spec + simulated
    totals, never wall times), so two runs of the same spec export
    byte-identical JSON.
    """
    from repro.runtime.execute import execute_spec

    tracer = ChromeTracer()
    result = execute_spec(spec, tracer=tracer)
    # Whole-run totals: the row the report cross-checks against the
    # per-phase sums.
    metadata = {
        "spec": spec.to_dict(),
        "accelerator": result.accelerator,
        "totals": result.stats.phase_row(),
    }
    # Under a bound correlation (serve workers) the trace carries the
    # request's corr_id -- the join key of the two-clocks diff.  Plain
    # CLI runs have none bound, so the export stays byte-deterministic.
    from repro.telemetry import current_correlation_id

    corr_id = current_correlation_id()
    if corr_id is not None:
        metadata["corr_id"] = corr_id
    return tracer, result, metadata


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.bench.runner import job_spec

    spec = job_spec(
        args.dataset,
        args.kind,
        scale=args.scale,
        n_layers=args.layers,
        seed=args.seed,
        sort_mode=args.sort_mode,
    )
    if args.corr_id:
        # Adopt the correlation ID a serve response handed the caller,
        # so this simulated trace joins that request's wall-clock spans
        # in ``repro.obs diff`` (the corr_id lands in metadata only --
        # the events and the fingerprint are unchanged).
        from repro.telemetry import bind_correlation

        bind_correlation(args.corr_id)
    tracer, result, metadata = build_trace(spec)
    out = args.output or f"{args.dataset}-{args.kind}.trace.json"
    tracer.write(out, metadata)
    problems = validate_trace(tracer.trace_dict(metadata))
    if problems:
        for problem in problems:
            print(f"schema: {problem}", file=sys.stderr)
        return 1
    print(
        f"{out}: {tracer.n_events} events, {result.stats.cycles} cycles "
        f"({spec.describe()})"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    doc = load_json(args.file)
    if is_wall_trace(doc):
        if args.json:
            print(json.dumps(wall_summary(doc), indent=2, sort_keys=True))
        else:
            print(wall_report(doc))
        return 0
    if is_trace(doc):
        if args.json:
            print(json.dumps(trace_summary(doc), indent=2, sort_keys=True))
        else:
            print(trace_report(doc))
        return 0
    if is_manifest(doc):
        if args.json:
            print(json.dumps(manifest_summary(doc), indent=2, sort_keys=True))
        else:
            print(manifest_report(doc))
        return 0
    print(f"{args.file}: neither a trace nor a run manifest", file=sys.stderr)
    return 1


def _cmd_diff(args: argparse.Namespace) -> int:
    a = load_json(args.a)
    b = load_json(args.b)
    try:
        print(diff_report(a, b, args.a, args.b))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """Scrape a running sweep server's SLO evaluation from /healthz."""
    from repro.bench.report import format_table
    from repro.serve.client import ServeClient

    with ServeClient(args.host, args.port) as client:
        payload = client.healthz()
    slo = payload.get("slo")
    if not isinstance(slo, dict):
        print(
            "server reported no SLO evaluation (telemetry disabled?)",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(slo, indent=2, sort_keys=True))
        return 0 if slo.get("verdict") == "ok" else 1
    verdict = slo.get("verdict", "?")
    uptime = payload.get("uptime_s")
    line = f"verdict: {verdict}"
    if isinstance(uptime, (int, float)):
        line += f"  (uptime {uptime:.0f}s)"
    print(line)
    headers = ["objective", "kind", "observed", "target", "burn", "events", "ok"]
    rows = []
    for obj in slo.get("objectives", []):
        if not isinstance(obj, dict):
            continue
        observed = obj.get("observed")
        rows.append(
            [
                str(obj.get("name", "?")),
                str(obj.get("kind", "?")),
                "-" if observed is None else round(float(observed), 4),
                obj.get("target"),
                round(float(obj.get("burn_rate", 0.0)), 3),
                int(obj.get("events", 0)),
                "yes" if obj.get("ok") else "NO",
            ]
        )
    print(format_table(headers, rows))
    return 0 if verdict == "ok" else 1


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _check_input(text: str, min_samples: int) -> Tuple[List[str], str]:
    """(problems, ok summary) of one validate input: a JSON object is
    checked as a trace, anything else as a Prometheus exposition."""
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        return validate_trace(doc), "ok"
    try:
        stats = validate_exposition(text)
    except ExpositionError as exc:
        return [f"INVALID: {exc}"], ""
    if stats["samples"] < min_samples:
        return [
            f"INVALID: only {stats['samples']} samples "
            f"(--min-samples {min_samples})"
        ], ""
    return [], f"ok: families={stats['families']} samples={stats['samples']}"


def _cmd_validate(args: argparse.Namespace) -> int:
    status = 0
    for path in args.files:
        problems, ok = _check_input(_read_input(path), args.min_samples)
        if problems:
            status = 1
            for problem in problems:
                print(f"{path}: {problem}", file=sys.stderr)
        else:
            print(f"{path}: {ok}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability CLI: simulated- and wall-clock traces, "
        "Prometheus expositions and run telemetry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser("trace", help="run one traced simulation")
    trace.add_argument("dataset", help="registry dataset name (e.g. cora)")
    trace.add_argument("--kind", default="hymm", help="accelerator kind")
    trace.add_argument(
        "--scale", type=float, default=None,
        help="dataset scale (default: the bench scale)",
    )
    trace.add_argument("--layers", type=int, default=1)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--sort-mode", default=None)
    trace.add_argument(
        "--corr-id", default=None,
        help="stamp a correlation ID (e.g. from a serve response) into "
        "the trace metadata for the two-clocks diff",
    )
    trace.add_argument("-o", "--output", default=None, help="trace JSON path")
    trace.set_defaults(func=_cmd_trace)

    report = sub.add_parser("report", help="summarise a trace or manifest")
    report.add_argument("file")
    report.add_argument("--json", action="store_true", help="JSON summary")
    report.set_defaults(func=_cmd_report)

    diff = sub.add_parser("diff", help="compare two traces or manifests")
    diff.add_argument("a")
    diff.add_argument("b")
    diff.set_defaults(func=_cmd_diff)

    slo = sub.add_parser(
        "slo", help="SLO verdict of a running sweep server (via /healthz)"
    )
    slo.add_argument("--host", default="127.0.0.1")
    slo.add_argument("--port", type=int, default=7341)
    slo.add_argument("--json", action="store_true", help="raw SLO payload")
    slo.set_defaults(func=_cmd_slo)

    validate = sub.add_parser(
        "validate", help="check trace files and Prometheus expositions"
    )
    validate.add_argument(
        "files", nargs="+", help="trace JSON or exposition files, '-' for stdin"
    )
    validate.add_argument(
        "--min-samples",
        type=int,
        default=0,
        help="fail an exposition unless it carries at least this many samples",
    )
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    result: int = args.func(args)
    return result


if __name__ == "__main__":
    raise SystemExit(main())
