"""``python -m repro.serve`` -- serve, submit, status, metrics, smoke.

Subcommands:

``serve [--host H] [--port P] [--cache-dir DIR] [--no-cache]
[--workers N] [--max-batch N] [--retries N] [--timeout S]
[--ready-file PATH] [--log PATH] [--span-file PATH]``
    Run the sweep server in the foreground until SIGINT, SIGTERM or a
    ``/shutdown`` request.  ``--no-cache`` serves over a temporary
    store, removed at exit.  ``--ready-file`` writes ``host port`` once
    the socket is accepting (the CI smoke job's handshake).  ``--log``
    turns on NDJSON structured logging and ``--span-file`` records
    wall-clock spans into a Chrome-trace file at shutdown (see
    ``docs/observability.md``).
``submit DATASET [--kind hymm] [--scale S] [--layers N] [--seed N]
[--no-wait] [--include-result] [--json]``
    Build the bench :class:`~repro.runtime.job.JobSpec` and submit it;
    prints the terminal status (or the queued ack with ``--no-wait``).
``status JOB_ID [--follow] [--json]``
    One status snapshot, or a live event stream until terminal.
``healthz`` / ``metrics [--prom]``
    Scrape the respective endpoint as JSON; ``metrics --prom`` prints
    the Prometheus text exposition instead (CI pipes it into the
    ``python -m repro.obs validate -`` checker).
``shutdown``
    Ask a running server to exit.
``smoke``
    Self-hosted replay smoke: run a server over a throwaway result
    cache, execute a tiny job, clear the cache's result records (its
    phase traces stay), submit it again, and assert via ``/metrics``
    that the repeat re-executed (a server keeps no copy of a finished
    result outside the store), replayed exactly the
    phases the first run recorded and still streamed per-phase
    progress.

Runtime/bench imports happen inside the handlers -- the CLI must be
importable (e.g. for ``--help``) without dragging the workload layer
in, and the client subcommands and ``serve`` itself start without numpy
or the simulator: a server loads them with its first batch of misses
(``tests/serve/test_light_start.py`` checks both).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

DEFAULT_PORT = 7341


def _print_payload(payload: Dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    status = payload.get("status")
    if status is None:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    line = f"{payload.get('job_id', '?')[:12]}  {payload.get('label', '')}  {status}"
    source = payload.get("source")
    if source:
        line += f"  [{source}]"
    print(line)
    for row in payload.get("phases", []):
        print(
            f"  {row.get('phase', '?'):24s} cycles={row.get('cycles', 0)} "
            f"end={row.get('end_cycle', 0):.0f}"
        )
    summary = payload.get("result_summary")
    if summary:
        print(
            f"  result: {summary.get('accelerator')} on "
            f"{summary.get('dataset')}: {summary.get('cycles')} cycles"
        )
    if payload.get("error"):
        print(f"  error: {payload['error']}")


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os
    import signal

    from repro.obs.tracer import ChromeTracer
    from repro.runtime.cache import ResultCache
    from repro.serve.server import ServeSettings, SweepServer
    from repro.telemetry import configure_logging, install_recorder

    # Telemetry wiring: --log enables NDJSON structured logging (a
    # path, or '-' for stderr; the REPRO_TELEMETRY_LOG env var is the
    # equivalent switch for pool workers), --span-file records the
    # server's wall-clock spans and writes the Chrome-trace file at
    # shutdown.
    if args.log:
        configure_logging(args.log)
        os.environ.setdefault("REPRO_TELEMETRY_LOG", args.log)
    recorder = None
    if args.span_file:
        recorder = ChromeTracer(pid=os.getpid(), clock="wall")
        install_recorder(recorder)

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    settings = ServeSettings(
        workers=args.workers,
        max_batch=args.max_batch,
        retries=args.retries,
        timeout=args.timeout,
    )
    server = SweepServer(cache=cache, settings=settings)

    async def main() -> None:
        # SIGTERM stops the server as ``/shutdown`` does, so a
        # ``--no-cache`` server still removes its temporary store.
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGTERM, server.request_stop
        )
        host, port = await server.start(args.host, args.port)
        print(f"serving on {host}:{port}  cache: {server.cache.cache_dir}", flush=True)
        if args.ready_file:
            await asyncio.to_thread(
                Path(args.ready_file).write_text, f"{host} {port}\n",
                encoding="utf-8",
            )
        await server.serve_until_stopped()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
    finally:
        if recorder is not None:
            recorder.write(args.span_file, {"tool": "repro.serve"})
            print(f"wall-clock spans written to {args.span_file}", flush=True)
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.bench.runner import job_spec
    from repro.serve.client import ServeClient

    spec = job_spec(
        args.dataset, args.kind, scale=args.scale,
        n_layers=args.layers, seed=args.seed,
    )
    with ServeClient(args.host, args.port) as client:
        response = client.submit(
            spec.to_dict(),
            wait=not args.no_wait,
            include_result=args.include_result,
        )
    _print_payload(response, args.json)
    return 0 if response.get("status") != "failed" else 1


def cmd_status(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient

    with ServeClient(args.host, args.port) as client:
        if not args.follow:
            response = client.status(args.job_id, args.include_result)
            _print_payload(response, args.json)
            return 0 if response.get("status") != "failed" else 1
        final: Dict[str, Any] = {}
        for event in client.follow(args.job_id, args.include_result):
            if event.get("final"):
                final = event
                break
            if args.json:
                print(json.dumps(event, sort_keys=True))
            elif event.get("event") == "phase":
                print(
                    f"  phase {event.get('phase', '?'):24s} "
                    f"cycles={event.get('cycles', 0)}"
                )
            elif event.get("event") == "status":
                print(f"  -> {event.get('status')}")
    _print_payload(final, args.json)
    return 0 if final.get("status") != "failed" else 1


def _scrape(args: argparse.Namespace, op: str) -> int:
    from repro.serve.client import ServeClient

    with ServeClient(args.host, args.port) as client:
        payload = client.request({"op": op})
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    if not args.prom:
        return _scrape(args, "metrics")
    from repro.serve.client import ServeClient

    with ServeClient(args.host, args.port) as client:
        sys.stdout.write(client.metrics_prometheus())
    return 0


def cmd_smoke(args: argparse.Namespace) -> int:
    """Self-hosted replay smoke (see the module doc)."""
    import tempfile

    from repro.bench.runner import job_spec
    from repro.runtime.cache import ResultCache
    from repro.serve.client import ServeClient
    from repro.serve.server import ServerThread

    probe = job_spec(args.dataset, args.kind, scale=args.scale, n_layers=1, seed=0)
    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        cache = ResultCache(tmp)
        with ServerThread(cache=cache) as srv:
            with ServeClient(srv.host, srv.port) as client:
                response = client.submit(probe.to_dict(), wait=True)
                if response.get("status") != "done":
                    print(
                        f"SMOKE FAIL: probe submit did not complete: "
                        f"{response.get('error')}",
                        file=sys.stderr,
                    )
                    return 1
                metrics = client.request({"op": "metrics"})
                recorded = metrics.get("replay", {}).get("misses", 0)
                # Delete the result records and keep the traces: the
                # store held the only copy of the result, so the repeat
                # re-executes, and replay is how it runs.
                cache.clear()
                repeat = client.submit(probe.to_dict(), wait=True)
                metrics = client.request({"op": "metrics"})
                exposition = client.metrics_prometheus()
    if repeat.get("status") != "done" or repeat.get("source") != "executed":
        print(
            f"SMOKE FAIL: repeated submit was not re-executed "
            f"(status={repeat.get('status')!r} source={repeat.get('source')!r})",
            file=sys.stderr,
        )
        return 1
    if not repeat.get("phases"):
        print(
            "SMOKE FAIL: repeated submit streamed no per-phase progress",
            file=sys.stderr,
        )
        return 1
    replay = metrics.get("replay", {})
    hits = replay.get("hits", 0)
    # The probe records every phase live; its repeat must replay exactly
    # those phases.
    if recorded < 1 or hits != recorded:
        print(
            f"SMOKE FAIL: repeated submit replayed {hits} phase(s), "
            f"the probe recorded {recorded} (replay metrics: {replay})",
            file=sys.stderr,
        )
        return 1
    # The Prometheus scrape must pass the in-repo validator with real
    # traffic in the counters (the CI serve-smoke's local twin).
    from repro.telemetry import ExpositionError, validate_exposition

    try:
        exposition_stats = validate_exposition(exposition)
    except ExpositionError as exc:
        print(f"SMOKE FAIL: prometheus exposition: {exc}", file=sys.stderr)
        return 1
    if exposition_stats["samples"] < 10:
        print(
            f"SMOKE FAIL: prometheus exposition too thin "
            f"({exposition_stats['samples']} samples)",
            file=sys.stderr,
        )
        return 1
    print(
        f"serve smoke ok: repeat of {probe.describe()} re-executed with "
        f"{hits} phase(s) replayed ({recorded} recorded by the probe), "
        f"{len(repeat['phases'])} progress rows streamed; prometheus "
        f"scrape valid ({exposition_stats['families']} families, "
        f"{exposition_stats['samples']} samples)"
    )
    return 0


def _add_endpoint_args(
    parser: argparse.ArgumentParser, default_port: Optional[int] = DEFAULT_PORT
) -> None:
    parser.add_argument("--host", default="127.0.0.1" if default_port else None)
    parser.add_argument("--port", type=int, default=default_port)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the sweep server in the foreground")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default: repo cache)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve over a temporary store, removed at exit "
                   "(reads nothing another run wrote)")
    p.add_argument("--workers", type=int, default=1,
                   help="SweepExecutor width per batch (1 = serial with "
                   "live phase progress)")
    p.add_argument("--max-batch", type=int, default=8)
    p.add_argument("--retries", type=int, default=1)
    p.add_argument("--timeout", type=float, default=None)
    p.add_argument("--ready-file", default=None,
                   help="write 'host port' here once accepting")
    p.add_argument("--log", default=None, metavar="PATH",
                   help="write NDJSON structured logs here ('-' = stderr)")
    p.add_argument("--span-file", default=None, metavar="PATH",
                   help="record wall-clock spans, write the Chrome-trace "
                   "JSON here at shutdown")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("submit", help="submit one bench job spec")
    _add_endpoint_args(p)
    p.add_argument("dataset")
    p.add_argument("--kind", default="hymm")
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-wait", action="store_true",
                   help="return the queued ack instead of waiting")
    p.add_argument("--include-result", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("status", help="job status snapshot or event stream")
    _add_endpoint_args(p)
    p.add_argument("job_id")
    p.add_argument("--follow", action="store_true")
    p.add_argument("--include-result", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser("healthz", help="liveness check")
    _add_endpoint_args(p)
    p.set_defaults(fn=lambda args: _scrape(args, "healthz"))

    p = sub.add_parser("metrics", help="scrape server metrics")
    _add_endpoint_args(p)
    p.add_argument("--prom", action="store_true",
                   help="print the Prometheus text exposition instead of "
                   "JSON (pipe into 'python -m repro.obs validate -')")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("shutdown", help="stop a running server")
    _add_endpoint_args(p)
    p.set_defaults(fn=lambda args: _scrape(args, "shutdown"))

    p = sub.add_parser(
        "smoke",
        help="self-hosted replay smoke: assert a repeated submit replays",
    )
    p.add_argument("--dataset", default="cora")
    p.add_argument("--kind", default="op")
    p.add_argument("--scale", type=float, default=0.3)
    p.set_defaults(fn=cmd_smoke)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConnectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
