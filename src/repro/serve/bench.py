"""Hit-path benchmark of the sweep service.

The serving story's steady state is "a million cached lookups a day":
almost every submission finds its answer already on disk.  This bench
measures that path end to end -- client connect excluded, protocol
round trip included -- by priming one job into a result cache, then
timing repeated warm submissions of the identical spec against a live
server.

Results append to the repo-root ``BENCH_serve.json`` trajectory (same
idiom as ``BENCH_sim.json``): one entry per invocation keyed by git SHA
and date, with p50/p90/p99 client-observed latency, served requests per
second, the server's own cache-probe percentiles from ``/metrics``, and
a comparison against the most recent earlier entry with the same
workload signature.

By default the bench self-hosts a :class:`~repro.serve.server.
ServerThread` over a temporary cache directory (results and traces),
deleted afterwards, so every run primes cold and never touches the
user's cache; ``--host``/``--port`` target an already-running server
instead (the spec still needs to be primed there first).
"""

from __future__ import annotations

import datetime
import json
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.serve.client import ServeClient
from repro.serve.server import ServeSettings, ServerThread, percentiles

#: Trajectory schema of ``BENCH_serve.json``.
TRAJECTORY_SCHEMA = 1


def git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_trajectory(path: Path) -> Dict[str, Any]:
    if not path.exists():
        return {"schema": TRAJECTORY_SCHEMA, "runs": []}
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or "runs" not in doc:
        raise ValueError(f"{path}: not a BENCH_serve trajectory")
    return doc


def previous_matching(
    runs: List[Dict[str, Any]], workload: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    """Most recent earlier run with the same workload signature."""
    signature = ("dataset", "kind", "scale", "n_layers", "seed", "requests")
    for run in reversed(runs):
        prev = run.get("workload", {})
        if all(prev.get(key) == workload.get(key) for key in signature):
            return run
    return None


def time_hitpath(
    client: ServeClient, spec_dict: Dict[str, Any], requests: int
) -> List[float]:
    """Client-observed milliseconds per warm submit, one per request."""
    samples: List[float] = []
    for _ in range(requests):
        t0 = time.perf_counter()
        response = client.submit(spec_dict, wait=True)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        if response.get("cache") != "hit":
            raise RuntimeError(
                "hit-path bench got a cache miss "
                f"(source={response.get('source')!r}); prime the spec first"
            )
        samples.append(elapsed_ms)
    return samples


def run_bench(
    dataset: str = "cora",
    kind: str = "hymm",
    scale: Optional[float] = None,
    n_layers: int = 1,
    seed: int = 0,
    requests: int = 200,
    host: Optional[str] = None,
    port: Optional[int] = None,
    cache_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """One full bench run; returns the trajectory entry (not yet
    appended).  ``host``/``port`` switch from self-hosted to an external
    server."""
    from repro.bench.runner import job_spec
    from repro.runtime.cache import ResultCache

    spec = job_spec(dataset, kind, scale=scale, n_layers=n_layers, seed=seed)
    spec_dict = spec.to_dict()

    def measure(client: ServeClient) -> Dict[str, Any]:
        prime = client.submit(spec_dict, wait=True)
        if prime.get("status") != "done":
            raise RuntimeError(
                f"prime submit did not complete: {prime.get('error')}"
            )
        t0 = time.perf_counter()
        samples = time_hitpath(client, spec_dict, requests)
        elapsed = time.perf_counter() - t0
        server_metrics = client.metrics()
        return {
            "prime_source": prime.get("source"),
            "client_ms": {
                key: round(value, 4)
                for key, value in percentiles(samples).items()
            },
            "requests_per_second": round(requests / elapsed, 1),
            "server_hitpath_ms": server_metrics.get("hitpath_ms", {}),
            "cache": server_metrics.get("cache", {}),
        }

    if host is not None and port is not None:
        with ServeClient(host, port) as client:
            measured = measure(client)
        served_by = f"{host}:{port}"
    else:
        with tempfile.TemporaryDirectory() as tmp:
            with ServerThread(cache=ResultCache(cache_dir or tmp)) as srv:
                with ServeClient(srv.host, srv.port) as client:
                    measured = measure(client)
        served_by = "self-hosted"

    return {
        "sha": git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%d"
        ),
        "served_by": served_by,
        "workload": {
            "dataset": dataset,
            "kind": kind,
            "scale": spec.scale,
            "n_layers": n_layers,
            "seed": seed,
            "requests": requests,
        },
        "results": measured,
    }


def attach_vs_previous(run: Dict[str, Any], prev: Dict[str, Any]) -> None:
    """Cross-PR comparison on p50 client latency (old/new: >1 = faster
    now)."""
    old_p50 = prev.get("results", {}).get("client_ms", {}).get("p50")
    new_p50 = run["results"]["client_ms"].get("p50")
    comparison: Dict[str, Any] = {
        "sha": prev.get("sha", "unknown"),
        "date": prev.get("date", ""),
    }
    if old_p50 and new_p50:
        comparison["p50_speedup"] = round(old_p50 / new_p50, 3)
    run["vs_previous"] = comparison


def bench_hitpath_main(
    dataset: str,
    kind: str,
    scale: Optional[float],
    n_layers: int,
    seed: int,
    requests: int,
    host: Optional[str],
    port: Optional[int],
    output: Path,
    dry_run: bool = False,
) -> Dict[str, Any]:
    """CLI entry: run, report, append to the trajectory (unless
    ``dry_run``)."""
    run = run_bench(
        dataset=dataset, kind=kind, scale=scale, n_layers=n_layers,
        seed=seed, requests=requests, host=host, port=port,
    )
    trajectory = load_trajectory(output)
    prev = previous_matching(trajectory["runs"], run["workload"])
    if prev is not None:
        attach_vs_previous(run, prev)
    client_ms = run["results"]["client_ms"]
    print(
        f"hit path ({run['workload']['dataset']}/{run['workload']['kind']}, "
        f"{requests} requests, {run['served_by']}): "
        f"p50={client_ms.get('p50', 0):.3f}ms "
        f"p90={client_ms.get('p90', 0):.3f}ms "
        f"p99={client_ms.get('p99', 0):.3f}ms "
        f"({run['results']['requests_per_second']:.0f} req/s)"
    )
    speedup = run.get("vs_previous", {}).get("p50_speedup")
    if speedup is not None:
        print(
            f"vs previous entry {run['vs_previous']['sha']}: "
            f"p50 {speedup:.2f}x"
        )
    if not dry_run:
        trajectory["runs"].append(run)
        output.write_text(
            json.dumps(trajectory, indent=1) + "\n", encoding="utf-8"
        )
        print(
            f"appended run {run['sha']} to {output} "
            f"({len(trajectory['runs'])} entries)"
        )
    return run
