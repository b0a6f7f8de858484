"""The repository benchmark (described by ``BENCHMARK.json``).

Run one workload::

    python3 perf/run.py --workload serve-hit --seed 0 --seconds 10 --trace 0

or every workload in turn (``--workload all``, the default).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics.  The
exit code is non-zero whenever a check failed.

Other commands::

    python3 perf/run.py set OUT.json
        run every workload ten times (seeds 0 to 9), interleaved, and
        save the metrics of each run, the ungated latency too; prints
        each metric's spread
    python3 perf/run.py compare A.json B.json
        verdict per (workload, metric) between two sets; the exit code
        is non-zero when an end-to-end metric regressed
    python3 perf/run.py --regen-expected
        rewrite perf/expected.json (seed-0 stats digests)
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import quantiles

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = PERF / "expected.json"
#: Runs per workload in a set: the seeds 0 .. SET_RUNS - 1.
SET_RUNS = 10
#: Printed by every untraced run beside the end-to-end metrics, and
#: kept and compared by ``set`` and ``compare``, but not gated: across
#: ten seeds its spread on a 2-vCPU host was wider than the 10% a timing
#: may worsen by, so it is a per-layer metric of ``BENCHMARK.json``.
LATENCY = {"name": "latency_p50_ms", "unit": "ms", "better": "lower",
           "bound": 0.10}
#: Judged on its medians alone: set-up time (a few 0.3-s spawns a run)
#: spreads too widely across runs to bound its spread, only its median.
MEDIAN_ONLY = "setup_s"


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def e2e_metrics(workload, win, bench) -> Dict[str, Optional[float]]:
    from workloads import MB, median

    total, _, n_jobs, _ = workload.footprint()
    return {
        "setup_s": median(bench.setup),
        "peak_rss_mb": median(win.rss_mb),
        "disk_mb_per_job": total / n_jobs / MB if n_jobs else None,
    }


def layer_metrics(workload, plain, traced) -> Dict[str, Optional[float]]:
    """Per-layer numbers of the traced window, and from ``plain``, the
    untraced window of the same run, the workload's latency and the
    tracing overhead."""
    from workloads import median

    totals: Dict[str, List[float]] = {}
    requests: Optional[float] = 0
    missing = set()
    for dump in traced.layers:
        missing.update(dump.get("missing", []))
        for layer, row in dump["layers"].items():
            acc = totals.setdefault(layer, [0.0, 0.0, 0, 0])
            for i, value in enumerate(row):
                acc[i] += value
        requests += dump["requests"]
    jobs = traced.jobs

    def layer(name: str, field: int) -> Optional[float]:
        return None if name in missing else totals.get(name, [0, 0, 0, 0])[field]

    def per_job(value: Optional[float]) -> Optional[float]:
        return None if value is None or not jobs else value / jobs

    engine_s = layer("sim.engine", 0)
    if "sim.requests" in missing:
        requests = None
    lookups = layer("sim.replay.lookup", 2)
    replayed = layer("sim.replay.lookup", 3)
    total, sizes, n_jobs, results = workload.footprint()
    misses = sum(sum(r.stats.buffer_misses.values()) for r in results if r)
    hits = sum(sum(r.stats.buffer_hits.values()) + r.stats.lsq_forwards
               for r in results if r)
    hit_p50 = median(traced.hits)
    tail = quantiles.tail(traced.hits)
    primary, base = workload.primary(traced), workload.primary(plain)
    out = {
        "latency_p50_ms": base,
        "import.s": median(traced.import_s),
        "graphs.load_dataset.s_per_job": per_job(layer("graphs.load_dataset", 0)),
        "graphs.load_dataset.calls_per_job": per_job(layer("graphs.load_dataset", 2)),
        "gcn.model_build.s_per_job": per_job(layer("gcn.model_build", 0)),
        "accel.prepare.s_per_job": per_job(layer("accel.prepare", 0)),
        "accel.prepare.calls_per_job": per_job(layer("accel.prepare", 2)),
        "hymm.kernels.self_s_per_job": per_job(layer("accel.run_inference", 1)),
        "sim.engine.s_per_job": per_job(engine_s),
        "sim.engine.calls_per_job": per_job(layer("sim.engine", 2)),
        "sim.requests_per_job": per_job(requests),
        "sim.requests_per_s": (None if requests is None or engine_s is None
                               else requests / engine_s if engine_s else 0.0),
        "sim.miss_rate": misses / (hits + misses) if hits + misses else None,
        "sim.replay.lookup.s_per_job": per_job(layer("sim.replay.lookup", 0)),
        "sim.replay.hit_ratio": (None if lookups is None
                                 else replayed / lookups if lookups else 0.0),
        "sim.replay.record.s_per_job": per_job(layer("sim.replay.record", 0)),
        "sim.replay.restore.s_per_job": per_job(layer("sim.replay.restore", 0)),
        "runtime.cache.load.s_per_job": per_job(layer("runtime.cache.load", 0)),
        "runtime.cache.store.s_per_job": per_job(layer("runtime.cache.store", 0)),
        "runtime.cache.record_bytes": sum(sizes) / len(sizes) if sizes else None,
        "runtime.trace.bytes_per_job": ((total - sum(sizes)) / n_jobs
                                        if n_jobs and sizes else None),
        "runtime.serialize.encode.s_per_job":
            per_job(layer("runtime.serialize.encode", 0)),
        "runtime.serialize.encode.calls_per_job":
            per_job(layer("runtime.serialize.encode", 2)),
        "runtime.serialize.decode.s_per_job":
            per_job(layer("runtime.serialize.decode", 0)),
        "runtime.serialize.decode.calls_per_job":
            per_job(layer("runtime.serialize.decode", 2)),
        "runtime.executor.self_s_per_job": per_job(layer("runtime.executor", 1)),
        "serve.cache_probe.p50_ms": traced.probe_p50_ms,
        "serve.wire.p50_ms": (hit_p50 * 1e3 - traced.probe_p50_ms
                              if hit_p50 is not None else 0.0),
        "serve.batch.s_per_job": per_job(traced.batch_s),
        "serve.queue_wait.p50_s": median(traced.queue_waits) or 0.0,
        "serve.hit.p50_ms": hit_p50 * 1e3 if hit_p50 is not None else 0.0,
        "serve.hit.tail_ms": tail[1] * 1e3 if tail else 0.0,
        "serve.hit.tail_pct": tail[0] if tail else 0.0,
        "serve.hit.samples": len(traced.hits),
        "serve.miss.p50_s": median(traced.misses) or 0.0,
        "serve.miss.samples": len(traced.misses),
        "trace_overhead_pct": (100.0 * (primary / base - 1.0)
                               if primary and base else None),
    }
    return out


def human_lines(name: str, win, bench) -> List[str]:
    """What a reader wants beside the JSON: samples behind each timing,
    tails with their sample counts, and the error rate."""
    lines = [f"[{name}] seed={bench.seed} jobs={win.jobs} "
             f"window={win.elapsed:.2f}s latency samples={len(win.latencies)}"]
    for label, values, scale, unit in (("hit", win.hits, 1e3, "ms"),
                                       ("miss", win.misses, 1.0, "s")):
        if not values:
            continue
        tail = quantiles.tail(values)
        tail_text = (f"p{tail[0]:g}={tail[1] * scale:.4g}{unit}" if tail
                     else "no tail percentile (<20 samples)")
        lines.append(f"[{name}] {label}: n={len(values)} "
                     f"p50={quantiles.percentile(values, 50) * scale:.4g}{unit} "
                     f"{tail_text}")
    return lines


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(name: str, args, bench_doc, expected) -> Dict[str, Any]:
    from workloads import SETUP_SAMPLES, WORKLOADS, Bench

    bench = Bench(args.seed, args.smoke, expected, args.seconds)
    try:
        workload = WORKLOADS[name](bench)
        workload.prepare()
        ungated: List[str] = []
        if args.trace:
            half = args.seconds / 2.0
            plain = workload.measure(False, half)
            traced = workload.measure(True, half)
            workload.check()
            values = layer_metrics(workload, plain, traced)
            declared = bench_doc["per_layer"]
            lines = human_lines(name, traced, bench)
        else:
            bench.setup_probes(workload.serve, SETUP_SAMPLES // 2)
            win = workload.measure(False, args.seconds)
            bench.setup_probes(workload.serve, SETUP_SAMPLES)
            workload.check()
            values = e2e_metrics(workload, win, bench)
            declared = bench_doc["end_to_end"]
            lines = human_lines(name, win, bench)
            ungated.append(f"[{name}] {LATENCY['name']} = "
                           f"{workload.primary(win)!r} ms (not gated)")
    finally:
        bench.close()
    bench.check_deadline()
    metrics = {}
    for spec in declared:
        value = values.get(spec["name"])
        if value is None:
            print(f"perf: warning: {name}: {spec['name']} unavailable (null)",
                  file=sys.stderr)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    gate = bench.gate
    nulls = not args.trace and any(m["value"] is None for m in metrics.values())
    lines.append(f"[{name}] checks: attempted={gate.attempted} "
                 f"failed={gate.failed} error_rate="
                 f"{gate.failed / max(1, gate.attempted):.4g}")
    for metric, doc in metrics.items():
        value = doc["value"]
        shown = "null" if value is None else f"{value:.6g}"
        lines.append(f"[{name}] {metric} = {shown} {doc['unit']}")
    lines += ungated
    return {
        "correct": gate.failed == 0 and gate.attempted > 0 and not nulls,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
        "lines": lines,
    }


def cmd_run(argv: List[str]) -> int:
    from workloads import WORKLOADS

    bench_doc = load_benchmark()
    parser = argparse.ArgumentParser(prog="perf/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all"] + list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(bench_doc["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="cora@0.3 everywhere, one repeat, 3 s windows")
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 3.0)
    if args.regen_expected:
        return regen_expected()

    import oracle

    expected = oracle.load_expected(EXPECTED)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = {}
    for name in names:
        report = run_workload(name, args, bench_doc, expected)
        for line in report.pop("lines"):
            print(line, flush=True)
        reports[name] = report
    if len(names) == 1:
        final = reports[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in reports.values()),
            "attempted": sum(r["attempted"] for r in reports.values()),
            "failed": sum(r["failed"] for r in reports.values()),
            "workloads": reports,
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


def regen_expected() -> int:
    import oracle
    from workloads import (HIGHMISS, LOWMISS, MISS_POINT, SMOKE_POINT,
                           miss_specs, sweep_specs)

    seed = oracle.EXPECTED_SEED
    specs = (sweep_specs([LOWMISS, HIGHMISS, SMOKE_POINT], seed)
             + miss_specs(MISS_POINT, seed) + miss_specs(SMOKE_POINT, seed))
    return oracle.regen(specs, EXPECTED)


# ----------------------------------------------------------------------
# Sets of runs and their comparison
# ----------------------------------------------------------------------
def cmd_set(argv: List[str]) -> int:
    from workloads import WORKLOADS

    bench_doc = load_benchmark()
    parser = argparse.ArgumentParser(prog="perf/run.py set")
    parser.add_argument("out")
    args = parser.parse_args(argv)
    seconds = bench_doc["run_seconds"]
    doc: Dict[str, Any] = {
        "host": {"nproc": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "date": datetime.date.today().isoformat(),
        "seconds": seconds,
        "runs": {name: [] for name in WORKLOADS},
    }
    bad = 0
    for seed in range(SET_RUNS):
        for name in WORKLOADS:
            cmd = [sys.executable, str(PERF / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"]
            started = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1]) if lines else {}
            except ValueError:  # the run died before its result line
                result = {}
            if proc.returncode != 0 or not result.get("correct"):
                bad += 1
            values = {k: v["value"] for k, v in result.get("metrics", {}).items()}
            found = re.search(rf"^\[{name}\] {LATENCY['name']} = (\S+) ",
                              proc.stdout, re.MULTILINE)
            values[LATENCY["name"]] = float(found.group(1)) if found else None
            doc["runs"][name].append({"seed": seed, "exit": proc.returncode,
                                      "run_s": time.monotonic() - started,
                                      "metrics": values})
            print(f"{name} seed={seed} exit={proc.returncode} "
                  f"{time.monotonic() - started:.1f}s {values}", flush=True)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
    print_spreads(doc, bench_doc)
    return 1 if bad else 0


def _values(doc, name: str, metric: str) -> List[float]:
    return [run["metrics"][metric] for run in doc["runs"].get(name, [])
            if run["metrics"].get(metric) is not None]


def print_spreads(doc, bench_doc) -> None:
    for name in doc["runs"]:
        for spec in bench_doc["end_to_end"] + [LATENCY]:
            values = _values(doc, name, spec["name"])
            if not values:
                continue
            share = quantiles.spread(values)
            flag = "" if share <= spec["bound"] / 3 else "  <-- above bound/3"
            if spec is LATENCY:
                flag += "  (not gated)"
            elif spec["name"] == MEDIAN_ONLY:
                flag = "  (spread not gated)"
            print(f"{name:14s} {spec['name']:16s} median="
                  f"{quantiles.quartiles(values)[1]:.6g} spread={share:.4f} "
                  f"bound={spec['bound']}{flag}")


def cmd_compare(argv: List[str]) -> int:
    bench_doc = load_benchmark()
    parser = argparse.ArgumentParser(prog="perf/run.py compare")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    regressed = 0
    print(f"{'workload':14s} {'metric':16s} {'base q1/med/q3':>30s} "
          f"{'new q1/med/q3':>30s}  verdict")
    for name in base["runs"]:
        for spec in bench_doc["end_to_end"] + [LATENCY]:
            a, b = _values(base, name, spec["name"]), _values(new, name, spec["name"])
            if not a or not b:
                continue
            verdict = quantiles.verdict(a, b, spec["bound"], spec["better"],
                                        judge_spread=spec["name"] != MEDIAN_ONLY)
            if spec is LATENCY:
                verdict += " (not gated)"
            else:
                regressed += verdict == "regressed"
            qa = "/".join(f"{v:.4g}" for v in quantiles.quartiles(a))
            qb = "/".join(f"{v:.4g}" for v in quantiles.quartiles(b))
            print(f"{name:14s} {spec['name']:16s} {qa:>30s} {qb:>30s}  {verdict}")
    return 1 if regressed else 0


def main(argv: List[str]) -> int:
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf: no product source at {ROOT / 'src' / 'repro'}; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if argv and argv[0] == "set":
        return cmd_set(argv[1:])
    from workloads import BenchError

    try:
        return cmd_run(argv)
    except BenchError as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
