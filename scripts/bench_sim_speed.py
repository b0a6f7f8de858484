#!/usr/bin/env python3
"""Wall-clock benchmark of the simulator timing pipeline.

Runs every baseline accelerator plus HyMM over the full registry bench
suite under three pipelines and records the median wall-clock seconds
of each, plus the resulting speedups, as one new entry in the
append-only trajectory ``BENCH_sim.json`` in the repository root:

* ``scalar`` -- the reference event-at-a-time engine;
* ``batched`` -- the batch-issue engine with its hit lanes;
* ``replay`` -- record the phase traces once (batched engine), then
  replay them from the trace store.  This is the steady state of an
  ablation sweep or autotuner run, where later configs share phases
  with an earlier one and skip the buffer model entirely.

Each entry is keyed by git SHA and date, so the performance history
survives across PRs; an entry also reports its batched-engine speedup
against the most recent previous entry with the same workload
signature (the cross-PR regression signal).  Entries without a real
git identity -- the converted pre-trajectory report (sha
``pre-trajectory``, empty date) -- never serve as comparison anchors.
The aggregate headline ``speedup`` is scalar vs the warm-trace replay
pipeline (the ROADMAP metric); ``batched_speedup`` keeps the cold-run
number honest.

Cold runs are additionally split into *engine* time (wall-clock inside
the access/execute engines' batch methods -- the code the batched
engine actually replaces) and everything else (dataset
synthesis, dataflow drivers, host compute).  The split is measured by
timing wrappers around the batch methods of both engine classes, so
``engine_speedup`` per point and ``engine_only_speedup`` in aggregate
isolate the engine win from the fixed driver overhead that dilutes
``batched_speedup``.

All three pipelines are stats-exact by contract (see
``tests/sim/test_engine_equivalence.py`` and
``tests/sim/test_replay.py``), so the only thing this measures is
simulator throughput: how fast the host produces the same simulated
machine's numbers.

Usage::

    PYTHONPATH=src python scripts/bench_sim_speed.py
        [--datasets cora amazon-photo] [--kinds op rwp hymm]
        [--repeats 3] [--output BENCH_sim.json]

    PYTHONPATH=src python scripts/bench_sim_speed.py --smoke

``--smoke`` is the CI guard: a tiny fixed workload, nothing written to
the trajectory, non-zero exit if the batched engine is not faster than
the scalar reference.

Everything is seeded; dataset synthesis and model weights are identical
across engines and repeats, so run-to-run variance is host noise only
(hence the median).
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.bench.workloads import BENCH_DATASETS, bench_scale, make_model
from repro.runtime.execute import make_accelerator

#: Every accelerator the equivalence tests cover, Table I order-ish.
ALL_KINDS = ("op", "rwp", "cwp", "gcod", "op-deferred", "op-tiled", "hymm")
ENGINES = ("scalar", "batched")
SEED = 0
N_LAYERS = 2

#: The CI smoke workload: small, fast, still exercising eviction
#: pressure and all three dataflow families.
SMOKE_DATASETS = ("cora",)
SMOKE_KINDS = ("op", "rwp", "hymm")
SMOKE_SCALE = 0.5


#: The batch entry points of both engine classes.  These carry the
#: event-processing work (the singles -- ``mac_local``, ``alu_op``,
#: ``wait_until`` -- are trivial), so time inside them *is* engine
#: time; everything outside is driver/host overhead shared by every
#: engine.
ENGINE_BATCH_METHODS = (
    "mac_load_batch",
    "load_batch",
    "mac_stream_load_batch",
    "store_batch",
    "accumulate_store_batch",
    "merge_rmw_batch",
)


@contextlib.contextmanager
def engine_timer() -> Iterator[Dict[str, float]]:
    """Accumulate wall-clock spent inside the engines' batch methods.

    Patches :data:`ENGINE_BATCH_METHODS` on both engine classes with
    identical timing wrappers and restores them on exit.  Only methods
    defined directly on a class are wrapped (inherited ones are already
    wrapped on the base), and neither engine's batch methods call
    ``super()``, so every call is counted exactly once.  Wrapper cost
    is two ``perf_counter`` reads per *batch* (not per event) --
    negligible against the batch bodies being measured.
    """
    from repro.sim.engine import AccessExecuteEngine, BatchedAccessExecuteEngine

    clock = {"seconds": 0.0}

    def wrap(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                clock["seconds"] += time.perf_counter() - start

        return timed

    saved = []
    try:
        for cls in (AccessExecuteEngine, BatchedAccessExecuteEngine):
            for name in ENGINE_BATCH_METHODS:
                if name not in cls.__dict__:
                    continue
                original = cls.__dict__[name]
                saved.append((cls, name, original))
                setattr(cls, name, wrap(original))
        yield clock
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)


def time_run(kind: str, engine: str, model):
    acc = make_accelerator(kind)
    acc.config = acc.config.with_overrides(engine=engine)
    with engine_timer() as clock:
        start = time.perf_counter()
        result = acc.run_inference(model)
        total = time.perf_counter() - start
    return total, clock["seconds"], result


def time_replay_runs(kind: str, model, trace_root, repeats: int):
    """Record the phase traces once (batched engine, untimed beyond
    ``record_seconds``), then time ``repeats`` warm-trace replay runs.

    Raises if any replay run falls back to live simulation -- a silent
    fallback would report simulation time as replay time.
    """
    from repro.runtime.cache import TraceStore
    from repro.sim.replay import TraceSession

    store = TraceStore(trace_root)

    def run_with(session):
        acc = make_accelerator(kind)
        acc.config = acc.config.with_overrides(engine="batched")
        start = time.perf_counter()
        result = acc.run_inference(model, replay_session=session)
        return time.perf_counter() - start, result

    recorder = TraceSession(store)
    record_seconds, _ = run_with(recorder)
    if not recorder.recorded:
        raise RuntimeError(f"{kind}: recording run recorded no phases")
    samples = []
    for _ in range(repeats):
        session = TraceSession(store)
        dt, result = run_with(session)
        if session.recorded or len(session.replayed) != len(recorder.recorded):
            raise RuntimeError(
                f"{kind}: replay run fell back to live simulation "
                f"({len(session.replayed)}/{len(recorder.recorded)} phases replayed)"
            )
        samples.append(dt)
    return record_seconds, samples, result


def profile_run(kind: str, model, top: int = 15) -> None:
    """One batched run under cProfile; prints the ``top`` frames by
    ``tottime`` (the docs/performance.md profiling recipe, codified).
    Runs outside the timing loop, so profiling overhead never taints
    the recorded medians."""
    import cProfile
    import io
    import pstats

    acc = make_accelerator(kind)
    acc.config = acc.config.with_overrides(engine="batched")
    profiler = cProfile.Profile()
    profiler.enable()
    acc.run_inference(model)
    profiler.disable()
    out = io.StringIO()
    pstats.Stats(profiler, stream=out).sort_stats("tottime").print_stats(top)
    print(out.getvalue(), flush=True)


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
    """Read the trajectory file, migrating the pre-trajectory format
    (one flat report dict) into the first run entry."""
    if not path.exists():
        return {"schema": 2, "runs": []}
    data = json.loads(path.read_text(encoding="utf-8"))
    if "runs" in data:
        return data
    legacy = dict(data)
    legacy.setdefault("sha", "pre-trajectory")
    legacy.setdefault("date", "")
    return {"schema": 2, "runs": [legacy]}


def comparable_identity(run: Dict[str, Any]) -> bool:
    """Whether an entry can anchor a cross-PR comparison.

    The converted pre-trajectory report carries ``sha:
    "pre-trajectory"`` and an empty ``date`` (and sha resolution can
    fail outside a checkout, leaving ``"unknown"``); such entries are
    measurement provenance, not comparison anchors -- a "vs previous"
    line naming no commit is unactionable.
    """
    sha = run.get("sha") or ""
    return bool(run.get("date")) and sha not in ("", "pre-trajectory", "unknown")


def previous_matching(
    runs: List[Dict[str, Any]], workload: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    """Most recent earlier run with the same workload signature and a
    real git identity (see :func:`comparable_identity`)."""
    signature = ("datasets", "kinds", "n_layers", "seed", "scales")
    for run in reversed(runs):
        if not comparable_identity(run):
            continue
        prev = run.get("workload", {})
        if all(prev.get(key) == workload.get(key) for key in signature):
            return run
    return None


def bench(
    datasets: List[str],
    kinds: List[str],
    repeats: int,
    scale_override: Optional[float] = None,
    profile: bool = False,
) -> Dict[str, Any]:
    scales = {
        name: scale_override if scale_override is not None else bench_scale(name)
        for name in datasets
    }
    run: Dict[str, Any] = {
        "sha": git_sha(),
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%d"),
        "workload": {
            "datasets": list(datasets),
            "kinds": list(kinds),
            "scales": scales,
            "n_layers": N_LAYERS,
            "seed": SEED,
            "repeats": repeats,
            "statistic": "median",
        },
        "results": {},
    }
    grand = {engine: 0.0 for engine in ENGINES}
    grand["replay"] = 0.0
    grand_engine = {engine: 0.0 for engine in ENGINES}
    with tempfile.TemporaryDirectory(prefix="bench-traces-") as trace_root:
        for name in datasets:
            model = make_model(name, scales[name], N_LAYERS, SEED)
            for kind in kinds:
                medians = {}
                engine_medians = {}
                result = None
                for engine in ENGINES:
                    samples = []
                    engine_samples = []
                    for _ in range(repeats):
                        dt, engine_dt, result = time_run(kind, engine, model)
                        samples.append(dt)
                        engine_samples.append(engine_dt)
                    medians[engine] = statistics.median(samples)
                    grand[engine] += medians[engine]
                    engine_medians[engine] = statistics.median(engine_samples)
                    grand_engine[engine] += engine_medians[engine]
                record_s, replay_samples, result = time_replay_runs(
                    kind, model, trace_root, repeats
                )
                medians["replay"] = statistics.median(replay_samples)
                grand["replay"] += medians["replay"]
                # Per-dataflow miss rate, from the last run's stats (the
                # pipelines are stats-exact, so any run serves).
                # Attributes each speedup to hit-path vs miss-path work:
                # a low miss rate means the all-hit lanes carry the
                # workload, a high one means the shared miss path does.
                stats = result.stats
                hits = sum(stats.buffer_hits.values())
                misses = sum(stats.buffer_misses.values())
                lookups = hits + misses
                entry = {
                    "scalar_seconds": round(medians["scalar"], 4),
                    "batched_seconds": round(medians["batched"], 4),
                    "scalar_engine_seconds": round(engine_medians["scalar"], 4),
                    "batched_engine_seconds": round(
                        engine_medians["batched"], 4
                    ),
                    "record_seconds": round(record_s, 4),
                    "replay_seconds": round(medians["replay"], 4),
                    "speedup": round(medians["scalar"] / medians["replay"], 3),
                    "batched_speedup": round(
                        medians["scalar"] / medians["batched"], 3
                    ),
                    "engine_speedup": round(
                        engine_medians["scalar"] / engine_medians["batched"], 3
                    )
                    if engine_medians["batched"] > 0
                    else 0.0,
                    "miss_rate": round(misses / lookups, 4) if lookups else 0.0,
                }
                run["results"][f"{name}/{kind}"] = entry
                print(
                    f"{name:20s} {kind:12s} "
                    f"scalar={entry['scalar_seconds']:8.3f}s "
                    f"batched={entry['batched_seconds']:8.3f}s "
                    f"replay={entry['replay_seconds']:8.3f}s "
                    f"speedup={entry['speedup']:.2f}x "
                    f"(cold {entry['batched_speedup']:.2f}x, "
                    f"engine-only {entry['engine_speedup']:.2f}x) "
                    f"miss_rate={entry['miss_rate']:.3f}",
                    flush=True,
                )
                if profile:
                    print(
                        f"--- profile {name}/{kind} (batched, top 15 tottime) ---"
                    )
                    profile_run(kind, model)
    run["aggregate"] = {
        "scalar_seconds": round(grand["scalar"], 4),
        "batched_seconds": round(grand["batched"], 4),
        "scalar_engine_seconds": round(grand_engine["scalar"], 4),
        "batched_engine_seconds": round(grand_engine["batched"], 4),
        "replay_seconds": round(grand["replay"], 4),
        # Headline (the ROADMAP metric): scalar vs the warm-trace
        # replay pipeline -- what a sweep pays per config once one
        # config has recorded the shared phases.
        "speedup": round(grand["scalar"] / grand["replay"], 3),
        # Cold-run number, kept honest alongside the headline: what a
        # cold run pays end to end, driver overhead included.
        "batched_speedup": round(grand["scalar"] / grand["batched"], 3),
        # Cold-run engine-only number: time inside the batch methods,
        # with the engine-independent driver overhead factored out.
        "engine_only_speedup": round(
            grand_engine["scalar"] / grand_engine["batched"], 3
        )
        if grand_engine["batched"] > 0
        else 0.0,
    }
    print(
        f"aggregate: scalar={run['aggregate']['scalar_seconds']:.2f}s "
        f"batched={run['aggregate']['batched_seconds']:.2f}s "
        f"replay={run['aggregate']['replay_seconds']:.2f}s "
        f"speedup={run['aggregate']['speedup']:.2f}x "
        f"(cold {run['aggregate']['batched_speedup']:.2f}x, "
        f"engine-only {run['aggregate']['engine_only_speedup']:.2f}x)"
    )
    return run


def attach_vs_previous(run: Dict[str, Any], prev: Dict[str, Any]) -> None:
    """Cross-PR comparison: this run's batched engine against the
    previous matching entry's (per result and in aggregate)."""
    per_result = {}
    for key, entry in run["results"].items():
        old = prev.get("results", {}).get(key)
        if old and entry["batched_seconds"] > 0:
            per_result[key] = round(
                old["batched_seconds"] / entry["batched_seconds"], 3
            )
    comparison = {
        "sha": prev.get("sha", "unknown"),
        "date": prev.get("date", ""),
        "batched_speedup": per_result,
    }
    old_agg = prev.get("aggregate", {}).get("batched_seconds")
    new_agg = run["aggregate"]["batched_seconds"]
    if old_agg and new_agg:
        comparison["aggregate_batched_speedup"] = round(old_agg / new_agg, 3)
        print(
            f"vs previous entry {comparison['sha']}: batched engine "
            f"{comparison['aggregate_batched_speedup']:.2f}x faster in aggregate"
        )
    run["vs_previous"] = comparison


def check_regression(path: Path, threshold: float = 0.10) -> int:
    """CI gate over the committed trajectory: the newest entry's
    aggregate speedups -- the replay headline and the cold-run
    engine-only number -- must not fall more than ``threshold`` below
    the most recent earlier entry with the same workload signature.
    Returns a process exit code (0 pass, 1 regression)."""
    trajectory = load_trajectory(path)
    runs = trajectory.get("runs", [])
    if not runs:
        print(f"regression gate: no entries in {path}, nothing to compare")
        return 0
    latest = runs[-1]
    prev = previous_matching(runs[:-1], latest.get("workload", {}))
    if prev is None:
        print("regression gate: no earlier entry with this workload signature")
        return 0
    failed = False
    for metric, label in (
        ("speedup", "aggregate speedup"),
        ("engine_only_speedup", "engine-only aggregate speedup"),
    ):
        new = latest.get("aggregate", {}).get(metric, 0.0)
        old = prev.get("aggregate", {}).get(metric, 0.0)
        if metric not in prev.get("aggregate", {}):
            # Entries predating the engine-only split carry no such
            # column; nothing to regress against.
            print(
                f"regression gate: entry {prev.get('sha')} has no "
                f"{metric}, skipping that comparison"
            )
            continue
        print(
            f"regression gate: {label} {new:.3f}x "
            f"(entry {latest.get('sha')}) vs {old:.3f}x "
            f"(entry {prev.get('sha')})"
        )
        if old > 0 and new < old * (1.0 - threshold):
            print(
                f"REGRESSION: {label} dropped "
                f"{(1.0 - new / old) * 100:.1f}% "
                f"(> {threshold * 100:.0f}% allowed)",
                file=sys.stderr,
            )
            failed = True
    if failed:
        return 1
    print("regression gate: ok")
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--datasets", nargs="+", default=list(BENCH_DATASETS))
    parser.add_argument(
        "--kinds",
        nargs="+",
        default=list(ALL_KINDS),
        choices=list(ALL_KINDS),
        metavar="KIND",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny fixed workload, no trajectory write; exit 1 unless the "
        "batched engine beats the scalar reference",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="after timing each (dataset, kind), print the top-15 tottime "
        "frames of one batched run (outside the timing loop)",
    )
    parser.add_argument(
        "--check-regression",
        action="store_true",
        help="no benchmarking: compare the newest trajectory entry's "
        "aggregate speedup against the previous same-workload entry and "
        "exit 1 on a >10%% drop (the CI perf gate)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_sim.json",
    )
    args = parser.parse_args()

    if args.check_regression:
        sys.exit(check_regression(args.output))

    if args.smoke:
        run = bench(
            list(SMOKE_DATASETS), list(SMOKE_KINDS), repeats=1,
            scale_override=SMOKE_SCALE, profile=args.profile,
        )
        engine_speedup = run["aggregate"]["batched_speedup"]
        if engine_speedup < 1.0:
            print(
                f"SMOKE FAIL: batched engine slower than scalar "
                f"({engine_speedup:.2f}x)",
                file=sys.stderr,
            )
            sys.exit(1)
        # time_replay_runs already hard-fails on any live fallback, so
        # reaching this line also certifies the replay pipeline.
        print(
            f"smoke ok: batched {engine_speedup:.2f}x "
            f"(engine-only {run['aggregate']['engine_only_speedup']:.2f}x), "
            f"replay {run['aggregate']['speedup']:.2f}x scalar"
        )
        return

    trajectory = load_trajectory(args.output)
    run = bench(args.datasets, args.kinds, args.repeats, profile=args.profile)
    prev = previous_matching(trajectory["runs"], run["workload"])
    if prev is not None:
        attach_vs_previous(run, prev)
    trajectory["runs"].append(run)
    args.output.write_text(json.dumps(trajectory, indent=1) + "\n", encoding="utf-8")
    print(f"appended run {run['sha']} to {args.output} "
          f"({len(trajectory['runs'])} entries)")


if __name__ == "__main__":
    main()
