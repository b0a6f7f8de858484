"""Command-line interface for the experiment harness.

Usage::

    python -m repro.bench all                 # every table and figure
    python -m repro.bench fig7 fig11          # specific experiments
    python -m repro.bench fig7 --datasets cora amazon-photo
    python -m repro.bench all --jobs 4        # parallel simulation
    python -m repro.bench all --cache-dir /tmp/hymm-cache
    python -m repro.bench table2 --full-scale
    python -m repro.bench list                # what's available

Each experiment prints its table and, with ``--output DIR``, also
writes ``<experiment>.txt`` and machine-readable ``<experiment>.json``
files.

Simulation execution goes through :mod:`repro.runtime`: the
simulations the requested experiments need are collected up front and
fanned out over ``--jobs`` worker processes, with results and phase
traces persisted in an on-disk cache (``~/.cache/hymm-repro`` or
``--cache-dir``) so a re-run completes without re-simulating.
``--no-cache`` (or a cache directory that cannot be created) runs over
a private temporary store instead, removed when the run exits.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Callable, Dict, Iterable, List, Optional

from repro.bench import figures, tables
from repro.bench.workloads import BENCH_DATASETS

_FIG_SUITE_KINDS = ("op", "rwp", "hymm")


def _table(fn: Callable) -> Callable[[Optional[List[str]]], Dict[str, object]]:
    def run(datasets: Optional[List[str]]) -> Dict[str, object]:
        out = fn()
        return {"text": out} if isinstance(out, str) else out

    return run


def _figure(fn: Callable) -> Callable[[Optional[List[str]]], Dict[str, object]]:
    def run(datasets: Optional[List[str]]) -> Dict[str, object]:
        kwargs = {"datasets": datasets} if datasets else {}
        return fn(**kwargs)

    return run


#: Experiment name -> callable(datasets) -> {"text": ..., **data}.
EXPERIMENTS: Dict[str, Callable] = {
    "table1": _table(tables.table1),
    "table2": _table(tables.table2),
    "table3": _table(tables.table3),
    "fig2": _figure(figures.fig2_degree_distribution),
    "fig6": _figure(figures.fig6_storage_overhead),
    "fig7": _figure(figures.fig7_speedup),
    "fig8": _figure(figures.fig8_alu_utilization),
    "fig9": _figure(figures.fig9_hit_rate),
    "fig10": _figure(figures.fig10_partial_outputs),
    "fig11": _figure(figures.fig11_dram_breakdown),
    "phases": _figure(figures.phases_breakdown),
}

#: Run order for "all" (cheap first; Figs. 7-11 share memoised runs).
ALL_ORDER = (
    "table1", "table3", "table2", "fig2", "fig6",
    "fig7", "fig8", "fig9", "fig10", "fig11", "phases",
)

#: Accelerator kinds each experiment simulates (None = no simulation).
#: Drives the parallel prewarm: the union over the requested
#: experiments x datasets is the job list handed to the runtime.
EXPERIMENT_KINDS: Dict[str, tuple] = {
    "table1": (),
    "table2": (),
    "table3": (),
    "fig2": (),
    "fig6": (),
    "fig7": _FIG_SUITE_KINDS,
    "fig8": _FIG_SUITE_KINDS,
    "fig9": _FIG_SUITE_KINDS,
    "fig10": ("op-deferred", "hymm"),
    "fig11": _FIG_SUITE_KINDS,
    "phases": _FIG_SUITE_KINDS,
}


def collect_specs(names: Iterable[str], datasets: Iterable[str]) -> list:
    """Every simulation job the named experiments will request."""
    from repro.bench.runner import job_spec

    specs = []
    seen = set()
    for name in names:
        for kind in EXPERIMENT_KINDS.get(name, ()):
            for dataset in datasets:
                key = (dataset, kind)
                if key not in seen:
                    seen.add(key)
                    specs.append(job_spec(dataset, kind))
    return specs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the HyMM paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment names (e.g. fig7 table2), 'all', or 'list'",
    )
    parser.add_argument(
        "--datasets",
        nargs="+",
        metavar="NAME",
        help=f"restrict figure experiments to these datasets "
             f"(default: all of {', '.join(BENCH_DATASETS)})",
    )
    parser.add_argument(
        "--full-scale",
        action="store_true",
        help="run at paper scale (sets REPRO_FULL_SCALE=1; slow)",
    )
    parser.add_argument(
        "--output",
        metavar="DIR",
        help="also write each experiment's text to DIR/<name>.txt and "
             "its data to DIR/<name>.json",
    )
    parser.add_argument(
        "--jobs", "-j",
        type=int,
        default=int(os.environ.get("REPRO_JOBS", "1")),
        metavar="N",
        help="simulate on N worker processes (default: $REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent result-cache directory "
             "(default: $REPRO_CACHE_DIR or ~/.cache/hymm-repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="run over a private temporary store instead of the "
             "persistent result cache",
    )
    return parser


def _configure_runtime(args) -> None:
    from repro.bench.runner import configure_runtime
    from repro.runtime.cache import default_cache_dir

    if not args.no_cache:
        try:
            configure_runtime(
                n_jobs=args.jobs,
                cache_dir=args.cache_dir or str(default_cache_dir()),
            )
            return
        except OSError as exc:  # unwritable cache location: degrade, don't die
            print(f"[runtime] using a temporary store ({exc})", file=sys.stderr)
    configure_runtime(n_jobs=args.jobs)


def _prewarm(names: List[str], datasets: Iterable[str], args, out_dir) -> None:
    """Simulate everything the experiments need, in parallel, up front."""
    from repro.bench.runner import run_sweep
    from repro.runtime.manifest import JobRecord

    specs = collect_specs(names, datasets)
    if not specs:
        return

    def progress(record: "JobRecord", n_finished: int, n_total: int) -> None:
        status = record.status
        if record.error:
            status += f" ({record.error})"
        print(
            f"[runtime] {n_finished}/{n_total} {record.label}: {status} "
            f"[{record.wall_seconds:.1f}s]",
            file=sys.stderr,
        )

    sweep = run_sweep(specs, n_jobs=args.jobs, progress=progress)
    manifest = sweep.manifest
    if manifest.total:
        print(f"[runtime] {manifest.summary()}", file=sys.stderr)
        for record in manifest.failures():
            print(
                f"[runtime] FAILED {record.label}: {record.error} "
                f"(will retry serially)",
                file=sys.stderr,
            )
        if out_dir is not None:
            (out_dir / "run_manifest.json").write_text(
                json.dumps(manifest.to_dict(), indent=2) + "\n"
            )


def _write_outputs(name: str, out: Dict[str, object], out_dir: pathlib.Path) -> None:
    from repro.runtime import to_jsonable

    (out_dir / f"{name}.txt").write_text(out["text"] + "\n")
    data = {k: v for k, v in out.items() if k != "text"}
    payload = {"experiment": name, "data": to_jsonable(data)}
    (out_dir / f"{name}.json").write_text(json.dumps(payload, indent=2) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if "list" in args.experiments:
        print("Available experiments:")
        for name in ALL_ORDER:
            print(f"  {name}")
        return 0

    if args.full_scale:
        os.environ["REPRO_FULL_SCALE"] = "1"

    names = list(ALL_ORDER) if "all" in args.experiments else args.experiments
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(ALL_ORDER)}", file=sys.stderr)
        return 2

    out_dir = pathlib.Path(args.output) if args.output else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    _configure_runtime(args)
    datasets = args.datasets if args.datasets else BENCH_DATASETS
    _prewarm(names, datasets, args, out_dir)

    for name in names:
        out = EXPERIMENTS[name](args.datasets)
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{out['text']}")
        if out_dir:
            _write_outputs(name, out, out_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
