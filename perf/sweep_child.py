"""One fresh-process sweep, driven through the public runtime API.

Run by ``perf/run.py`` as ``python perf/sweep_child.py --cache-dir D
--specs FILE`` with ``src`` on ``PYTHONPATH``: it imports
``repro.runtime``, builds the :class:`JobSpec` list from ``FILE`` (one
JSON list of ``JobSpec.to_dict()`` documents), prints ``ready``, runs
one :class:`SweepExecutor` over a :class:`ResultCache` in ``D`` and
prints a one-line JSON summary of the run manifest.  The parent times
spawn -> ``ready`` (set-up) and spawn -> exit (the sweep a user waits
for).  ``--setup-only`` exits after ``ready``; ``--layers-out`` installs
the per-layer timers of ``layers.py`` and writes their totals there.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Union

MB = float(2 ** 20)


def peak_rss_mb(pid: Union[int, str] = "self") -> Optional[float]:
    """Peak resident set (``VmHWM``) of a live process, in MB.

    Not ``wait4``'s ``ru_maxrss``: across fork and exec that keeps the
    spawning process's own high-water mark, so it would report the
    benchmark's memory whenever that is the larger.
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / MB
    except OSError:
        pass
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--specs", required=True)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--layers-out", default=None)
    args = parser.parse_args()

    start = time.perf_counter()
    from repro.runtime import JobSpec, ResultCache, SweepExecutor

    import_s = time.perf_counter() - start
    recorder = None
    if args.layers_out:
        from layers import LayerRecorder, install

        recorder = install(LayerRecorder())
    with open(args.specs, encoding="utf-8") as fh:
        specs = [JobSpec.from_dict(doc) for doc in json.load(fh)]
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # One pool task per job: with --jobs 2 (the stores the benchmark
    # starts from) the two workers then share even a one-dataset sweep,
    # which batching by workload would hand to a single worker.  A
    # serial sweep (--jobs 1, every measured one) does not batch.
    executor = SweepExecutor(n_jobs=args.jobs, cache=ResultCache(args.cache_dir),
                             batch_by_workload=False)
    manifest = executor.run(specs).manifest
    if recorder is not None:
        recorder.write(args.layers_out)
    summary = {
        "jobs": manifest.total,
        "executed": manifest.executed,
        "cache_hits": manifest.cache_hits,
        "failed": manifest.failed,
        "replayed": manifest.replay_hits,
        "recorded": manifest.replay_misses,
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb(),
        "errors": [rec.error for rec in manifest.failures()],
    }
    print(json.dumps(summary), flush=True)
    return 0 if manifest.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
