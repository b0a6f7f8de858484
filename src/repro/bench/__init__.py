"""Experiment harness: regenerates every table and figure of the paper.

Each public function returns structured rows/series *and* a formatted
text table, so the pytest benches in ``benchmarks/`` and the scripts in
``examples/`` share one implementation.  Every simulation runs over one
result store per process (``repro.bench.runner``), so the four figure
benches that read the same runs (Fig. 7/8/9/11) only simulate once.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.bench import figures, tables
    from repro.bench.report import format_table, render_series
    from repro.bench.runner import (
        configure_runtime,
        job_spec,
        run_accelerator,
        run_suite,
        run_sweep,
    )
    from repro.bench.workloads import (
        BENCH_DATASETS,
        bench_scale,
        full_scale_requested,
        make_model,
    )

__all__ = [
    "BENCH_DATASETS",
    "bench_scale",
    "full_scale_requested",
    "make_model",
    "run_accelerator",
    "run_suite",
    "run_sweep",
    "job_spec",
    "configure_runtime",
    "format_table",
    "render_series",
    "tables",
    "figures",
]

# ``repro.bench.report`` (the table formatter ``repro.obs`` uses) loads
# without the runner, the runtime or the simulator.
__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.bench.workloads": (
        "BENCH_DATASETS", "bench_scale", "full_scale_requested", "make_model",
    ),
    "repro.bench.runner": (
        "configure_runtime", "job_spec", "run_accelerator", "run_suite",
        "run_sweep",
    ),
    "repro.bench.report": ("format_table", "render_series"),
    "repro.bench.tables": ("tables",),
    "repro.bench.figures": ("figures",),
})
