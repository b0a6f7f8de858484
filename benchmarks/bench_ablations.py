"""Ablations of the design choices DESIGN.md calls out.

Each ablation flips one HyMM policy on Amazon-Photo under buffer
pressure (64 KB DMB at the bench scale, preserving the paper-scale
working-set-to-buffer ratio) and reports the cycle/traffic cost of
losing the feature:

1. near-memory accumulator (Section IV-D)
2. OP-first region execution order (Section III)
3. unified vs split buffer (Section III)
4. LSQ store-to-load forwarding (Section IV-B)
5. LRU vs FIFO eviction (Section IV-D)
6. degree sorting (Table I's preprocessing; tested separately below)

All variants are :class:`repro.runtime.JobSpec` points executed through
``run_sweep``, with the runner's worker count and caches.
"""

from repro.bench import format_table
from repro.bench.runner import job_spec, run_sweep
from repro.hymm import HyMMConfig

_DATASET = "amazon-photo"
_PRESSURED = dict(dmb_bytes=64 * 1024)


def _spec(sort_mode=None, **overrides):
    config = HyMMConfig(**{**_PRESSURED, **overrides})
    return job_spec(_DATASET, "hymm", config=config, sort_mode=sort_mode)


def test_ablations(emit):
    specs = {
        "paper default": _spec(),
        "no accumulator": _spec(near_memory_accumulator=False),
        "RWP-first order": _spec(op_first=False),
        "split buffers": _spec(unified_buffer=False),
        "no forwarding": _spec(forwarding=False),
        "FIFO eviction": _spec(lru=False),
    }
    sweep = run_sweep(list(specs.values()))
    variants = {name: sweep.for_spec(s) for name, s in specs.items()}
    base = variants["paper default"]
    headers = ["variant", "cycles", "vs default", "DRAM MB", "hit rate"]
    rows = [
        [name, r.stats.cycles, r.stats.cycles / base.stats.cycles,
         r.stats.dram_total_bytes() / (1024 * 1024), r.stats.hit_rate()]
        for name, r in variants.items()
    ]
    emit("ablations", format_table(headers, rows))

    cycles = {name: r.stats.cycles for name, r in variants.items()}
    dram = {name: r.stats.dram_total_bytes() for name, r in variants.items()}
    # Every policy but forwarding earns cycles: losing it costs some.
    for name in ("no accumulator", "RWP-first order", "split buffers", "FIFO eviction"):
        assert cycles[name] > cycles["paper default"], f"Ablations: {name} costs no cycles"
    # The unified buffer is the biggest single win, in cycles and bytes.
    assert max(cycles, key=cycles.get) == "split buffers", (
        "Ablations: splitting the buffer is no longer the costliest ablation"
    )
    assert dram["split buffers"] > 3 * dram["paper default"], (
        "Ablations: split buffers no longer triple the DRAM traffic"
    )
    # Phase-separated layers rarely forward from the LSQ (Section IV-B).
    assert abs(cycles["no forwarding"] / cycles["paper default"] - 1) < 1e-3, (
        "Ablations: LSQ forwarding moves cycles by 0.1% or more"
    )
    assert dram["FIFO eviction"] > dram["paper default"], (
        "Ablations: LRU no longer saves DRAM traffic over FIFO"
    )
    # No ablation reduces traffic meaningfully below the default's (the
    # phase-order flip moves it by a fraction of a percent).
    for name, nbytes in dram.items():
        assert nbytes >= dram["paper default"] * 0.998, (
            f"Ablations: {name} moves 0.2% fewer DRAM bytes than the default"
        )


def test_sort_mode_ablation(emit):
    """Degree sorting is HyMM's only preprocessing (Table I); removing
    or randomising it must cost cycles and traffic."""
    specs = {mode: _spec(sort_mode=mode) for mode in ("degree", "none", "random")}
    sweep = run_sweep(list(specs.values()))
    results = {mode: sweep.for_spec(s) for mode, s in specs.items()}
    # The sorting wall-clock is host time: asserted below, not rendered.
    headers = ["sort mode", "cycles", "DRAM MB", "hit rate"]
    rows = [
        [mode, r.stats.cycles, r.stats.dram_total_bytes() / (1024 * 1024), r.stats.hit_rate()]
        for mode, r in results.items()
    ]
    emit("ablation_sorting", format_table(headers, rows))

    degree = results["degree"].stats
    for mode in ("none", "random"):
        stats = results[mode].stats
        assert stats.cycles > 1.10 * degree.cycles, (
            f"Ablations: sort mode {mode} costs 10% cycles or less"
        )
        assert stats.dram_total_bytes() > 1.15 * degree.dram_total_bytes(), (
            f"Ablations: sort mode {mode} costs 15% DRAM bytes or less"
        )
    assert results["degree"].sort_ms > 0
    assert results["none"].sort_ms == 0
