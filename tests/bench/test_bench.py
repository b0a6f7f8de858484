"""Experiment harness: report formatting, runner caching, generators.

Generators are exercised on the two smallest datasets with explicit
tiny scales so the whole file stays fast.
"""

import numpy as np
import pytest

from repro.bench import figures, format_table, render_series, tables
from repro.bench import runner as runner_mod
from repro.bench.report import replace_block
from repro.bench.runner import (
    aggregation_cycles,
    configure_runtime,
    job_spec,
    make_accelerator,
    run_accelerator,
    run_suite,
    run_sweep,
    runtime_settings,
)
from repro.bench.workloads import BENCH_DATASETS, bench_scale, make_model
from repro.runtime import default_cache_dir


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "long_header"], [[1, 2.5], [30, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # equal widths

    def test_format_table_large_numbers(self):
        text = format_table(["n"], [[1234567]])
        assert "1,234,567" in text

    def test_render_series(self):
        series = {"rwp": {"CR": 1.0, "AP": 2.0}, "hymm": {"CR": 3.0}}
        text = render_series("title", series)
        assert "title" in text
        assert "CR" in text and "AP" in text
        assert "-" in text  # missing hymm/AP cell

    def test_replace_block(self):
        doc = "a\n<!-- bench:t -->\nold\n<!-- /bench:t -->\nb\n"
        new = replace_block(doc, "t", "x | y")
        assert new == "a\n<!-- bench:t -->\n```\nx | y\n```\n<!-- /bench:t -->\nb\n"
        assert replace_block(new, "t", "x | y") == new

    @pytest.mark.parametrize("doc", [
        "no markers",
        "<!-- bench:t --><!-- /bench:t --><!-- bench:t --><!-- /bench:t -->",
        "<!-- /bench:t --> swapped <!-- bench:t -->",
        "<!-- bench:t --> unterminated",
    ], ids=["missing", "twice", "swapped", "unterminated"])
    def test_replace_block_refuses_bad_markers(self, doc):
        with pytest.raises(ValueError):
            replace_block(doc, "t", "text")


class TestWorkloads:
    def test_all_datasets_have_scales(self):
        for name in BENCH_DATASETS:
            assert 0 < bench_scale(name) <= 1.0

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            bench_scale("reddit")

    def test_make_model_memoised(self):
        a = make_model("cora", 0.05)
        b = make_model("cora", 0.05)
        assert a is b


class TestRunner:
    def test_run_accelerator_cached(self, monkeypatch):
        """The second call on one spec is a one-job sweep that the
        runner's private store answers, with equal stats."""
        sweeps = []

        def recording_run_sweep(*args, **kwargs):
            sweeps.append(run_sweep(*args, **kwargs))
            return sweeps[-1]

        monkeypatch.setattr(runner_mod, "run_sweep", recording_run_sweep)
        a = run_accelerator("cora", "rwp", scale=0.05)
        b = run_accelerator("cora", "rwp", scale=0.05)
        assert [s.manifest.executed for s in sweeps] == [1, 0]
        assert [s.manifest.cache_hits for s in sweeps] == [0, 1]
        assert b.stats.to_dict() == a.stats.to_dict()
        store = runtime_settings()["cache"]
        assert store.hits == 1 and store.stores == 1
        assert store.cache_dir != default_cache_dir()
        assert not default_cache_dir().exists()

    def test_run_accelerator_raises_job_error_after_retry(self, monkeypatch):
        attempts = []

        def broken(spec, **kwargs):
            attempts.append(spec)
            raise ValueError("synthetic simulator fault")

        monkeypatch.setattr("repro.runtime.execute.execute_spec", broken)
        with pytest.raises(
            RuntimeError, match="ValueError: synthetic simulator fault"
        ):
            run_accelerator("cora", "rwp", scale=0.05)
        assert len(attempts) == 2  # the first run and the executor's retry

    def test_run_suite_keys(self):
        runs = run_suite("cora", kinds=("rwp", "hymm"), scale=0.05)
        assert set(runs) == {"rwp", "hymm"}

    def test_make_accelerator_kinds(self):
        for kind in ("op", "rwp", "cwp", "op-deferred", "hymm"):
            assert make_accelerator(kind).name == kind

    def test_make_accelerator_unknown(self):
        with pytest.raises(ValueError):
            make_accelerator("tpu")

    def test_aggregation_cycles_sums_layers(self):
        r = run_accelerator("cora", "rwp", scale=0.05, n_layers=2)
        agg = aggregation_cycles(r)
        assert agg > 0
        assert agg < r.stats.cycles

    def test_store_keyed_by_fingerprint(self):
        run_accelerator("cora", "rwp", scale=0.05)
        store = runtime_settings()["cache"]
        fp = job_spec("cora", "rwp", 0.05).fingerprint()
        assert (store.cache_dir / fp[:2] / fp[2:4] / f"{fp}.json").exists()
        assert store.size() == 1

    def test_persistent_store_round_trip(self, tmp_path):
        configure_runtime(cache_dir=str(tmp_path))
        first = run_accelerator("cora", "rwp", scale=0.05)
        second = run_accelerator("cora", "rwp", scale=0.05)
        assert second is not first
        assert second.stats.cycles == first.stats.cycles
        disk = runtime_settings()["cache"]
        assert disk.cache_dir == tmp_path
        assert disk.hits == 1 and disk.stores == 1

    def test_run_sweep_fills_store(self):
        specs = [job_spec("cora", k, 0.05) for k in ("rwp", "op")]
        sweep = run_sweep(specs, n_jobs=1)
        assert len(sweep.results) == 2
        # run_accelerator now hits the store.
        again = run_accelerator("cora", "rwp", scale=0.05)
        assert runtime_settings()["cache"].hits == 1
        assert again.stats.to_dict() == (
            sweep.results[specs[0].fingerprint()].stats.to_dict()
        )

    def test_replacing_the_private_store_removes_it(self):
        run_accelerator("cora", "rwp", scale=0.05)
        private = runtime_settings()["cache"].cache_dir
        assert private.is_dir()
        configure_runtime(n_jobs=1)
        assert not private.exists()
        assert runtime_settings()["cache"].cache_dir != private

    def test_run_suite_parallel_matches_serial(self):
        serial = run_suite("cora", kinds=("rwp", "hymm"), scale=0.05)
        configure_runtime(n_jobs=1)  # a fresh store: the pool must simulate
        parallel = run_suite("cora", kinds=("rwp", "hymm"), scale=0.05, n_jobs=2)
        for kind in ("rwp", "hymm"):
            assert parallel[kind].stats.cycles == serial[kind].stats.cycles

    def test_make_accelerator_sort_mode(self):
        acc = make_accelerator("hymm", sort_mode="none")
        assert acc.sort_mode == "none"
        with pytest.raises(ValueError):
            make_accelerator("rwp", sort_mode="none")


class TestTables:
    def test_table1_mentions_all(self):
        text = tables.table1()
        for word in ("Hybrid", "Degree sorting", "CSC", "CSR"):
            assert word in text

    def test_table2_explicit_scale(self, monkeypatch):
        monkeypatch.setattr(
            "repro.bench.tables.BENCH_DATASETS", ("cora",)
        )
        t2 = tables.table2(scale=0.05)
        assert len(t2["rows"]) == 1
        row = t2["rows"][0]
        assert row[0] == "CR" and row[1] == 0.05
        assert row[-1] > 0  # sorting cost measured

    def test_table3_structure(self):
        t3 = tables.table3()
        assert len(t3["rows"]) == 6
        assert t3["rows"][-1][0] == "Total"
        # 7nm column reproduces the paper closely.
        for row in t3["rows"][:-1]:
            assert row[1] == pytest.approx(row[2], rel=0.06)


_TINY = ["cora", "amazon-photo"]


class TestFigures:
    @pytest.fixture(autouse=True)
    def _small_scales(self, monkeypatch):
        monkeypatch.setattr(
            "repro.bench.workloads._FAST_SCALES",
            {"cora": 0.05, "amazon-photo": 0.03},
        )

    def test_fig2(self):
        out = figures.fig2_degree_distribution(datasets=_TINY)
        assert set(out["top20_share"]) == {"CR", "AP"}
        for share in out["top20_share"].values():
            assert 0.3 < share <= 1.0

    def test_fig6(self):
        out = figures.fig6_storage_overhead(datasets=_TINY)
        for pct in out["overhead_pct"].values():
            assert pct > 0

    def test_fig7(self):
        out = figures.fig7_speedup(datasets=["cora"])
        assert out["total_speedup"]["op"]["CR"] == pytest.approx(1.0)
        assert out["aggregation_speedup"]["hymm"]["CR"] > 0

    def test_fig8(self):
        out = figures.fig8_alu_utilization(datasets=["cora"])
        for kind in ("op", "rwp", "hymm"):
            assert 0 < out["utilization"][kind]["CR"] <= 1.0

    def test_fig9(self):
        out = figures.fig9_hit_rate(datasets=["cora"])
        for kind in ("op", "rwp", "hymm"):
            assert 0 <= out["hit_rate"][kind]["CR"] <= 1.0

    def test_fig7_custom_kinds(self):
        out = figures.fig7_speedup(datasets=["cora"], kinds=("op", "op-tiled", "hymm"))
        assert set(out["total_speedup"]) == {"op", "op-tiled", "hymm"}

    def test_fig10(self):
        out = figures.fig10_partial_outputs(datasets=["cora"])
        assert out["reduction_pct"]["CR"] > 0
        assert "CR" in out["timelines"]

    def test_fig11(self):
        out = figures.fig11_dram_breakdown(datasets=["cora"])
        assert "CR" in out["reduction_vs_op"]
        assert out["breakdown"]["CR"]["hymm"]
