"""Command-line interface for the experiment harness."""

import json

import pytest

from repro.bench.cli import (
    ALL_ORDER,
    EXPERIMENT_KINDS,
    EXPERIMENTS,
    build_parser,
    collect_specs,
    main,
)


class TestParser:
    def test_requires_experiments(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parses_names_and_flags(self):
        args = build_parser().parse_args(
            ["fig7", "table2", "--datasets", "cora", "--full-scale"]
        )
        assert args.experiments == ["fig7", "table2"]
        assert args.datasets == ["cora"]
        assert args.full_scale

    def test_runtime_flags_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        args = build_parser().parse_args(["fig7"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.no_cache

    def test_runtime_flags_explicit(self):
        args = build_parser().parse_args(
            ["fig7", "--jobs", "4", "--cache-dir", "/tmp/c", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache

    def test_jobs_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert build_parser().parse_args(["fig7"]).jobs == 3


class TestRegistry:
    def test_all_order_covers_every_experiment(self):
        assert set(ALL_ORDER) == set(EXPERIMENTS)

    def test_every_paper_item_present(self):
        for name in ("table1", "table2", "table3", "fig2", "fig6", "fig7",
                     "fig8", "fig9", "fig10", "fig11"):
            assert name in EXPERIMENTS


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table3" in out

    def test_unknown_experiment(self, capsys):
        assert main(["figure42"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_cheap_table(self, capsys):
        assert main(["table1"]) == 0
        assert "Hybrid" in capsys.readouterr().out

    def test_figure_with_dataset_filter_and_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.bench.workloads._FAST_SCALES", {"cora": 0.05}
        )
        assert main(["fig2", "--datasets", "cora", "--output", str(tmp_path)]) == 0
        assert (tmp_path / "fig2.txt").exists()
        assert "CR" in capsys.readouterr().out

    def test_full_scale_sets_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)
        import os
        main(["table1", "--full-scale"])
        assert os.environ.get("REPRO_FULL_SCALE") == "1"
        monkeypatch.delenv("REPRO_FULL_SCALE", raising=False)


class TestSpecCollection:
    def test_every_experiment_has_a_kind_entry(self):
        assert set(EXPERIMENT_KINDS) == set(EXPERIMENTS)

    def test_fig7_specs(self):
        specs = collect_specs(["fig7"], ["cora"])
        assert {s.kind for s in specs} == {"op", "rwp", "hymm"}
        assert all(s.dataset == "cora" for s in specs)

    def test_union_deduplicates(self):
        # fig8/fig9 need the same runs as fig7; fig10 adds op-deferred.
        specs = collect_specs(["fig7", "fig8", "fig9", "fig10"], ["cora"])
        assert {s.kind for s in specs} == {"op", "rwp", "hymm", "op-deferred"}
        assert len(specs) == 4

    def test_tables_need_no_simulations(self):
        assert collect_specs(["table1", "table2", "table3"], ["cora"]) == []


class TestRuntimeIntegration:
    @pytest.fixture(autouse=True)
    def _small(self, monkeypatch):
        monkeypatch.setattr(
            "repro.bench.workloads._FAST_SCALES", {"cora": 0.05}
        )

    def test_parallel_run_writes_json_and_manifest(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        out = tmp_path / "out"
        code = main([
            "fig7", "--datasets", "cora", "--jobs", "2",
            "--cache-dir", str(cache), "--output", str(out),
        ])
        assert code == 0
        assert (out / "fig7.txt").exists()
        payload = json.loads((out / "fig7.json").read_text())
        assert payload["experiment"] == "fig7"
        assert payload["data"]["total_speedup"]["op"]["CR"] == pytest.approx(1.0)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["total"] == 3
        assert manifest["executed"] == 3
        err = capsys.readouterr().err
        assert "[runtime]" in err

    def test_second_invocation_hits_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["fig7", "--datasets", "cora", "--cache-dir", str(cache)]
        assert main(argv) == 0
        assert "3 simulated" in capsys.readouterr().err
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "3 cache hits (100%)" in err

    def test_no_cache_skips_disk(self, tmp_path):
        from repro.bench.runner import runtime_settings
        from repro.runtime import default_cache_dir

        out = main(["fig7", "--datasets", "cora", "--no-cache"])
        assert out == 0
        store = runtime_settings()["cache"]
        assert store.size() == 3
        # Result records and phase traces went to the private store:
        # the default cache directory is never created.
        assert default_cache_dir() == tmp_path / "hymm-cache"
        assert store.cache_dir != default_cache_dir()
        assert not default_cache_dir().exists()

    def test_unwritable_cache_dir_falls_back_to_a_private_store(
        self, tmp_path, capsys
    ):
        from repro.bench.runner import runtime_settings

        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        out = main(["fig7", "--datasets", "cora",
                    "--cache-dir", str(blocker / "cache")])
        assert out == 0
        assert "using a temporary store" in capsys.readouterr().err
        assert runtime_settings()["cache"].size() == 3


def test_no_cache_run_leaves_tmpdir_empty(tmp_path):
    """A ``--no-cache`` run records phases in its private store, which
    it removes at exit: ``TMPDIR`` ends empty and the default cache
    directory is never created."""
    import os
    import subprocess
    import sys

    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    out = tmp_path / "out"
    env = dict(
        os.environ,
        TMPDIR=str(tmpdir),
        REPRO_CACHE_DIR=str(tmp_path / "default-cache"),
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    subprocess.run(
        [sys.executable, "-m", "repro.bench", "fig7", "--datasets", "cora",
         "--no-cache", "--output", str(out)],
        env=env, check=True, capture_output=True, timeout=300,
    )
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["executed"] == 3
    assert manifest["replay_misses"] > 0
    assert list(tmpdir.iterdir()) == []
    assert not (tmp_path / "default-cache").exists()
