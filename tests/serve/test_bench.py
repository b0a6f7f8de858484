"""Hit-path benchmark: measurement, trajectory append, CLI wiring."""

import json

import pytest

from repro.serve.bench import (
    TRAJECTORY_SCHEMA,
    attach_vs_previous,
    bench_hitpath_main,
    load_trajectory,
    previous_matching,
    run_bench,
)


class TestTrajectory:
    def test_load_missing_file_is_empty(self, tmp_path):
        doc = load_trajectory(tmp_path / "BENCH_serve.json")
        assert doc == {"schema": TRAJECTORY_SCHEMA, "runs": []}

    def test_load_rejects_foreign_shape(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(ValueError, match="trajectory"):
            load_trajectory(path)

    def test_previous_matching_respects_signature(self):
        workload = {
            "dataset": "cora", "kind": "hymm", "scale": 0.1,
            "n_layers": 1, "seed": 0, "requests": 10,
        }
        runs = [
            {"sha": "aaa", "workload": dict(workload)},
            {"sha": "bbb", "workload": dict(workload, requests=99)},
        ]
        assert previous_matching(runs, workload)["sha"] == "aaa"
        assert previous_matching([], workload) is None

    def test_attach_vs_previous_p50_ratio(self):
        run = {"results": {"client_ms": {"p50": 2.0}}}
        prev = {
            "sha": "aaa", "date": "2026-01-01",
            "results": {"client_ms": {"p50": 4.0}},
        }
        attach_vs_previous(run, prev)
        assert run["vs_previous"]["p50_speedup"] == 2.0
        assert run["vs_previous"]["sha"] == "aaa"


class TestRunBench:
    @pytest.fixture(scope="class")
    def entry(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("serve-bench-cache")
        return run_bench(
            dataset="cora", kind="rwp", scale=0.05, requests=20,
            cache_dir=str(cache_dir),
        )

    def test_entry_shape(self, entry):
        assert entry["served_by"] == "self-hosted"
        assert entry["workload"]["dataset"] == "cora"
        assert entry["workload"]["requests"] == 20
        assert entry["results"]["prime_source"] == "executed"
        assert entry["results"]["requests_per_second"] > 0

    def test_client_latency_percentiles_present(self, entry):
        client_ms = entry["results"]["client_ms"]
        for key in ("p50", "p90", "p99", "max", "mean"):
            assert key in client_ms
            assert client_ms[key] > 0
        assert client_ms["p50"] <= client_ms["max"]

    def test_server_side_hitpath_recorded(self, entry):
        hitpath = entry["results"]["server_hitpath_ms"]
        assert hitpath["count"] == 20
        assert entry["results"]["cache"]["hits"] == 20

    def test_hit_path_meets_latency_target(self, entry):
        # Acceptance: served-lookup p50 under 5ms on the cora workload.
        assert entry["results"]["client_ms"]["p50"] < 5.0


    def test_self_hosts_over_a_temporary_cache(self, tmp_path, monkeypatch):
        """Without ``cache_dir`` every run primes cold and leaves the
        user's cache (``REPRO_CACHE_DIR``) untouched."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        for _ in range(2):
            entry = run_bench(dataset="cora", kind="rwp", scale=0.05, requests=5)
            assert entry["results"]["prime_source"] == "executed"
        assert list(tmp_path.iterdir()) == []


class TestBenchMain:
    def test_appends_and_compares(self, tmp_path, capsys):
        output = tmp_path / "BENCH_serve.json"
        kwargs = dict(
            dataset="cora", kind="rwp", scale=0.05, n_layers=1, seed=0,
            requests=5, host=None, port=None, output=output,
        )
        first = bench_hitpath_main(**kwargs)
        assert "vs_previous" not in first
        doc = json.loads(output.read_text())
        assert doc["schema"] == TRAJECTORY_SCHEMA
        assert len(doc["runs"]) == 1
        second = bench_hitpath_main(**kwargs)
        assert second["vs_previous"]["sha"] == first["sha"]
        doc = json.loads(output.read_text())
        assert len(doc["runs"]) == 2
        out = capsys.readouterr().out
        assert "hit path" in out
        assert "appended run" in out

    def test_dry_run_writes_nothing(self, tmp_path):
        output = tmp_path / "BENCH_serve.json"
        bench_hitpath_main(
            dataset="cora", kind="rwp", scale=0.05, n_layers=1, seed=0,
            requests=3, host=None, port=None, output=output, dry_run=True,
        )
        assert not output.exists()
