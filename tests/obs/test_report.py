"""Report helpers: PhaseFeed forwarding, manifest cache effectiveness,
and wall-clock span files through ``report`` and the two-clocks
``diff``."""

import json

from repro.obs import NULL_TRACER, ChromeTracer, PhaseFeed
from repro.obs.cli import main
from repro.obs.report import (
    is_wall_trace,
    load_json,
    manifest_cache_effectiveness,
    manifest_report,
)
from repro.runtime import JobSpec, execute_spec
from repro.telemetry import bind_correlation, install_recorder, span


class TestPhaseFeed:
    def test_forwards_phase_events_only(self):
        seen = []
        feed = PhaseFeed(lambda name, end, args: seen.append((name, end, args)))
        feed.span("layer0", 0, 10, cat="phase", args={"cycles": 10})
        feed.span("batch", 0, 10, cat="engine", args={"cycles": 10})
        feed.instant("drain", 12, cat="phase", args={"cycles": 2})
        feed.instant("prepare", 0, cat="phase")  # no counters: dropped
        feed.counter("occupancy", 5, {"a": 1})
        assert [name for name, _, _ in seen] == ["layer0", "drain"]
        assert seen[0][1] == 10.0
        assert seen[1][2] == {"cycles": 2}

    def test_is_an_enabled_tracer(self):
        feed = PhaseFeed(lambda *a: None)
        assert feed.enabled is True
        assert NULL_TRACER.enabled is False

    def test_live_feed_matches_result_snapshots(self):
        spec = JobSpec(dataset="cora", kind="rwp", scale=0.05)
        rows = []
        feed = PhaseFeed(lambda name, end, args: rows.append((name, args)))
        result = execute_spec(spec, tracer=feed)
        assert [name for name, _ in rows] == list(result.phase_snapshots)
        fed_total = sum(args["cycles"] for _, args in rows)
        assert fed_total == result.stats.cycles


class TestManifestCacheEffectiveness:
    def test_prefers_recorded_aggregates(self):
        doc = {"jobs": [], "cache_hits": 7, "cache_misses": 3}
        assert manifest_cache_effectiveness(doc) == {
            "hits": 7, "misses": 3, "hit_rate": 0.7,
        }

    def test_falls_back_to_counting_statuses(self):
        doc = {
            "jobs": [
                {"status": "cache-hit"},
                {"status": "cache-hit"},
                {"status": "done"},
                {"status": "failed"},
            ]
        }
        assert manifest_cache_effectiveness(doc) == {
            "hits": 2, "misses": 2, "hit_rate": 0.5,
        }

    def test_empty_manifest(self):
        assert manifest_cache_effectiveness({"jobs": []}) == {
            "hits": 0, "misses": 0, "hit_rate": 0.0,
        }

    def test_report_prints_cache_line(self):
        doc = {
            "jobs": [{"label": "a", "status": "cache-hit"}],
            "cache_hits": 1,
            "cache_misses": 0,
        }
        text = manifest_report(doc)
        assert "cache: 1 hit, 0 misses (100% hit rate)" in text


class TestWallReports:
    CORR_ID = "feedface00000042"

    def _files(self, tmp_path):
        """A wall span file written through ``span()`` under a bound
        corr_id, and a simulated trace carrying the same corr_id."""
        wall = tmp_path / "spans.json"
        sim = tmp_path / "sim.json"
        recorder = ChromeTracer(clock="wall")
        previous = install_recorder(recorder)
        try:
            bind_correlation(self.CORR_ID)
            with span("serve.cache_probe", job="abc"):
                pass
            with span("serve.batch", jobs=1):
                pass
            recorder.write(str(wall), {"tool": "test"})
            assert main([
                "trace", "cora", "--kind", "rwp", "--scale", "0.05",
                "--corr-id", self.CORR_ID, "-o", str(sim),
            ]) == 0
        finally:
            install_recorder(previous)
            bind_correlation(None)
        return wall, sim

    def test_report_prints_wall_time(self, tmp_path, capsys):
        wall, sim = self._files(tmp_path)
        assert is_wall_trace(load_json(str(wall)))
        assert not is_wall_trace(load_json(str(sim)))
        capsys.readouterr()
        assert main(["validate", str(wall)]) == 0
        assert main(["report", str(wall)]) == 0
        out = capsys.readouterr().out
        assert "clock: wall (host time)" in out
        assert "serve.cache_probe" in out and "serve.batch" in out
        assert f"correlation ids: {self.CORR_ID}" in out
        assert main(["report", str(wall), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["clock"] == "wall"
        assert summary["spans"]["serve.batch"]["count"] == 1
        assert summary["corr_ids"] == [self.CORR_ID]

    def test_diff_joins_wall_to_sim_on_corr_id(self, tmp_path, capsys):
        wall, sim = self._files(tmp_path)
        capsys.readouterr()
        for a, b in ((wall, sim), (sim, wall)):
            assert main(["diff", str(a), str(b)]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"two clocks: {wall} (host wall) vs {sim}")
            assert f"correlated: shared corr_id {self.CORR_ID}" in out
            assert "serve.cache_probe" in out
            assert "phase sums match run totals" in out
