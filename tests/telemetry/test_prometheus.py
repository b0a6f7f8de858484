"""Prometheus text exposition: render <-> validate round trip, and the
validator against hand-broken payloads."""

import pytest

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.prometheus import (
    ExpositionError,
    render_exposition,
    validate_exposition,
)


@pytest.fixture()
def registry():
    r = MetricsRegistry()
    c = r.counter("repro_jobs_total", "Jobs", labelnames=("status",))
    c.labels("done").inc(3)
    c.labels("failed").inc()
    r.gauge("repro_queue_depth", "Depth").set(2)
    h = r.histogram("repro_hitpath_ms", "Hit path", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 9.0):
        h.observe(v)
    return r


class TestRender:
    def test_roundtrip_validates(self, registry):
        text = render_exposition(registry)
        stats = validate_exposition(text)
        assert stats["families"] == 3
        # 2 counter samples + 1 gauge + (3+1 buckets + sum + count).
        assert stats["samples"] == 9

    def test_histogram_series_shape(self, registry):
        text = render_exposition(registry)
        assert 'repro_hitpath_ms_bucket{le="1"} 1' in text
        assert 'repro_hitpath_ms_bucket{le="2"} 2' in text
        assert 'repro_hitpath_ms_bucket{le="4"} 2' in text
        assert 'repro_hitpath_ms_bucket{le="+Inf"} 3' in text
        assert "repro_hitpath_ms_count 3" in text
        assert "repro_hitpath_ms_sum 11" in text

    def test_help_and_type_precede_samples(self, registry):
        lines = render_exposition(registry).splitlines()
        first = lines.index("# HELP repro_hitpath_ms Hit path")
        assert lines[first + 1] == "# TYPE repro_hitpath_ms histogram"

    def test_labelled_counter_samples(self, registry):
        text = render_exposition(registry)
        assert 'repro_jobs_total{status="done"} 3' in text
        assert 'repro_jobs_total{status="failed"} 1' in text

    def test_multi_registry_dedupe_first_wins(self, registry):
        other = MetricsRegistry()
        other.gauge("repro_queue_depth", "Depth").set(99)
        other.counter("repro_only_here_total", "Other").inc()
        text = render_exposition(registry, other)
        assert "repro_queue_depth 2" in text
        assert "repro_queue_depth 99" not in text
        assert "repro_only_here_total 1" in text
        validate_exposition(text)

    def test_empty_registry_renders_empty(self):
        assert render_exposition(MetricsRegistry()) == ""
        assert validate_exposition("") == {"families": 0, "samples": 0}

    def test_label_value_escaping(self):
        r = MetricsRegistry()
        c = r.counter("repro_esc_total", "Esc", labelnames=("k",))
        c.labels('a"b\\c\nd').inc()
        text = render_exposition(r)
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        validate_exposition(text)


class TestValidator:
    def test_sample_without_type_rejected(self):
        with pytest.raises(ExpositionError, match="no preceding TYPE"):
            validate_exposition("repro_x_total 1\n")

    def test_duplicate_help_rejected(self):
        text = (
            "# HELP repro_x_total a\n"
            "# HELP repro_x_total b\n"
            "# TYPE repro_x_total counter\n"
            "repro_x_total 1\n"
        )
        with pytest.raises(ExpositionError, match="duplicate HELP"):
            validate_exposition(text)

    def test_interleaved_families_rejected(self):
        text = (
            "# TYPE repro_a_total counter\n"
            "repro_a_total 1\n"
            "# TYPE repro_b_total counter\n"
            "repro_b_total 1\n"
            "repro_a_total 2\n"
        )
        with pytest.raises(ExpositionError, match="interleaved"):
            validate_exposition(text)

    def test_non_cumulative_buckets_rejected(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            'repro_h_bucket{le="2"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_count 5\n"
        )
        with pytest.raises(ExpositionError, match="not cumulative"):
            validate_exposition(text)

    def test_missing_inf_bucket_rejected(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="1"} 5\n'
            "repro_h_count 5\n"
        )
        with pytest.raises(ExpositionError, match=r"missing le=\"\+Inf\""):
            validate_exposition(text)

    def test_count_bucket_mismatch_rejected(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_count 4\n"
        )
        with pytest.raises(ExpositionError, match="!= \\+Inf bucket"):
            validate_exposition(text)

    def test_negative_counter_rejected(self):
        text = "# TYPE repro_x_total counter\nrepro_x_total -1\n"
        with pytest.raises(ExpositionError, match="negative"):
            validate_exposition(text)

    def test_unparsable_value_rejected(self):
        text = "# TYPE repro_x_total counter\nrepro_x_total banana\n"
        with pytest.raises(ExpositionError, match="unparsable sample value"):
            validate_exposition(text)

    def test_malformed_labels_rejected(self):
        text = "# TYPE repro_x_total counter\nrepro_x_total{oops} 1\n"
        with pytest.raises(ExpositionError, match="malformed labels"):
            validate_exposition(text)

    def test_special_values_accepted(self):
        text = (
            "# TYPE repro_g gauge\n"
            "repro_g +Inf\n"
            "# TYPE repro_g2 gauge\n"
            "repro_g2 NaN\n"
        )
        assert validate_exposition(text)["samples"] == 2

    def test_error_carries_line_number(self):
        try:
            validate_exposition("# TYPE repro_x_total counter\nboom{ 1\n")
        except ExpositionError as exc:
            assert exc.lineno == 2
            assert "line 2" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected ExpositionError")


class TestCli:
    """Expositions go through ``python -m repro.obs validate``, which
    tells them apart from trace JSON by content."""

    def test_validate_file_ok(self, tmp_path, capsys, registry):
        from repro.obs.cli import main

        path = tmp_path / "metrics.prom"
        path.write_text(render_exposition(registry), encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ok: families=3 samples=9" in out

    def test_validate_rejects_bad_file(self, tmp_path, capsys):
        from repro.obs.cli import main

        path = tmp_path / "bad.prom"
        path.write_text("repro_x_total 1\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_validate_stdin_and_min_samples(self, monkeypatch, capsys, registry):
        import io

        from repro.obs.cli import main

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(render_exposition(registry))
        )
        assert main(["validate", "-", "--min-samples", "100"]) == 1
        assert "only 9 samples" in capsys.readouterr().err

    def test_validate_trace_and_exposition_together(
        self, tmp_path, capsys, registry
    ):
        from repro.obs.cli import main
        from repro.obs.tracer import ChromeTracer

        tracer = ChromeTracer()
        tracer.span("tile", 0, 4, "region")
        trace = tmp_path / "run.trace.json"
        tracer.write(str(trace))
        prom = tmp_path / "metrics.prom"
        prom.write_text(render_exposition(registry), encoding="utf-8")
        assert main(["validate", str(trace), str(prom), "--min-samples", "9"]) == 0
        out = capsys.readouterr().out
        assert f"{trace}: ok" in out
        assert f"{prom}: ok: families=3 samples=9" in out

    def test_validate_bad_exposition_from_stdin(self, monkeypatch, capsys):
        import io

        from repro.obs.cli import main

        monkeypatch.setattr("sys.stdin", io.StringIO("repro_x_total 1\n"))
        assert main(["validate", "-"]) == 1
        assert "-: INVALID" in capsys.readouterr().err
