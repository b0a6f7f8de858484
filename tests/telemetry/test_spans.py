"""Wall-clock spans: ``span()`` into a ``ChromeTracer(clock="wall")``,
schema validity, correlation stamping, and the no-recorder no-op
contract."""

import json
import threading

import pytest

from repro.obs.schema import validate_trace
from repro.obs.tracer import ChromeTracer
from repro.telemetry import spans
from repro.telemetry.logs import bind_correlation
from repro.telemetry.spans import HOST_CATEGORY, install_recorder, span


@pytest.fixture(autouse=True)
def no_ambient_recorder_or_correlation():
    previous = install_recorder(None)
    bind_correlation(None)
    yield
    install_recorder(previous)
    bind_correlation(None)


@pytest.fixture()
def rec():
    tracer = ChromeTracer(pid=7, clock="wall")
    install_recorder(tracer)
    return tracer


class TestRecorder:
    def test_span_records_complete_event(self, rec):
        with span("runtime.execute", job="cora/hymm"):
            pass
        doc = rec.trace_dict()
        [event] = doc["traceEvents"]
        assert event["name"] == "runtime.execute"
        assert event["cat"] == HOST_CATEGORY
        assert event["ph"] == "X"
        assert event["ts"] >= 0
        assert event["dur"] >= 0
        assert event["pid"] == 7
        assert event["tid"] == threading.get_ident() % 1_000_000
        assert event["args"]["job"] == "cora/hymm"

    def test_trace_validates_under_obs_schema(self, rec):
        with span("outer"):
            with span("inner"):
                pass
        assert validate_trace(rec.trace_dict({"tool": "test"})) == []

    def test_corr_id_stamped_from_context(self, rec):
        bind_correlation("feedface00000042")
        with span("probe"):
            pass
        with span("execute", job="cora/hymm"):
            pass
        events = rec.trace_dict()["traceEvents"]
        assert len(events) == 2
        assert all(
            e["args"]["corr_id"] == "feedface00000042" for e in events
        )

    def test_no_corr_id_when_unbound(self, rec):
        with span("probe"):
            pass
        [event] = rec.trace_dict()["traceEvents"]
        assert "corr_id" not in event.get("args", {})

    def test_metadata_and_clock_declared(self, rec):
        doc = rec.trace_dict({"tool": "serve", "extra": 1})
        assert doc["otherData"]["clock"] == "wall"
        assert doc["otherData"]["tool"] == "serve"
        assert doc["otherData"]["extra"] == 1
        assert doc["otherData"]["epoch_s"] > 0
        assert doc["displayTimeUnit"] == "ms"

    def test_events_sorted_by_start(self, rec):
        with span("outer"):       # closes last -> appended last
            with span("inner"):
                pass
        names = [e["name"] for e in rec.trace_dict()["traceEvents"]]
        assert names == ["outer", "inner"]

    def test_write_round_trips(self, rec, tmp_path):
        with span("x"):
            pass
        path = tmp_path / "spans.json"
        rec.write(str(path), {"tool": "test"})
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert validate_trace(doc) == []
        assert len(doc["traceEvents"]) == 1
        assert doc["otherData"]["clock"] == "wall"


class TestModuleLevel:
    def test_span_is_noop_without_recorder(self, monkeypatch):
        class NoClock:
            @staticmethod
            def perf_counter():
                raise AssertionError("span() read a clock with no recorder")

        monkeypatch.setattr(spans, "time", NoClock)
        with span("anything", key="value"):
            pass

    def test_span_routes_to_installed_recorder(self, rec):
        with span("routed"):
            pass
        with span("routed too"):
            pass
        assert rec.n_events == 2

    def test_install_returns_previous(self):
        first = ChromeTracer(clock="wall")
        second = ChromeTracer(clock="wall")
        assert install_recorder(first) is None
        assert install_recorder(second) is first
        assert install_recorder(None) is second
