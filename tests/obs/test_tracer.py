"""Tracer event construction, export determinism, schema validation."""

import json

import pytest

from repro.obs import NULL_TRACER, ChromeTracer, NullTracer, Tracer
from repro.obs.schema import validate_event, validate_trace


class TestNullTracer:
    def test_disabled_by_default(self):
        assert NullTracer.enabled is False
        assert NULL_TRACER.enabled is False
        assert Tracer.enabled is False

    def test_methods_are_noops(self):
        NULL_TRACER.span("x", 0.0, 1.0, "engine")
        NULL_TRACER.instant("x", 0.0, "phase")
        NULL_TRACER.counter("x", 0.0, {"a": 1})

    def test_no_event_storage(self):
        assert not hasattr(NULL_TRACER, "_events")


class TestChromeTracer:
    def test_enabled(self):
        assert ChromeTracer.enabled is True

    def test_span_event_shape(self):
        tr = ChromeTracer()
        tr.span("tile", 10.0, 25.0, "region", {"rows": 4})
        [event] = tr.trace_dict()["traceEvents"]
        assert event["ph"] == "X"
        assert event["ts"] == 10.0
        assert event["dur"] == 15.0
        assert event["cat"] == "region"
        assert event["args"] == {"rows": 4}
        assert event["pid"] == 0 and event["tid"] == 0

    def test_instant_and_counter_shapes(self):
        tr = ChromeTracer()
        tr.instant("plan", 5.0, "phase")
        tr.counter("occupancy", 6.0, {"adj": 3, "out": 1})
        instant, counter = tr.trace_dict()["traceEvents"]
        assert instant["ph"] == "i" and instant["s"] == "t"
        assert counter["ph"] == "C"
        assert counter["args"] == {"adj": 3.0, "out": 1.0}

    def test_n_events(self):
        tr = ChromeTracer()
        assert tr.n_events == 0
        tr.instant("a", 0.0, "run")
        tr.span("b", 0.0, 1.0, "engine")
        assert tr.n_events == 2

    def test_to_json_deterministic(self):
        def build():
            tr = ChromeTracer()
            tr.span("tile", 0.0, 2.0, "region", {"rows": 4})
            tr.instant("plan", 1.0, "phase")
            return tr.to_json({"spec": {"dataset": "cora"}})

        assert build() == build()

    def test_write_appends_newline(self, tmp_path):
        tr = ChromeTracer()
        tr.instant("a", 0.0, "run")
        path = tmp_path / "t.json"
        tr.write(str(path), {"totals": {"cycles": 1}})
        text = path.read_text()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["otherData"]["totals"] == {"cycles": 1}
        assert validate_trace(doc) == []


    def test_sim_clock_declared(self):
        doc = ChromeTracer().trace_dict({"totals": {"cycles": 1}})
        assert doc["otherData"] == {"clock": "sim", "totals": {"cycles": 1}}
        assert doc["displayTimeUnit"] == "ns"

    def test_unknown_clock_rejected(self):
        with pytest.raises(ValueError):
            ChromeTracer(clock="cpu")


class TestSchema:
    def _event(self, **over):
        base = {"name": "x", "cat": "engine", "ph": "i", "ts": 0.0,
                "pid": 0, "tid": 0, "s": "t"}
        base.update(over)
        return base

    def test_valid_event(self):
        assert validate_event(self._event(), "e0") == []

    def test_missing_field(self):
        event = self._event()
        del event["cat"]
        assert any("cat" in p for p in validate_event(event, "e0"))

    def test_bad_phase(self):
        assert validate_event(self._event(ph="Z"), "e0")

    def test_negative_ts(self):
        assert validate_event(self._event(ts=-1.0), "e0")

    def test_span_needs_duration(self):
        event = self._event(ph="X")
        assert validate_event(event, "e0")
        event["dur"] = 5.0
        assert validate_event(event, "e0") == []

    def test_counter_needs_numeric_args(self):
        event = self._event(ph="C", args={"a": "nope"})
        assert validate_event(event, "e0")
        event["args"] = {"a": 1.0}
        assert validate_event(event, "e0") == []

    def test_trace_root_shape(self):
        assert validate_trace({"traceEvents": []}) == []
        assert validate_trace({"traceEvents": {}})
        assert validate_trace([])
