"""Telemetry through the serve stack, end to end.

One cold submit against a real (smallest-workload) simulation must
leave the SAME correlation ID in every observability surface: the
submit response, the event stream, the NDJSON log records, the
recorded wall-clock spans, and the executor's manifest JobRecord --
that join key is the whole point of the spine.
"""

import io
import json
import logging
import re

import pytest

from repro.obs.schema import validate_trace
from repro.obs.tracer import ChromeTracer
from repro.runtime import JobSpec, ResultCache
from repro.runtime.executor import SweepExecutor
from repro.serve.client import ServeClient
from repro.serve.server import ServerThread
from repro.telemetry import bind_correlation, configure_logging, install_recorder
from tests.store_records import read_record

CORR_RE = re.compile(r"^[0-9a-f]{16}$")


@pytest.fixture()
def spec():
    return JobSpec(dataset="cora", kind="rwp", scale=0.05)


@pytest.fixture()
def log_stream():
    buf = io.StringIO()
    handler = configure_logging(stream=buf)
    yield buf
    logging.getLogger("repro").removeHandler(handler)


@pytest.fixture()
def recorder():
    rec = ChromeTracer(clock="wall")
    previous = install_recorder(rec)
    bind_correlation(None)
    yield rec
    install_recorder(previous)
    bind_correlation(None)


def log_records(buf):
    return [json.loads(line) for line in buf.getvalue().splitlines()]


class TestEndToEndCorrelation:
    def test_one_id_across_every_surface(
        self, tmp_path, spec, log_stream, recorder
    ):
        cache = ResultCache(tmp_path / "cache")
        with ServerThread(cache=cache) as srv:
            with ServeClient(srv.host, srv.port) as client:
                cold = client.submit(spec.to_dict())
                corr_id = cold["corr_id"]
                assert CORR_RE.match(corr_id)

                # Surface 1: the status payload re-reads the same ID.
                assert client.status(cold["job_id"])["corr_id"] == corr_id

                # Surface 2: every streamed event (status transitions
                # AND live PhaseFeed progress rows) is stamped.
                events = list(client.follow(cold["job_id"]))
        stamped = [e for e in events if "corr_id" in e]
        assert stamped, "no stamped events in the stream"
        assert {e["corr_id"] for e in stamped} == {corr_id}
        phase_events = [e for e in events if e.get("event") == "phase"]
        assert phase_events, "expected live phase progress events"
        assert all(e["corr_id"] == corr_id for e in phase_events)

        # Surface 3: NDJSON log records from the submit path carry it.
        matching = [
            r for r in log_records(log_stream) if r.get("corr_id") == corr_id
        ]
        assert any(r["event"] == "submit" for r in matching)

        # Surface 4: the recorded wall-clock spans carry it in args,
        # and the exported file is a valid (wall-clock) Chrome trace.
        path = tmp_path / "wall.json"
        recorder.write(str(path), {"tool": "test"})
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert validate_trace(doc) == []
        assert doc["otherData"]["clock"] == "wall"
        span_ids = {
            e["args"]["corr_id"]
            for e in doc["traceEvents"]
            if "corr_id" in e.get("args", {})
        }
        assert corr_id in span_ids

        # Surface 5 (negative): the cached record on disk is shared
        # across submitters and must NOT embed the first caller's ID.
        fp = spec.fingerprint()
        shard = tmp_path / "cache" / fp[:2] / fp[2:4] / f"{fp}.json"
        assert shard.exists()
        assert "corr_id" not in json.dumps(read_record(shard))

    def test_executed_submit_runs_through_execute_job(
        self, tmp_path, spec, log_stream, recorder
    ):
        """The default serial lane executes through ``execute_job``: its
        ``runtime.execute`` span and job log records carry the submit's
        correlation ID."""
        with ServerThread(cache=ResultCache(tmp_path)) as srv:
            with ServeClient(srv.host, srv.port) as client:
                cold = client.submit(spec.to_dict())
        assert cold["source"] == "executed"
        corr_id = cold["corr_id"]
        executes = [
            event for event in recorder.trace_dict({})["traceEvents"]
            if event.get("name") == "runtime.execute"
        ]
        assert [e["args"].get("corr_id") for e in executes] == [corr_id]
        job_events = {
            r["event"] for r in log_records(log_stream)
            if r.get("corr_id") == corr_id
        }
        assert {"job start", "job done"} <= job_events

    def test_warm_hit_gets_a_fresh_id(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        with ServerThread(cache=cache) as srv:
            with ServeClient(srv.host, srv.port) as client:
                cold = client.submit(spec.to_dict())
                warm = client.submit(spec.to_dict())
        assert CORR_RE.match(warm["corr_id"])
        # A new request is a new correlation, even on the hit path.
        assert warm["corr_id"] != cold["corr_id"]

    def test_client_supplied_id_is_adopted(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        doc = spec.to_dict()
        doc["corr_id"] = "feedface00000007"
        with ServerThread(cache=cache) as srv:
            with ServeClient(srv.host, srv.port) as client:
                response = client.submit(doc)
        assert response["corr_id"] == "feedface00000007"


class TestManifestJobRecord:
    def test_executor_manifest_carries_spec_corr_id(self, tmp_path, spec):
        corr = "feedface00000009"
        tagged = JobSpec(
            dataset=spec.dataset, kind=spec.kind, scale=spec.scale,
            corr_id=corr,
        )
        cache = ResultCache(tmp_path)
        executor = SweepExecutor(n_jobs=1, cache=cache)
        sweep = executor.run([tagged])
        [record] = sweep.manifest.records
        assert record.corr_id == corr
        assert record.to_dict()["corr_id"] == corr

    def test_untagged_spec_serialises_without_the_key(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        sweep = SweepExecutor(n_jobs=1, cache=cache).run([spec])
        [record] = sweep.manifest.records
        assert record.corr_id is None
        assert "corr_id" not in record.to_dict()


class TestHealthzShape:
    def test_versions_uptime_and_slo_objectives(self):
        with ServerThread() as srv:
            with ServeClient(srv.host, srv.port) as client:
                health = client.healthz()
        assert set(health["versions"]) == {
            "protocol", "job_schema", "trace_schema",
        }
        assert health["uptime_s"] >= 0
        slo = health["slo"]
        assert slo["verdict"] == "ok"
        names = {o["name"] for o in slo["objectives"]}
        assert names == {"hitpath-p99", "error-rate"}
        for objective in slo["objectives"]:
            assert objective["ok"] is True
            assert objective["events"] == 0
