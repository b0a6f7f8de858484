"""The sweep server end to end: cold/warm submits, single-flight
dedup, live status streams, metrics, failure paths.

Real-simulation coverage uses the smallest registry workload
(``cora`` at scale 0.05); concurrency mechanics use a blockable stub
runner injected through the server's ``runner`` seam so the tests
control exactly when an "execution" finishes.
"""

import asyncio
import json
import statistics
import threading
import time

import pytest

from repro.bench.runner import job_spec
from repro.hymm.base import RunResult
from repro.runtime import JobSpec, ResultCache, SweepExecutor, execute_spec
from repro.runtime import cache as cache_module
from repro.runtime.cache import BLOB_SUFFIX, BlobStore
from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import encode
from repro.serve.server import (
    ServeSettings,
    ServerThread,
    SweepServer,
    phase_rows_from_record,
)
from repro.telemetry import bind_correlation, current_correlation_id


@pytest.fixture(scope="module")
def spec():
    return JobSpec(dataset="cora", kind="rwp", scale=0.05)


@pytest.fixture(scope="module")
def result(spec):
    return execute_spec(spec)


def wait_until(predicate, timeout=20.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


WARM_HITS = 20


def warm_hits(cache_dir, spec, requests):
    """Prime ``spec`` on a fresh server, then submit it ``requests``
    times; returns the client's per-submit ms and the final /metrics."""
    with ServerThread(cache=ResultCache(cache_dir)) as srv:
        with ServeClient(srv.host, srv.port) as client:
            prime = client.submit(spec.to_dict())
            assert prime["source"] == "executed"
            client_ms = []
            for _ in range(requests):
                t0 = time.perf_counter()
                warm = client.submit(spec.to_dict())
                client_ms.append((time.perf_counter() - t0) * 1000.0)
                assert warm["cache"] == "hit"
            metrics = client.metrics()
    return client_ms, metrics


# ----------------------------------------------------------------------
# Cold / warm, byte identity
# ----------------------------------------------------------------------
class TestColdWarm:
    def test_cold_executes_then_warm_hits_cache(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        with ServerThread(cache=cache) as srv:
            with ServeClient(srv.host, srv.port) as client:
                cold = client.submit(spec.to_dict(), include_result=True)
                assert cold["status"] == "done"
                assert cold["source"] == "executed"
                assert cold["cache"] == "miss"
                assert cold["phases"], "live phase progress missing"
                warm = client.submit(spec.to_dict(), include_result=True)
                assert warm["status"] == "done"
                assert warm["source"] == "cache-disk"
                assert warm["cache"] == "hit"
                # The served result is byte-identical either way.
                assert encode({"r": cold["result"]}) == encode(
                    {"r": warm["result"]}
                )
                metrics = client.metrics()
                assert metrics["jobs"]["executed"] == 1
                assert metrics["jobs"]["cache_served"] == 1
                assert metrics["hitpath_ms"]["count"] == 1
        # The record landed in the sharded layout on disk.
        fp = spec.fingerprint()
        assert (tmp_path / fp[:2] / fp[2:4] / f"{fp}.json").exists()

    def test_cacheless_server_writes_nothing(self, tmp_path, spec):
        """Without a result cache the server runs over a temporary
        store: it exists while the server serves, is gone after exit,
        and the default cache directory is never created."""
        from repro.runtime import default_cache_dir

        with ServerThread(cache=None) as srv:
            store = srv.server.cache.cache_dir
            with ServeClient(srv.host, srv.port) as client:
                done = client.submit(spec.to_dict())
                assert done["status"] == "done"
                assert done["source"] == "executed"
                assert done["phases"], "live phase progress missing"
                assert store.is_dir()
        assert not store.exists()
        assert default_cache_dir() == tmp_path / "hymm-cache"
        assert not default_cache_dir().exists()

    def test_sweep_written_record_served_as_is(self, tmp_path, spec):
        """A batch sweep and the server share one layout: the record a
        sweep stored is answered from disk without being moved."""
        sweep = SweepExecutor(cache=ResultCache(tmp_path)).run([spec])
        assert sweep.manifest.executed == 1
        fp = spec.fingerprint()
        path = tmp_path / fp[:2] / fp[2:4] / f"{fp}.json"
        before = path.stat()
        with ServerThread(cache=ResultCache(tmp_path)) as srv:
            with ServeClient(srv.host, srv.port) as client:
                warm = client.submit(spec.to_dict())
        assert warm["cache"] == "hit"
        assert warm["source"] == "cache-disk"
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (
            before.st_ino, before.st_mtime_ns
        )
        assert not (tmp_path / f"{fp}.json").exists()

    def test_warm_phases_rebuilt_from_snapshots(self, tmp_path):
        """A job's ``phases`` rows do not depend on whether this server
        ran it or a later one served it from the shared cache."""
        spec = JobSpec(dataset="cora", kind="hymm", scale=0.05, n_layers=2)
        with ServerThread(cache=ResultCache(tmp_path)) as srv:
            with ServeClient(srv.host, srv.port) as client:
                cold = client.submit(spec.to_dict())
        with ServerThread(cache=ResultCache(tmp_path)) as srv:
            with ServeClient(srv.host, srv.port) as client:
                warm = client.submit(spec.to_dict())
        assert (cold["source"], warm["source"]) == ("executed", "cache-disk")
        assert warm["phases"] == cold["phases"]

    def test_finished_result_lives_in_the_store(self, tmp_path, spec):
        """With a cache the registry keeps no wire document once the
        reply is sent; ``include_result`` later reads the store."""
        cache = ResultCache(tmp_path)
        with ServerThread(cache=cache) as srv:
            with ServeClient(srv.host, srv.port) as client:
                done = client.submit(spec.to_dict(), wait=True)
                assert done["source"] == "executed"
                metrics = client.metrics()
                assert metrics["registry_size"] == 1
                assert metrics["registry_records"] == 0
                later = client.status(done["job_id"], include_result=True)
        assert later["result_summary"] == done["result_summary"]
        stored = cache.load(spec)
        served = RunResult.from_dict(later["result"])
        assert len(served.outputs) == len(stored.outputs)
        for ours, theirs in zip(served.outputs, stored.outputs):
            assert ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes()

    def test_result_gone_from_the_store_is_summary_only(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        with ServerThread(cache=cache) as srv:
            with ServeClient(srv.host, srv.port) as client:
                done = client.submit(spec.to_dict(), wait=True)
                assert cache.clear() == 1
                later = client.status(done["job_id"], include_result=True)
        assert later["status"] == "done"
        assert later["result_summary"] == done["result_summary"]
        assert later["result_summary"]["cycles"] > 0
        assert "result" not in later

    def test_hit_path_meets_latency_target(self, tmp_path, spec):
        """Twenty warm submits of a primed spec: the client sees each
        in well under 5 ms at the median."""
        client_ms, _ = warm_hits(tmp_path, spec, WARM_HITS)
        assert statistics.median(client_ms) < 5.0

    def test_server_side_hitpath_recorded(self, tmp_path, spec):
        """Every one of twenty warm submits is a cache hit timed by the
        server's cache probe in ``/metrics``."""
        _, metrics = warm_hits(tmp_path, spec, WARM_HITS)
        assert metrics["hitpath_ms"]["count"] == WARM_HITS
        assert metrics["cache"]["hits"] == WARM_HITS

    def test_no_wait_returns_queued_ack(self, tmp_path, spec, result):
        release = threading.Event()

        def runner(s):
            release.wait(timeout=30)
            return result.to_dict()

        with ServerThread(runner=runner) as srv:
            with ServeClient(srv.host, srv.port) as client:
                ack = client.submit(spec.to_dict(), wait=False)
                assert ack["status"] in ("queued", "running")
                job_id = ack["job_id"]
                release.set()
                assert wait_until(
                    lambda: client.status(job_id)["status"] == "done"
                )


# ----------------------------------------------------------------------
# What a hit reads
# ----------------------------------------------------------------------
class TestHitReads:
    @pytest.fixture
    def stored(self, tmp_path, spec):
        """A store holding ``spec``'s result, written by a sweep."""
        assert SweepExecutor(cache=ResultCache(tmp_path)).run([spec]).manifest.executed == 1
        return tmp_path

    def test_summary_hit_inflates_and_encodes_no_blob(self, stored, spec, monkeypatch):
        calls = {"read": 0, "b64encode": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(BlobStore, "read", counted("read", BlobStore.read))
        monkeypatch.setattr(
            cache_module.base64, "b64encode",
            counted("b64encode", cache_module.base64.b64encode),
        )
        with ServerThread(cache=ResultCache(stored)) as srv:
            with ServeClient(srv.host, srv.port) as client:
                summary = client.submit(spec.to_dict())
                assert summary["source"] == "cache-disk"
                assert "result" not in summary
                assert calls == {"read": 0, "b64encode": 0}
                # A hit that returns the result (a fresh probe: the
                # first entry is done) inflates and encodes each output
                # once.
                full = client.submit(spec.to_dict(), include_result=True)
        assert full["source"] == "cache-disk"
        outputs = len(full["result"]["outputs"])
        assert calls == {"read": outputs, "b64encode": outputs}

    def test_damaged_blob_turns_the_hit_into_a_miss(self, stored, spec):
        [blob, *_] = sorted((stored / "blobs").glob(f"??/*{BLOB_SUFFIX}"))
        data = bytearray(blob.read_bytes())
        data[len(data) // 2] ^= 0x01
        blob.write_bytes(bytes(data))
        with ServerThread(cache=ResultCache(stored)) as srv:
            with ServeClient(srv.host, srv.port) as client:
                again = client.submit(spec.to_dict(), include_result=True)
                metrics = client.metrics()
        assert again["source"] == "executed"
        assert metrics["cache"]["corrupt"] == 1
        served = RunResult.from_dict(again["result"])
        for ours, theirs in zip(served.outputs, ResultCache(stored).load(spec).outputs):
            assert ours.tobytes() == theirs.tobytes()

    def test_status_result_after_a_summary_hit_is_the_stored_result(
        self, stored, spec
    ):
        cache = ResultCache(stored)
        with ServerThread(cache=cache) as srv:
            with ServeClient(srv.host, srv.port) as client:
                summary = client.submit(spec.to_dict())
                assert summary["source"] == "cache-disk"
                later = client.status(summary["job_id"], include_result=True)
        assert json.dumps(later["result"], sort_keys=True) == json.dumps(
            cache.load(spec).to_dict(), sort_keys=True
        )


# ----------------------------------------------------------------------
# Single-flight dedup
# ----------------------------------------------------------------------
class TestSingleFlight:
    N = 5

    def _submit_many(self, srv, specs):
        """Submit each spec from its own connection thread; returns the
        responses in submission order."""
        responses = [None] * len(specs)
        errors = []

        def worker(i, spec_dict):
            try:
                with ServeClient(srv.host, srv.port) as client:
                    responses[i] = client.submit(spec_dict, include_result=True)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i, s))
            for i, s in enumerate(specs)
        ]
        for t in threads:
            t.start()
        return threads, responses, errors

    def test_concurrent_identical_submits_execute_once(self, spec, result):
        calls = []
        release = threading.Event()

        def runner(s):
            calls.append(s.fingerprint())
            release.wait(timeout=30)
            return result.to_dict()

        with ServerThread(runner=runner) as srv:
            threads, responses, errors = self._submit_many(
                srv, [spec.to_dict()] * self.N
            )
            with ServeClient(srv.host, srv.port) as probe:
                # All N submissions in flight before the one execution
                # finishes.
                assert wait_until(
                    lambda: probe.metrics()["jobs"]["submitted"] == self.N
                )
                release.set()
                for t in threads:
                    t.join(timeout=30)
                assert not errors
                metrics = probe.metrics()
        assert len(calls) == 1, "single-flight must collapse to one execution"
        assert metrics["jobs"]["deduped"] == self.N - 1
        assert all(r is not None for r in responses)
        assert {r["status"] for r in responses} == {"done"}
        assert {r["source"] for r in responses} == {"executed"}
        assert {r["submits"] for r in responses} == {self.N}
        # Every caller got the identical answer, byte for byte.
        payloads = {encode({"r": r["result"]}) for r in responses}
        assert len(payloads) == 1

    def test_distinct_specs_are_not_collapsed(self, spec, result):
        calls = []
        release = threading.Event()

        def runner(s):
            calls.append(s.fingerprint())
            release.wait(timeout=30)
            return result.to_dict()

        other = JobSpec(dataset="cora", kind="rwp", scale=0.05, seed=1)
        with ServerThread(runner=runner) as srv:
            threads, responses, errors = self._submit_many(
                srv, [spec.to_dict(), other.to_dict()]
            )
            with ServeClient(srv.host, srv.port) as probe:
                assert wait_until(
                    lambda: probe.metrics()["jobs"]["submitted"] == 2
                )
                release.set()
                for t in threads:
                    t.join(timeout=30)
        assert not errors
        assert sorted(calls) == sorted(
            [spec.fingerprint(), other.fingerprint()]
        )
        assert {r["job_id"] for r in responses} == {
            spec.fingerprint(), other.fingerprint(),
        }

    def test_terminal_entry_stops_absorbing(self, spec, result):
        """After a job completes, a re-submit is a fresh lookup (served
        from the store, a temporary one on a cache-less server), not a
        dedup join."""
        def runner(s):
            return result.to_dict()

        with ServerThread(runner=runner) as srv:
            with ServeClient(srv.host, srv.port) as client:
                first = client.submit(spec.to_dict())
                assert first["source"] == "executed"
                again = client.submit(spec.to_dict())
                assert again["source"] == "cache-disk"
                assert again["cache"] == "hit"
                metrics = client.metrics()
        assert metrics["jobs"]["deduped"] == 0
        assert metrics["jobs"]["cache_served"] == 1


#: ``/metrics`` ``jobs``: every answer is a store hit or an execution.
JOB_COUNTERS = {
    "submitted", "deduped", "cache_served", "executed", "failed", "batches",
}


class TestCachelessStore:
    """A server given no cache answers every repeat from its own
    temporary store, on either lane, and removes the store on exit."""

    def test_serial_lane_repeat_is_a_store_hit(self, spec):
        with ServerThread() as srv:
            store = srv.server.cache.cache_dir
            with ServeClient(srv.host, srv.port) as client:
                first = client.submit(spec.to_dict())
                again = client.submit(spec.to_dict(), include_result=True)
                metrics = client.metrics()
                exposition = client.metrics_prometheus()
        assert first["source"] == "executed"
        assert (again["source"], again["cache"]) == ("cache-disk", "hit")
        assert again["result"]["stats"]["cycles"] == again["result_summary"]["cycles"]
        assert set(metrics["jobs"]) == JOB_COUNTERS
        assert "repro_serve_registry" not in exposition
        assert metrics["jobs"]["cache_served"] == 1
        # The miss recorded its phase traces in the temporary store.
        assert metrics["replay"]["misses"] >= 1
        assert metrics["registry_records"] == 0
        assert not store.exists()

    def test_pool_lane_repeat_is_a_store_hit(self):
        specs = [JobSpec("cora", "rwp", 0.05, seed=seed) for seed in range(3)]
        with ServerThread(settings=ServeSettings(workers=2)) as srv:
            store = srv.server.cache.cache_dir
            with ServeClient(srv.host, srv.port) as client:
                # The first job runs alone; the two queued behind it
                # share a batch, which the process pool runs.
                acks = [client.submit(s.to_dict(), wait=False) for s in specs]
                firsts = [list(client.follow(a["job_id"]))[-1] for a in acks]
                agains = [client.submit(s.to_dict()) for s in specs]
                metrics = client.metrics()
        assert [a["status"] for a in acks] == ["queued"] * 3
        assert [f["source"] for f in firsts] == ["executed"] * 3
        assert [a["source"] for a in agains] == ["cache-disk"] * 3
        assert metrics["jobs"]["executed"] == 3
        assert metrics["jobs"]["batches"] < 3
        assert metrics["jobs"]["cache_served"] == 3
        assert set(metrics["jobs"]) == JOB_COUNTERS
        assert not store.exists()

    def test_unstarted_server_leaves_no_store(self):
        server = SweepServer()
        store = server.cache.cache_dir
        assert store.is_dir()
        asyncio.run(server.aclose())
        assert not store.exists()


# ----------------------------------------------------------------------
# Status and follow streams
# ----------------------------------------------------------------------
class TestStatus:
    def test_unknown_job_is_an_error(self):
        with ServerThread() as srv:
            with ServeClient(srv.host, srv.port) as client:
                with pytest.raises(ServeError, match="unknown job"):
                    client.status("no-such-fingerprint")

    def test_follow_streams_lifecycle_then_final(self, spec, result):
        release = threading.Event()

        def runner(s):
            release.wait(timeout=30)
            return result.to_dict()

        with ServerThread(runner=runner) as srv:
            with ServeClient(srv.host, srv.port) as client:
                ack = client.submit(spec.to_dict(), wait=False)
                events = []
                done = threading.Event()

                def follow():
                    with ServeClient(srv.host, srv.port) as follower:
                        for event in follower.follow(ack["job_id"]):
                            events.append(event)
                    done.set()

                t = threading.Thread(target=follow)
                t.start()
                release.set()
                assert done.wait(timeout=30)
                t.join(timeout=10)
        statuses = [
            e["status"] for e in events if e.get("event") == "status"
        ]
        assert statuses[0] == "queued"
        assert "done" in statuses
        assert events[-1]["final"] is True
        assert events[-1]["status"] == "done"

    def test_follow_terminal_job_replays_and_ends(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        with ServerThread(cache=cache) as srv:
            with ServeClient(srv.host, srv.port) as client:
                submitted = client.submit(spec.to_dict())
                events = list(client.follow(submitted["job_id"]))
        assert events[-1]["final"] is True
        phase_events = [e for e in events if e.get("event") == "phase"]
        assert phase_events, "replay must include the phase progress"


# ----------------------------------------------------------------------
# Failures, health, metrics
# ----------------------------------------------------------------------
class TestFailureAndOps:
    def test_failing_job_reports_error(self, spec):
        def runner(s):
            raise RuntimeError("synthetic worker failure")

        with ServerThread(
            runner=runner, settings=ServeSettings(retries=0)
        ) as srv:
            with ServeClient(srv.host, srv.port) as client:
                response = client.submit(spec.to_dict())
                assert response["status"] == "failed"
                assert "synthetic worker failure" in response["error"]
                metrics = client.metrics()
        assert metrics["jobs"]["failed"] == 1

    def test_healthz(self):
        with ServerThread() as srv:
            with ServeClient(srv.host, srv.port) as client:
                health = client.healthz()
        assert health["status"] == "ok"
        assert health["protocol"] == 1
        assert health["queue_depth"] == 0

    def test_metrics_shape(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        with ServerThread(cache=cache) as srv:
            with ServeClient(srv.host, srv.port) as client:
                client.submit(spec.to_dict())
                client.submit(spec.to_dict())
                metrics = client.metrics()
        assert metrics["jobs"]["submitted"] == 2
        assert metrics["cache"]["hit_rate"] > 0
        assert metrics["workers"]["pool_jobs"] == 1
        assert "p50" in metrics["hitpath_ms"]
        assert metrics["workers"]["peak_rss_kb"] is not None

    def test_bad_request_line_answered_not_fatal(self, tmp_path, spec):
        cache = ResultCache(tmp_path)
        with ServerThread(cache=cache) as srv:
            with ServeClient(srv.host, srv.port) as client:
                client._sock.sendall(b"this is not json\n")
                error = json.loads(client._rfile.readline())
                assert error["ok"] is False
                # The connection survives and still serves.
                assert client.healthz()["status"] == "ok"

    def test_malformed_spec_is_client_error(self):
        with ServerThread() as srv:
            with ServeClient(srv.host, srv.port) as client:
                with pytest.raises(ServeError, match="bad spec"):
                    client.submit({"dataset": "cora", "kind": "no-such-kind"})

    def test_shutdown_op_stops_server(self):
        srv = ServerThread().start()
        with ServeClient(srv.host, srv.port) as client:
            assert client.shutdown()["stopping"] is True
        srv._thread.join(timeout=10)
        assert not srv._thread.is_alive()

    def test_shutdown_answers_a_waiting_submit(self, spec, result):
        # The cancelled dispatcher never finishes the job, so shutdown
        # must answer its waiter rather than drop the connection.
        started, release = threading.Event(), threading.Event()

        def runner(s):
            started.set()
            release.wait(timeout=30)
            return result.to_dict()

        srv = ServerThread(runner=runner).start()
        store = srv.server.cache.cache_dir
        replies = []

        def waiter():
            with ServeClient(srv.host, srv.port) as client:
                replies.append(client.submit(spec.to_dict()))

        client_thread = threading.Thread(target=waiter, daemon=True)
        client_thread.start()
        stopper = threading.Thread(target=srv.stop, daemon=True)
        try:
            assert started.wait(timeout=30)
            stopper.start()
            client_thread.join(timeout=30)
        finally:
            release.set()  # the runner's thread holds up asyncio.run's exit
        stopper.join(timeout=30)
        assert not client_thread.is_alive()
        assert [(r["status"], r["error"]) for r in replies] == [
            ("failed", "server shut down")
        ]
        srv._thread.join(timeout=30)
        assert not srv._thread.is_alive()
        # The store goes after the batch that was still storing into it.
        assert not store.exists()


class TestBatchThread:
    def test_batches_share_one_thread_and_start_from_a_clean_context(
        self, tmp_path, result
    ):
        """Every batch runs on the server's one batch thread -- not the
        event loop's, not a probe's -- each in its own copy of the
        dispatcher's context, so a correlation ID one job binds there
        never leaks into the next batch."""
        seen = []

        def runner(s):
            thread = threading.current_thread()
            seen.append((thread.ident, thread.name, current_correlation_id()))
            bind_correlation(s.corr_id)  # as execute_job does
            return result.to_dict()

        with ServerThread(cache=ResultCache(tmp_path), runner=runner) as srv:
            with ServeClient(srv.host, srv.port) as client:
                for seed in range(3):
                    spec = JobSpec("cora", "rwp", 0.05, seed=seed)
                    assert client.submit(spec.to_dict())["status"] == "done"
            loop_thread = srv._thread.ident
        assert len(seen) == 3
        assert len({ident for ident, _, _ in seen}) == 1
        assert seen[0][0] != loop_thread
        assert all(name.startswith("serve-batch") for _, name, _ in seen)
        assert [corr for _, _, corr in seen] == [None, None, None]


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
class TestHelpers:
    def test_phase_rows_from_record_sums_dict_counters(self, result):
        rows = phase_rows_from_record(result.to_dict())
        assert rows
        total = sum(row["cycles"] for row in rows)
        assert total == result.stats.cycles
        assert rows[-1]["end_cycle"] == float(total)
        for row in rows:
            assert isinstance(row["dram_read_bytes"], int)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            ServeSettings(workers=0)
        with pytest.raises(ValueError):
            ServeSettings(max_batch=0)

    def test_server_rejects_unroutable_gracefully(self):
        server = SweepServer()
        assert server.metrics.submitted.value == 0
        asyncio.run(server.aclose())
