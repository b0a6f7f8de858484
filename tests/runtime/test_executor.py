"""SweepExecutor: serial fallback, pool execution, timeout, retry.

Custom runners injected here must be module-level (picklable) because
the pool ships them to worker processes.  Each returns a real wire
document (:func:`_doc`), which the executor decodes and stores.
"""

import functools
import pathlib
import time

import pytest

from repro.hymm.base import RunResult
from repro.hymm.config import HyMMConfig
from repro.runtime import JobSpec, ResultCache, SweepExecutor, execute_spec
from repro.runtime.manifest import STATUS_CACHE_HIT, STATUS_DONE, STATUS_FAILED
from repro.sim.stats import SimStats
from tests.store_records import read_record


def _spec(kind="rwp", **kw):
    base = dict(dataset="cora", kind=kind, scale=0.05)
    base.update(kw)
    return JobSpec(**base)


@pytest.fixture
def store(tmp_path):
    return ResultCache(tmp_path / "store")


# ----------------------------------------------------------------------
# Injectable runners (top-level for pickling)
# ----------------------------------------------------------------------
def _doc(spec, label):
    """The wire document of an empty run whose ``extra`` carries
    ``label``."""
    return RunResult(
        spec.kind, spec.dataset, HyMMConfig(), SimStats(), [],
        extra={"label": label},
    ).to_dict()


def _label(result):
    return result.extra["label"]


def ok_runner(spec):
    return _doc(spec, f"ok:{spec.kind}:{spec.seed}")


def failing_runner(spec):
    raise RuntimeError("synthetic worker failure")


def slow_runner(spec):
    time.sleep(2.0)
    return _doc(spec, "too late")


def flaky_runner(marker_dir, spec):
    """Fails the first time each fingerprint is attempted, succeeds
    after -- the marker file carries state across processes."""
    marker = pathlib.Path(marker_dir) / spec.fingerprint()
    if not marker.exists():
        marker.write_text("attempted")
        raise RuntimeError("first attempt always fails")
    return _doc(spec, f"recovered:{spec.kind}")


# ----------------------------------------------------------------------
class TestSerial:
    def test_serial_executes_real_job(self, store):
        sweep = SweepExecutor(cache=store, n_jobs=1).run([_spec()])
        result = sweep.for_spec(_spec())
        assert result is not None
        assert result.stats.cycles > 0
        assert sweep.manifest.executed == 1
        assert sweep.manifest.records[0].worker == "serial"

    def test_serial_matches_direct_execution(self, store):
        direct = execute_spec(_spec())
        via_executor = SweepExecutor(cache=store, n_jobs=1).run([_spec()]).for_spec(_spec())
        assert via_executor.stats.cycles == direct.stats.cycles

    def test_duplicates_collapse(self, store):
        sweep = SweepExecutor(cache=store, n_jobs=1, runner=ok_runner).run(
            [_spec(), _spec(), _spec(kind="op")]
        )
        assert sweep.manifest.total == 2
        assert len(sweep.results) == 2

    def test_serial_retry_then_fail(self, store):
        sweep = SweepExecutor(cache=store, n_jobs=1, runner=failing_runner, retries=2).run(
            [_spec()]
        )
        record = sweep.manifest.records[0]
        assert record.status == STATUS_FAILED
        assert record.attempts == 3
        assert "synthetic worker failure" in record.error
        assert sweep.for_spec(_spec()) is None

    def test_serial_flaky_recovers(self, store, tmp_path):
        runner = functools.partial(flaky_runner, str(tmp_path))
        sweep = SweepExecutor(cache=store, n_jobs=1, runner=runner, retries=1).run([_spec()])
        assert sweep.manifest.executed == 1
        assert sweep.manifest.records[0].attempts == 2
        assert _label(sweep.results[_spec().fingerprint()]) == "recovered:rwp"

    def test_serial_groups_jobs_by_workload(self, store, monkeypatch):
        """Specs alternating between two workloads build each model
        once, and the one-workload memo keeps only the last."""
        from repro.bench import workloads

        loads = []
        real_load = workloads.load_dataset

        def counting_load(name, **kwargs):
            loads.append((name, kwargs.get("seed")))
            return real_load(name, **kwargs)

        monkeypatch.setattr(workloads, "load_dataset", counting_load)
        workloads.make_model.cache_clear()
        specs = [
            _spec(kind=kind, seed=seed)
            for kind in ("rwp", "op") for seed in (0, 1)
        ]
        sweep = SweepExecutor(cache=store, n_jobs=1).run(specs)
        assert sweep.manifest.executed == 4
        assert loads == [("cora", 0), ("cora", 1)]
        assert workloads.make_model.cache_info().currsize == 1


class TestPool:
    def test_pool_runs_all_jobs(self, store):
        specs = [_spec(seed=i) for i in range(4)]
        sweep = SweepExecutor(cache=store, n_jobs=2, runner=ok_runner).run(specs)
        assert sweep.manifest.executed == 4
        assert {r.worker for r in sweep.manifest.records} == {"pool"}
        for spec in specs:
            assert _label(sweep.for_spec(spec)) == f"ok:rwp:{spec.seed}"

    def test_pool_executes_real_simulation(self, store):
        sweep = SweepExecutor(cache=store, n_jobs=2).run([_spec(), _spec(kind="op")])
        assert sweep.manifest.executed == 2
        for spec in (_spec(), _spec(kind="op")):
            assert sweep.for_spec(spec).stats.cycles > 0

    def test_pool_failure_after_retries(self, store):
        sweep = SweepExecutor(cache=store, n_jobs=2, runner=failing_runner, retries=1).run(
            [_spec()]
        )
        record = sweep.manifest.records[0]
        assert record.status == STATUS_FAILED
        assert record.attempts == 2
        assert "synthetic worker failure" in record.error

    def test_pool_flaky_recovers(self, store, tmp_path):
        runner = functools.partial(flaky_runner, str(tmp_path))
        specs = [_spec(seed=i) for i in range(3)]
        sweep = SweepExecutor(cache=store, n_jobs=2, runner=runner, retries=1).run(specs)
        assert sweep.manifest.executed == 3
        assert sweep.manifest.failed == 0

    def test_timeout_fails_job(self, store):
        start = time.monotonic()
        sweep = SweepExecutor(
            cache=store, n_jobs=2, runner=slow_runner, timeout=0.3, retries=0
        ).run([_spec()])
        elapsed = time.monotonic() - start
        record = sweep.manifest.records[0]
        assert record.status == STATUS_FAILED
        assert "timed out" in record.error
        assert elapsed < 1.9  # did not wait for the 2s sleep

    def test_timeout_validation(self, store):
        with pytest.raises(ValueError):
            SweepExecutor(cache=store, timeout=0)
        with pytest.raises(ValueError):
            SweepExecutor(cache=store, retries=-1)


class TestCacheIntegration:
    def test_second_sweep_is_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        specs = [_spec(), _spec(kind="op")]
        first = SweepExecutor(n_jobs=1, cache=cache).run(specs)
        assert first.manifest.executed == 2
        second = SweepExecutor(n_jobs=1, cache=cache).run(specs)
        assert second.manifest.cache_hits == 2
        assert second.manifest.executed == 0
        assert second.manifest.hit_rate == 1.0
        assert {r.status for r in second.manifest.records} == {STATUS_CACHE_HIT}
        for spec in specs:
            assert second.for_spec(spec).stats.cycles == (
                first.for_spec(spec).stats.cycles
            )

    def test_executed_job_is_encoded_once_and_stored_as_is(
        self, tmp_path, monkeypatch
    ):
        """The cache record's ``"result"`` is the worker's wire document:
        one ``to_dict`` per executed job, and the same bytes a
        decode-then-encode of that document gives."""
        import json

        from repro.hymm.base import RunResult
        from repro.runtime import executor as executor_mod

        worker_docs = []
        real_execute_job = executor_mod.execute_job

        def capturing_execute_job(spec, **kwargs):
            doc = real_execute_job(spec, **kwargs)
            worker_docs.append(json.loads(json.dumps(doc)))
            return doc

        encodes = []
        to_dict = RunResult.to_dict

        def counting_to_dict(self):
            encodes.append(self)
            return to_dict(self)

        monkeypatch.setattr(executor_mod, "execute_job", capturing_execute_job)
        monkeypatch.setattr(RunResult, "to_dict", counting_to_dict)
        spec = _spec(kind="hymm")
        sweep = SweepExecutor(n_jobs=1, cache=ResultCache(tmp_path)).run([spec])
        assert sweep.manifest.executed == 1
        assert len(encodes) == 1

        fp = spec.fingerprint()
        record = read_record(tmp_path / fp[:2] / fp[2:4] / f"{fp}.json")
        [doc] = worker_docs
        doc.pop("replay", None)
        # Outputs are stored as blob references; resolved back to the
        # wire form, the stored result is the worker's document.
        from repro.runtime.serialize import array_to_dict

        stored = record["result"]
        blobs = ResultCache(tmp_path).blobs
        stored["outputs"] = [
            array_to_dict(blobs.get(ref)) for ref in stored["outputs"]
        ]
        assert json.dumps(stored) == json.dumps(
            RunResult.from_dict(doc).to_dict()
        )

    def test_executed_serve_job_is_encoded_once(self, tmp_path, monkeypatch):
        """On the serve lane the reply is the worker's document too: one
        ``to_dict`` per executed submit, and ``include_result`` returns
        exactly the stored result."""
        from repro.hymm.base import RunResult
        from repro.serve.client import ServeClient
        from repro.serve.server import ServerThread

        encodes = []
        to_dict = RunResult.to_dict

        def counting_to_dict(self):
            encodes.append(self)
            return to_dict(self)

        monkeypatch.setattr(RunResult, "to_dict", counting_to_dict)
        spec = _spec(kind="hymm")
        cache = ResultCache(tmp_path)
        with ServerThread(cache=cache) as srv:
            with ServeClient(srv.host, srv.port) as client:
                reply = client.submit(spec.to_dict(), include_result=True)
        assert reply["source"] == "executed"
        assert len(encodes) == 1
        stored = cache.load(spec)
        served = RunResult.from_dict(reply["result"])
        assert served.stats.to_dict() == stored.stats.to_dict()
        for ours, theirs in zip(served.outputs, stored.outputs):
            assert ours.tobytes() == theirs.tobytes()

    def test_manifest_reports_cache_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = SweepExecutor(n_jobs=1, cache=cache).run([_spec()])
        assert sweep.manifest.cache_stats["stores"] == 1
        assert sweep.manifest.cache_stats["misses"] == 1

    def test_manifest_serialises(self, tmp_path):
        import json

        cache = ResultCache(tmp_path)
        sweep = SweepExecutor(n_jobs=1, cache=cache).run([_spec()])
        payload = json.dumps(sweep.manifest.to_dict())
        assert _spec().fingerprint() in payload

    def test_summary_mentions_counts(self, store):
        sweep = SweepExecutor(cache=store, n_jobs=1, runner=ok_runner).run([_spec()])
        text = sweep.manifest.summary()
        assert "1 job" in text and "1 simulated" in text


class TestManifestStatuses:
    def test_mixed_outcomes(self, tmp_path):
        cache = ResultCache(tmp_path)
        ok = _spec()
        SweepExecutor(n_jobs=1, cache=cache).run([ok])  # warm one entry
        sweep = SweepExecutor(n_jobs=1, cache=cache).run(
            [ok, _spec(kind="op")]
        )
        statuses = {r.status for r in sweep.manifest.records}
        assert statuses == {STATUS_CACHE_HIT, STATUS_DONE}


class TestTelemetry:
    def test_serial_records_rss(self, store):
        sweep = SweepExecutor(cache=store, n_jobs=1, runner=ok_runner).run([_spec()])
        record = sweep.manifest.records[0]
        assert record.max_rss_kb is not None
        assert record.max_rss_kb > 0
        assert record.timed_out is False

    def test_pool_records_worker_rss(self, store):
        sweep = SweepExecutor(cache=store, n_jobs=2, runner=ok_runner).run(
            [_spec(seed=i) for i in range(2)]
        )
        for record in sweep.manifest.records:
            assert record.max_rss_kb is not None
            assert record.max_rss_kb > 0

    def test_timeout_sets_timed_out_flag(self, store):
        sweep = SweepExecutor(
            cache=store, n_jobs=2, runner=slow_runner, timeout=0.3, retries=0
        ).run([_spec()])
        record = sweep.manifest.records[0]
        assert record.timed_out is True
        assert sweep.manifest.timeouts == 1

    def test_manifest_dict_carries_telemetry(self, store):
        sweep = SweepExecutor(cache=store, n_jobs=1, runner=ok_runner).run([_spec()])
        payload = sweep.manifest.to_dict()
        assert payload["timeouts"] == 0
        assert payload["retries"] == 0
        assert payload["peak_rss_kb"] == sweep.manifest.peak_rss_kb
        assert "summary" in payload
        assert payload["cache_hits"] == 0
        assert payload["cache_misses"] == 1
        job = payload["jobs"][0]
        assert job["max_rss_kb"] == sweep.manifest.records[0].max_rss_kb
        assert job["timed_out"] is False

    def test_retries_counted(self, store, tmp_path):
        runner = functools.partial(flaky_runner, str(tmp_path))
        sweep = SweepExecutor(cache=store, n_jobs=1, runner=runner, retries=1).run([_spec()])
        assert sweep.manifest.retries == 1
