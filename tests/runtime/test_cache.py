"""ResultCache: hit/miss, corruption recovery, schema invalidation."""

import json

import numpy as np
import pytest

from repro.bench.workloads import make_model
from repro.hymm.base import RunResult
from repro.runtime import (
    JobSpec,
    ResultCache,
    default_cache_dir,
    execute_spec,
)
from repro.runtime.cache import TraceStore


@pytest.fixture(scope="module")
def spec():
    return JobSpec(dataset="cora", kind="rwp", scale=0.05)


@pytest.fixture(scope="module")
def result(spec):
    return execute_spec(spec)


class TestDefaultLocation:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert default_cache_dir().name == "hymm-repro"


class TestHitMiss:
    def test_miss_then_hit(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path)
        assert cache.load(spec) is None
        path = cache.store(spec, result.to_dict())
        assert path.exists()
        loaded = cache.load(spec)
        assert loaded is not None
        assert loaded.stats.cycles == result.stats.cycles
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1, "corrupt": 0}

    def test_round_trip_bit_identical(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path)
        cache.store(spec, result.to_dict())
        loaded = cache.load(spec)
        for ours, theirs in zip(result.outputs, loaded.outputs):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)
        assert loaded.stats.to_dict() == result.stats.to_dict()
        assert loaded.config == result.config

    def test_distinct_specs_do_not_collide(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path)
        cache.store(spec, result.to_dict())
        other = JobSpec(dataset="cora", kind="rwp", scale=0.05, seed=1)
        assert cache.load(other) is None

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "a" / "b"
        ResultCache(target)
        assert target.is_dir()


class TestCorruptionRecovery:
    def test_truncated_record_is_evicted_miss(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path)
        path = cache.store(spec, result.to_dict())
        path.write_text(path.read_text()[: 40])  # simulate a torn write
        assert cache.load(spec) is None
        assert not path.exists()
        assert cache.corrupt == 1
        # The next store repairs the entry.
        cache.store(spec, result.to_dict())
        assert cache.load(spec) is not None

    def test_garbage_json_is_evicted(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path)
        path = cache.store(spec, result.to_dict())
        path.write_text('{"fingerprint": "x"}')  # wrong shape
        assert cache.load(spec) is None
        assert cache.corrupt == 1

    def test_result_schema_mismatch_is_a_miss(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path)
        path = cache.store(spec, result.to_dict())
        record = json.loads(path.read_text())
        record["result"]["schema_version"] = RunResult.SCHEMA_VERSION + 1
        path.write_text(json.dumps(record))
        assert cache.load(spec) is None
        assert not path.exists()


class TestMaintenance:
    def test_clear_and_size(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path)
        cache.store(spec, result.to_dict())
        assert cache.size() == 1
        assert cache.clear() == 1
        assert cache.size() == 0
        assert cache.load(spec) is None


class TestRunResultSchema:
    def test_from_dict_rejects_other_versions(self, result):
        data = result.to_dict()
        data["schema_version"] = 999
        with pytest.raises(ValueError):
            RunResult.from_dict(data)

    def test_extra_sanitised_idempotently(self, result):
        first = result.to_dict()
        assert RunResult.from_dict(first).to_dict() == first

    def test_hymm_extra_records_dropped_objects(self):
        spec = JobSpec(dataset="cora", kind="hymm", scale=0.05)
        data = execute_spec(spec).to_dict()
        assert "plan" in data["extra"]["_dropped"]


class TestShardedLayout:
    def test_store_lands_in_hash_prefix_shard(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path)
        path = cache.store(spec, result.to_dict())
        fp = spec.fingerprint()
        assert path == tmp_path / fp[:2] / fp[2:4] / f"{fp}.json"
        assert cache.load(spec) is not None

    def test_corruption_recovery_in_shard(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path)
        path = cache.store(spec, result.to_dict())
        path.write_text(path.read_text()[:40])
        assert cache.load(spec) is None
        assert not path.exists()
        cache.store(spec, result.to_dict())
        assert cache.load(spec) is not None

    def test_trace_store_is_flat_in_the_job_trace_dir(self, tmp_path, spec):
        store = TraceStore(spec.trace_dir(str(tmp_path)))
        sig = "ab" * 32
        path = store.store_trace(sig, {"phase": "p0"})
        fp = spec.fingerprint()
        assert path == tmp_path / fp[:2] / fp / f"{sig}.json"
        assert store.load_trace(sig) == {"phase": "p0"}

    def test_hit_rate_property(self, tmp_path, spec, result):
        cache = ResultCache(tmp_path)
        assert cache.hit_rate == 0.0
        cache.load(spec)
        cache.store(spec, result.to_dict())
        cache.load(spec)
        assert cache.hit_rate == 0.5


class TestConcurrentWriters:
    def test_racing_writers_same_key_never_tear(self, tmp_path, spec, result):
        """Many writers storing the same record concurrently: every
        interleaving must leave one valid JSON record (last writer
        wins; os.replace is atomic) and no temp-file litter."""
        import threading

        caches = [ResultCache(tmp_path) for _ in range(4)]
        errors = []
        start = threading.Barrier(len(caches))

        def hammer(cache):
            try:
                start.wait(timeout=10)
                for _ in range(25):
                    cache.store(spec, result.to_dict())
                    loaded = cache.load(spec)
                    assert loaded is not None, "reader saw a torn record"
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(c,)) for c in caches
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        final = ResultCache(tmp_path)
        assert final.load(spec) is not None
        assert final.size() == 1
        leftovers = [
            p for p in tmp_path.rglob("*") if p.is_file()
            and not p.name.endswith(".json")
        ]
        assert leftovers == []
