"""Replay as the production execution path.

``SweepExecutor`` / ``execute_job`` running against a result cache
record phase traces on first execution and replay them on repeats,
with the manifest carrying honest ``replay_hits`` / ``replay_misses``
phase counters.  A cached job reaches replay only after its result
record is gone (``ResultCache.clear`` deletes records and keeps the
traces), which is the scenario these tests build.  Replay is
bit-identical to live simulation by contract, so these tests pin three
things: the counters tell the truth, repeated runs produce identical
serialised results, and a corrupt or stale trace record degrades to a
live (still identical) run instead of failing or lying.
"""

from __future__ import annotations

import pytest

from repro.hymm.config import HyMMConfig
from repro.runtime import (
    JobSpec,
    ResultCache,
    SweepExecutor,
    execute_job,
    execute_spec,
)
from repro.runtime.cache import BLOB_SUFFIX, TraceStore
from repro.sim.replay import (
    COMBINATION_REQUIRED_KEYS,
    RECORD_REQUIRED_KEYS,
    TraceSession,
)
from tests.store_records import edited_record, read_record


def _spec(kind="op", **kw):
    base = dict(dataset="cora", kind=kind, scale=0.05)
    base.update(kw)
    return JobSpec(**base)


def _trace_files(cache_dir):
    return [p for p in (cache_dir / "traces").rglob("*.json")
            if not p.name.startswith(".")]


def _canon(doc):
    """Serialised result minus the host-side fields (wall-clock and the
    replay side-channel) -- everything left must be bit-identical
    between live and replayed runs."""
    return {k: v for k, v in doc.items() if k not in ("wall_seconds", "replay")}


class TestExecutorRecordThenReplay:
    def test_second_sweep_replays_bit_identical(self, tmp_path):
        specs = [_spec(), _spec(kind="rwp")]
        cache = ResultCache(tmp_path)
        first = SweepExecutor(n_jobs=1, cache=cache).run(specs)
        assert first.manifest.replay_misses > 0
        assert first.manifest.replay_hits == 0
        assert cache.clear() == len(specs)
        second = SweepExecutor(n_jobs=1, cache=cache).run(specs)
        assert second.manifest.executed == len(specs)
        # Every phase recorded by the first sweep replays in the second.
        assert second.manifest.replay_hits == first.manifest.replay_misses
        assert second.manifest.replay_misses == 0
        for spec in specs:
            assert _canon(second.for_spec(spec).to_dict()) == _canon(
                first.for_spec(spec).to_dict()
            )

    def test_manifest_serialises_replay_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        sweep = SweepExecutor(n_jobs=1, cache=cache).run([_spec()])
        payload = sweep.manifest.to_dict()
        assert payload["replay_misses"] == sweep.manifest.replay_misses > 0
        assert payload["replay_hits"] == 0
        cache.clear()
        assert "replay" in SweepExecutor(
            n_jobs=1, cache=cache
        ).run([_spec()]).manifest.summary()

    def test_traces_colocate_with_result_cache(self, tmp_path):
        # ``--cache-dir /x`` must keep traces next to the records it
        # isolates, not leak them into the default cache directory.
        cache = ResultCache(tmp_path / "c")
        sweep = SweepExecutor(n_jobs=1, cache=cache).run([_spec()])
        assert sweep.manifest.replay_misses > 0
        assert _trace_files(tmp_path / "c")
        assert not (tmp_path / "hymm-cache").exists()

    def test_replay_disabled_counts_nothing(self, tmp_path):
        # A fresh store holds no traces: each sweep over its own store
        # simulates every phase live and replays nothing.
        for name in ("a", "b"):
            cache = ResultCache(tmp_path / name)
            sweep = SweepExecutor(n_jobs=1, cache=cache).run([_spec()])
            assert sweep.manifest.replay_hits == 0
            assert sweep.manifest.replay_misses > 0

    def test_execute_job_side_channel(self, tmp_path):
        first = execute_job(_spec(), cache_dir=str(tmp_path))
        assert first["replay"]["recorded"] > 0
        assert first["replay"]["replayed"] == 0
        second = execute_job(_spec(), cache_dir=str(tmp_path))
        assert second["replay"]["replayed"] == first["replay"]["recorded"]
        assert second["replay"]["recorded"] == 0
        assert _canon(first) == _canon(second)

    def test_traces_are_per_job(self, tmp_path):
        """Jobs that differ in any config field keep separate traces,
        even a field with no effect on simulated cycles."""
        base = _spec(kind="op", config=HyMMConfig(unified_buffer=False))
        variant = base.with_overrides(clock_ghz=2.0)
        recorded = execute_job(base, cache_dir=str(tmp_path))["replay"]
        first = execute_job(variant, cache_dir=str(tmp_path))["replay"]
        assert first == {"replayed": 0, "recorded": recorded["recorded"]}
        again = execute_job(variant, cache_dir=str(tmp_path))["replay"]
        assert again == {"replayed": recorded["recorded"], "recorded": 0}

    def test_live_run_has_no_side_channel(self, tmp_path, monkeypatch):
        """``execute_spec`` alone (``repro.obs trace``) simulates live:
        no replay accounting, and nothing is written."""
        monkeypatch.chdir(tmp_path)
        doc = execute_spec(_spec()).to_dict()
        assert "replay" not in doc
        assert _canon(doc) == _canon(
            execute_job(_spec(), cache_dir=str(tmp_path / "c"))
        )
        assert [p.name for p in tmp_path.iterdir()] == ["c"]


class TestStoreHoldsOnlyResultOutputs:
    def test_cold_cache_blobs_are_the_result_outputs(self, tmp_path):
        """Phase traces add no blob of their own: in a cold cache the
        blob files are exactly the outputs the result records name."""
        n_layers = 2
        specs = [_spec(kind=kind, n_layers=n_layers)
                 for kind in ("rwp", "gcod", "hymm")]
        SweepExecutor(n_jobs=1, cache=ResultCache(tmp_path)).run(specs)
        records = list(tmp_path.glob("??/??/*.json"))
        assert len(records) == len(specs)
        assert len(_trace_files(tmp_path)) == n_layers * len(specs)
        named = {
            ref["blob"]
            for path in records
            for ref in read_record(path)["result"]["outputs"]
        }
        assert named == {
            p.stem for p in (tmp_path / "blobs").glob(f"??/*{BLOB_SUFFIX}")
        }

    def test_one_trace_file_per_layer(self, tmp_path):
        """A cold 2-layer job writes one trace record per layer, and no
        combination part stores simulator state."""
        result = execute_job(_spec(n_layers=2), cache_dir=str(tmp_path))
        assert result["replay"]["recorded"] == 4
        files = _trace_files(tmp_path)
        assert len(files) == 2
        for path in files:
            record = read_record(path)
            assert record["phase"].endswith(".aggregation")
            assert set(record["combination"]) == COMBINATION_REQUIRED_KEYS
            assert "buffer" in record and "buffer" not in record["combination"]


class TestFallback:
    def test_corrupt_traces_fall_back_live(self, tmp_path):
        baseline = execute_job(_spec(), cache_dir=str(tmp_path))
        files = _trace_files(tmp_path)
        assert files
        for path in files:
            path.write_text("{ not json", encoding="utf-8")
        rerun = execute_job(_spec(), cache_dir=str(tmp_path))
        # Every phase missed (the store evicted the garbage) and was
        # re-recorded live; the result is still bit-identical.
        assert rerun["replay"]["replayed"] == 0
        assert rerun["replay"]["recorded"] == baseline["replay"]["recorded"]
        assert _canon(rerun) == _canon(baseline)
        # The re-recorded tree is healthy again.
        healed = execute_job(_spec(), cache_dir=str(tmp_path))
        assert healed["replay"]["replayed"] > 0

    @pytest.mark.parametrize("missing", sorted(RECORD_REQUIRED_KEYS) + [
        f"combination.{key}" for key in sorted(COMBINATION_REQUIRED_KEYS)
    ])
    def test_stale_record_missing_key_is_miss(self, tmp_path, missing):
        baseline = execute_job(_spec(), cache_dir=str(tmp_path))
        outer, _, inner = missing.rpartition(".")
        for path in _trace_files(tmp_path):
            with edited_record(path) as record:
                (record[outer] if outer else record).pop(inner, None)
        rerun = execute_job(_spec(), cache_dir=str(tmp_path))
        assert rerun["replay"]["replayed"] == 0
        assert rerun["replay"]["recorded"] == baseline["replay"]["recorded"]
        assert _canon(rerun) == _canon(baseline)

    def test_session_lookup_validates_schema_and_shape(self, tmp_path):
        """Unit-level: ``lookup`` rejects wrong-schema and incomplete
        records, a combination part included, and ``lookup_layer``
        tallies both phases of a layer whose record applies."""
        import numpy as np

        from repro.sim.replay import TRACE_SCHEMA_VERSION

        store = TraceStore(tmp_path)
        session = TraceSession(store)
        comb = dict.fromkeys(COMBINATION_REQUIRED_KEYS, 0)
        agg = dict.fromkeys(RECORD_REQUIRED_KEYS - {"combination"}, 0)
        agg["output"] = np.zeros((2, 2))
        session.record("a" * 64, "comb0", comb)
        assert session.recorded == []
        session.record("b" * 64, "agg0", agg)
        assert session.recorded == ["comb0", "agg0"]
        assert session.lookup("a" * 64, "comb0") is None  # never written
        assert session.lookup("b" * 64, "agg0") is not None
        assert session.replayed == []
        assert session.lookup_layer("comb0", "b" * 64, "agg0")
        assert session.replayed == ["comb0", "agg0"]

        layer = store.load_trace("b" * 64)
        stale = dict(layer, trace_schema=TRACE_SCHEMA_VERSION + 1)
        store.store_trace("c" * 64, stale)
        assert session.lookup("c" * 64, "agg1") is None
        assert session.lookup_layer("comb1", "c" * 64, "agg1") is None

        # A combination part that is not a mapping, or lacks a key,
        # cannot close its phase.
        for part in (0, dict.fromkeys(COMBINATION_REQUIRED_KEYS - {"drain"}, 0)):
            store.store_trace("d" * 64, dict(layer, combination=part))
            assert session.lookup_layer("comb2", "d" * 64, "agg2") is None
        assert session.replayed == ["comb0", "agg0"]
