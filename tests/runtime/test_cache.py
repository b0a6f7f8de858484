"""ResultCache: hit/miss, corruption recovery, schema invalidation, and
the content-addressed output blobs result and trace records share."""

import hashlib
import io
import json
import pathlib
import tempfile
import zlib

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
from repro.runtime.cache import (
    _NPY_KINDS,
    BLOB_SUFFIX,
    BlobStore,
    job_trace_store,
    write_record,
)
from repro.runtime.serialize import array_from_dict
from tests.store_records import edited_record, read_record


#: The cache's three readers: the summary a serve hit answers, its
#: blobs checked but not inflated; the wire document a reply with the
#: result sends, built from the stored bytes; and the ``RunResult``
#: decoded from it.  Every corruption test below runs against all
#: three, each on a store of its own.
READERS = ("probe", "load_document", "load")


def _outputs(cache, read):
    """The output arrays of what a reader of ``cache`` returned."""
    if isinstance(read, dict):
        return [
            cache.blobs.get(a) if "blob" in a else array_from_dict(a)
            for a in read["outputs"]
        ]
    return read.outputs


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
        for reader in READERS:
            cache = ResultCache(tmp_path / reader)
            path = cache.store(spec, result.to_dict())
            path.write_bytes(path.read_bytes()[: 40])  # simulate a torn write
            assert getattr(cache, reader)(spec) is None
            assert not path.exists()
            assert cache.corrupt == 1
            # The next store repairs the entry.
            cache.store(spec, result.to_dict())
            assert getattr(cache, reader)(spec) is not None

    def test_garbage_json_is_evicted(self, tmp_path, spec, result):
        for reader in READERS:
            cache = ResultCache(tmp_path / reader)
            path = cache.store(spec, result.to_dict())
            write_record(path, {"fingerprint": "x"})  # wrong shape
            assert getattr(cache, reader)(spec) is None
            assert not path.exists()
            assert cache.corrupt == 1

    @pytest.mark.parametrize("how", ["plain-json", "truncated-zlib"])
    def test_undecodable_record_is_evicted_not_raised(
        self, tmp_path, spec, result, how
    ):
        """A record that is not a complete zlib stream -- plain JSON from
        an older layout, or a torn compressed write -- is a counted,
        evicted miss; the decompression error never reaches the caller."""
        for reader in READERS:
            cache = ResultCache(tmp_path / reader)
            path = cache.store(spec, result.to_dict())
            if how == "plain-json":
                path.write_text(json.dumps(read_record(path)), encoding="utf-8")
            else:
                path.write_bytes(path.read_bytes()[:-16])
            assert getattr(cache, reader)(spec) is None
            assert not path.exists()
            assert cache.stats() == {"hits": 0, "misses": 1, "stores": 1, "corrupt": 1}
            cache.store(spec, result.to_dict())
            assert getattr(cache, reader)(spec) is not None

    def test_result_schema_mismatch_is_a_miss(self, tmp_path, spec, result):
        for reader in READERS:
            cache = ResultCache(tmp_path / reader)
            path = cache.store(spec, result.to_dict())
            with edited_record(path) as record:
                record["result"]["schema_version"] = RunResult.SCHEMA_VERSION + 1
            assert getattr(cache, reader)(spec) is None
            assert not path.exists()
            assert cache.corrupt == 1


class TestDocumentReader:
    @pytest.mark.parametrize(
        "kind", ["hymm", "rwp", "op", "op-deferred", "op-tiled", "gcod", "cwp"]
    )
    def test_document_is_the_decoded_result_re_encoded(self, tmp_path, kind):
        """The wire document built from the stored bytes is, byte for
        byte, what decoding the result and encoding it again gives."""
        from repro.runtime import SweepExecutor

        spec = JobSpec("cora", kind, 0.05, n_layers=2)
        cache = ResultCache(tmp_path)
        assert SweepExecutor(cache=cache).run([spec]).manifest.executed == 1
        doc = cache.load_document(spec)
        assert len(doc["outputs"]) == 2
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            cache.load(spec).to_dict(), sort_keys=True
        )
        assert cache.stats()["hits"] == 2

    def test_probe_checks_blobs_without_inflating_them(
        self, tmp_path, spec, result, monkeypatch
    ):
        """The summary probe is the wire document with each output left
        as its blob reference: every other field is what
        ``load_document`` returns, and no blob is inflated."""
        cache = ResultCache(tmp_path)
        path = cache.store(spec, result.to_dict())
        full = cache.load_document(spec)

        def inflate(self, ref):
            raise AssertionError("the probe inflated a blob")

        monkeypatch.setattr(BlobStore, "read", inflate)
        summary = cache.probe(spec)
        assert summary["outputs"] == read_record(path)["result"]["outputs"]
        assert {k: v for k, v in summary.items() if k != "outputs"} == {
            k: v for k, v in full.items() if k != "outputs"
        }
        assert cache.stats() == {"hits": 2, "misses": 0, "stores": 1, "corrupt": 0}

    def test_blob_bytes_read_without_decoding(self, tmp_path):
        store = BlobStore(tmp_path)
        array = np.arange(12, dtype=np.int32).reshape(3, 4)
        ref = store.put(array)
        assert bytes(store.read(ref)) == array.astype("<i4").tobytes()
        assert store.get(ref).flags.writeable is False


def _set_stats(key, value, where="stats"):
    """A fault setting ``key`` of the result's stats (or of the phase
    snapshot ``where``) to ``value``."""
    def plant(doc):
        stats = doc[where] if where == "stats" else doc["phase_snapshots"][where]
        stats[key] = value
    return plant


#: Faults in a stored result that a field check catches.  The stats
#: cases hold every counter to ``int`` (a ``bool`` is not one), every
#: per-tag counter to a dict of ``str`` -> ``int``, and every timeline
#: to runs ``[x, y, count]`` with ``count >= 1``.
FIELD_FAULTS = {
    "config": lambda doc: doc["config"].update(engine="warp-drive"),
    "stats": lambda doc: doc["stats"].pop("busy_cycles"),
    "phase-snapshot": lambda doc: doc["phase_snapshots"]["layer0.aggregation"].pop("cycles"),
    **{
        f"cycles-{name}": _set_stats("cycles", value)
        for name, value in [
            ("str", "7"), ("float", 7.5), ("null", None), ("list", [1]), ("bool", True),
        ]
    },
    "snapshot-cycles-str": _set_stats("cycles", "7", "layer0.aggregation"),
    **{
        f"tags-{name}": _set_stats("dram_read_bytes", value)
        for name, value in [
            ("list", [["A", 1]]), ("float", {"A": 1.5}), ("bool", {"A": True}),
            ("null", {"A": None}),
        ]
    },
    **{
        f"run-{name}": _set_stats("partial_timeline", value, where)
        for where in ("stats", "layer0.aggregation")
        for name, value in [
            (f"count-0-{where}", [[0, 64, 0]]),
            (f"float-{where}", [[0, 64.5, 1]]),
            (f"arity-{where}", [[0, 64, 1, 1]]),
            (f"pairs-{where}", [[0, 64], [64, 64]]),
            (f"not-a-list-{where}", {"0": 64}),
        ]
    },
}


class TestFieldChecks:
    @pytest.mark.parametrize("damage", sorted(FIELD_FAULTS))
    def test_record_failing_a_field_check_is_corrupt(
        self, tmp_path, spec, result, damage
    ):
        """Every reader applies ``HyMMConfig.from_dict`` and the stats
        checks (``SimStats.from_dict`` and the timeline's runs) to the
        config, the stats and every phase snapshot: a record failing
        one is evicted, never served."""
        for reader in READERS:
            cache = ResultCache(tmp_path / reader)
            path = cache.store(spec, result.to_dict())
            with edited_record(path) as record:
                FIELD_FAULTS[damage](record["result"])
            assert getattr(cache, reader)(spec) is None
            assert not path.exists()
            assert cache.corrupt == 1


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
        for reader in READERS:
            cache = ResultCache(tmp_path / reader)
            path = cache.store(spec, result.to_dict())
            path.write_bytes(path.read_bytes()[:40])
            assert getattr(cache, reader)(spec) is None
            assert not path.exists()
            assert cache.corrupt == 1
            cache.store(spec, result.to_dict())
            assert getattr(cache, reader)(spec) is not None

    def test_trace_store_is_flat_in_the_job_trace_dir(self, tmp_path, spec):
        store = job_trace_store(tmp_path, spec)
        sig = "ab" * 32
        path = store.store_trace(sig, {"phase": "p0"})
        fp = spec.fingerprint()
        assert path == tmp_path / "traces" / fp[:2] / fp / f"{sig}.json"
        assert store.load_trace(sig) == {"phase": "p0"}
        assert store.blobs.root == tmp_path / "blobs"

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
        # Every file is a published record or output blob: no temp-file
        # litter (``.tmp-*``) and nothing else.
        blob_dir = tmp_path / "blobs"
        leftovers = [
            p for p in tmp_path.rglob("*") if p.is_file() and (
                p.name.startswith(".tmp-")
                or not (p.suffix == ".json"
                        or (p.suffix == BLOB_SUFFIX and p.parent.parent == blob_dir))
            )
        ]
        assert leftovers == []


#: Every dtype of every array kind a blob may hold (``_NPY_KINDS``).
BLOB_DTYPES = (
    "bool", "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32",
    "uint64", "float16", "float32", "float64", "complex64", "complex128",
)


def _damage(path, how):
    """Bit-flip, truncate, delete or overwrite one blob file; the
    overwrite is a valid blob file of another array."""
    if how == "deleted":
        path.unlink()
        return
    data = bytearray(path.read_bytes())
    if how == "bit-flipped":
        data[-1] ^= 0x01
    elif how == "truncated":
        data = data[: len(data) // 2]
    else:  # wrong-array
        with tempfile.TemporaryDirectory() as other:
            BlobStore(other).put(np.arange(6, dtype=np.float32).reshape(2, 3))
            [blob] = pathlib.Path(other).rglob(f"*{BLOB_SUFFIX}")
            data = blob.read_bytes()
    path.write_bytes(bytes(data))


def _blob_files(root):
    return sorted((root / "blobs").glob(f"??/*{BLOB_SUFFIX}"))


def _stored_json(root):
    return list(root.rglob("*.json"))


def _blob_names(doc):
    """Every blob a stored JSON document names, at any depth."""
    if isinstance(doc, dict):
        names = {doc["blob"]} if "blob" in doc else set()
        return names.union(*(_blob_names(v) for v in doc.values()))
    if isinstance(doc, list):
        return set().union(*(_blob_names(v) for v in doc))
    return set()


class TestOutputBlobs:
    def test_record_names_its_outputs_by_content_hash(
        self, tmp_path, spec, result
    ):
        cache = ResultCache(tmp_path)
        record = read_record(cache.store(spec, result.to_dict()))
        refs = record["result"]["outputs"]
        assert len(refs) == len(result.outputs)
        for ref, array in zip(refs, result.outputs):
            assert set(ref) == {"blob", "dtype", "shape"}
            assert ref["dtype"] == array.dtype.name
            assert ref["shape"] == list(array.shape)
            path = tmp_path / "blobs" / ref["blob"][:2] / f"{ref['blob']}{BLOB_SUFFIX}"
            data = path.read_bytes()
            assert hashlib.sha256(data).hexdigest() == ref["blob"]
            # The file is one zlib stream of the .npy header and the
            # top byte of every float, then the lower byte planes raw.
            inflate = zlib.decompressobj()
            head = inflate.decompress(data)
            assert inflate.eof and array.dtype.itemsize == 4
            low = np.frombuffer(inflate.unused_data, np.uint8).reshape(3, -1)
            top = np.frombuffer(head, np.uint8)[len(head) - array.size:]
            planes = np.vstack([low, top])
            npy = head[:len(head) - array.size] + planes.T.tobytes()
            assert np.array_equal(np.load(io.BytesIO(npy)), array)

    def test_store_leaves_the_wire_document_inline(self, tmp_path, spec, result):
        doc = result.to_dict()
        before = json.dumps(doc)
        ResultCache(tmp_path).store(spec, doc)
        assert json.dumps(doc) == before

    @pytest.mark.parametrize(
        "how", ["bit-flipped", "truncated", "deleted", "wrong-array"]
    )
    def test_damaged_blob_evicts_the_record(self, tmp_path, spec, result, how):
        for reader in READERS:
            root = tmp_path / reader
            cache = ResultCache(root)
            path = cache.store(spec, result.to_dict())
            [blob, *_] = _blob_files(root)
            _damage(blob, how)
            assert getattr(cache, reader)(spec) is None
            assert not path.exists()
            assert cache.corrupt == 1
            # The damaged blob is gone too, so the next store rewrites
            # it and the entry heals.
            assert not blob.exists()
            cache.store(spec, result.to_dict())
            loaded = getattr(cache, reader)(spec)
            assert loaded is not None
            for ours, theirs in zip(result.outputs, _outputs(cache, loaded)):
                assert np.array_equal(ours, theirs)

    def test_malformed_reference_is_corrupt_and_touches_no_file(
        self, tmp_path, spec, result
    ):
        for reader in READERS:
            root = tmp_path / reader
            cache = ResultCache(root)
            path = cache.store(spec, result.to_dict())
            bait = root / f"bait{BLOB_SUFFIX}"
            bait.write_bytes(b"not a blob")
            with edited_record(path) as record:
                record["result"]["outputs"][0]["blob"] = "../bait"
            assert getattr(cache, reader)(spec) is None
            assert not path.exists()
            assert cache.corrupt == 1
            assert bait.exists()

    @pytest.mark.parametrize("field,value", [("dtype", "int64"), ("shape", [1, 2])])
    def test_blob_that_does_not_match_its_reference_is_corrupt(
        self, tmp_path, spec, result, field, value
    ):
        """An intact blob whose header disagrees with the record's
        reference is never served as the referenced array."""
        for reader in READERS:
            cache = ResultCache(tmp_path / reader)
            path = cache.store(spec, result.to_dict())
            with edited_record(path) as record:
                record["result"]["outputs"][0][field] = value
            assert getattr(cache, reader)(spec) is None
            assert not path.exists()
            assert cache.corrupt == 1

    def test_racing_blob_writers_never_tear(self, tmp_path):
        """Writers racing to publish the same blob, with readers
        re-hashing it in between: every read sees the whole array."""
        import threading

        array = np.arange(64 * 1024, dtype=np.float64).reshape(256, 256)
        stores = [BlobStore(tmp_path / "blobs") for _ in range(4)]
        errors = []
        start = threading.Barrier(len(stores))

        def hammer(store):
            try:
                start.wait(timeout=10)
                for _ in range(25):
                    ref = store.put(array)
                    assert np.array_equal(store.get(ref), array)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in stores]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        files = [p for p in (tmp_path / "blobs").rglob("*") if p.is_file()]
        assert len(files) == 1 and files[0].suffix == BLOB_SUFFIX

    def test_round_trip_keeps_dtype_shape_and_bits(self, tmp_path):
        store = BlobStore(tmp_path)
        arrays = [
            np.array([[0.1, -0.0], [np.inf, np.nan]]),
            np.arange(6, dtype=np.float32).reshape(3, 2),
            np.asfortranarray(np.arange(12, dtype=np.int64).reshape(3, 4)),
            np.zeros((0, 5)),
        ]
        for array in arrays:
            back = store.get(store.put(array))
            assert back.dtype == array.dtype and back.shape == array.shape
            assert back.tobytes() == np.ascontiguousarray(array).tobytes()

    @pytest.mark.parametrize("dtype", BLOB_DTYPES)
    @pytest.mark.parametrize("shape", [(3, 4), (0, 5), ()])
    def test_compressed_round_trip_every_kind(self, tmp_path, dtype, shape):
        """Every array kind a blob may hold, empty and 0-d included,
        comes back bit-identical through its compressed file, and all
        three readers accept it.  The items are random bytes (bools
        random 0/1), so every byte plane differs from every other and
        a plane put back in the wrong place shows."""
        store = BlobStore(tmp_path)
        size = int(np.prod(shape))
        rng = np.random.default_rng(0)
        if dtype == "bool":
            array = rng.integers(0, 2, size).astype(bool).reshape(shape)
        else:
            nbytes = size * np.dtype(dtype).itemsize
            array = rng.integers(0, 256, nbytes, dtype=np.uint8).view(dtype).reshape(shape)
        ref = store.put(array)
        [path] = list(tmp_path.rglob(f"*{BLOB_SUFFIX}"))
        assert not path.read_bytes().startswith(b"\x93NUMPY")
        store.check(ref)
        assert bytes(store.read(ref)) == array.astype(array.dtype.newbyteorder("<")).tobytes()
        back = store.get(ref)
        assert back.dtype == array.dtype and back.shape == array.shape
        assert back.tobytes() == array.tobytes()

    def test_header_check_holds_no_copy_of_the_file(self, tmp_path):
        """A summary hit's blob check inflates the ``.npy`` header from
        bounded slices of the file: its traced peak stays far below the
        file, however long the data after the header is (handing the
        decompressor the whole file and re-feeding its unconsumed tail
        peaked at about 2.4x the file)."""
        import tracemalloc

        from repro.runtime.cache import _blob_header

        array = np.random.default_rng(0).standard_normal(100_000).astype(np.float32)
        store = BlobStore(tmp_path)
        data = store._path(store.put(array)["blob"]).read_bytes()
        assert len(data) > 300_000
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert _blob_header(data) == ("float32", [100_000])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # zlib's 32 KiB window and state dominate what is left.
        assert peak < 96 * 1024

    def test_round_trip_covers_every_npy_kind(self):
        assert {np.dtype(name).kind for name in BLOB_DTYPES} == set(_NPY_KINDS)

    def test_timing_knob_variants_share_output_blobs(self, tmp_path):
        """Two points that differ only in buffer size compute the same
        product: their records name the same blobs, stored once."""
        from repro.runtime import SweepExecutor

        small = JobSpec("cora", "rwp", 0.05).with_overrides(dmb_bytes=32 * 1024)
        large = JobSpec("cora", "rwp", 0.05).with_overrides(dmb_bytes=256 * 1024)
        cache = ResultCache(tmp_path)
        sweep = SweepExecutor(cache=cache).run([small, large])
        assert sweep.manifest.executed == 2
        assert (sweep.for_spec(small).stats.cycles
                != sweep.for_spec(large).stats.cycles)

        def refs(spec):
            fp = spec.fingerprint()
            path = tmp_path / fp[:2] / fp[2:4] / f"{fp}.json"
            return read_record(path)["result"]["outputs"]

        shared = refs(small)
        assert shared == refs(large)
        assert {r["blob"] for r in shared} <= {
            p.stem for p in _blob_files(tmp_path)
        }
        # The phase traces share the cache's blob directory too: no
        # other directory holds a blob.
        assert all(
            p.parent.parent == tmp_path / "blobs"
            for p in tmp_path.rglob(f"*{BLOB_SUFFIX}")
        )

    def test_every_dataflow_shares_the_output_blobs(self, tmp_path):
        """The seven dataflows compute each layer's product with one
        arithmetic rule: a 2-layer sweep of all seven on this workload
        stores two blobs, and every result and trace record names only
        them."""
        from repro.bench.runner import ALL_ACCELERATORS
        from repro.runtime import SweepExecutor

        specs = [JobSpec("cora", kind, 0.3, n_layers=2) for kind in ALL_ACCELERATORS]
        assert SweepExecutor(cache=ResultCache(tmp_path)).run(specs).manifest.executed == 7
        blobs = {p.stem for p in _blob_files(tmp_path)}
        assert len(blobs) == 2
        records = _stored_json(tmp_path)
        traces = [p for p in records if (tmp_path / "traces") in p.parents]
        assert traces and len(records) - len(traces) == len(specs)
        for path in records:
            named = _blob_names(read_record(path))
            assert named and named <= blobs, path

    def test_no_cache_writes_nothing(self, tmp_path, spec, result):
        """A sweep writes nothing outside its own store: no result,
        trace or blob reaches the default cache directory."""
        from repro.runtime import SweepExecutor

        store = tmp_path / "store"
        sweep = SweepExecutor(cache=ResultCache(store)).run([spec])
        assert sweep.manifest.executed == 1
        assert sweep.manifest.replay_hits == 0
        assert sweep.manifest.replay_misses > 0
        for ours, theirs in zip(result.outputs, sweep.for_spec(spec).outputs):
            assert np.array_equal(ours, theirs)
        assert sorted(tmp_path.iterdir()) == [store]

    def test_no_record_or_trace_holds_inline_arrays(self, tmp_path):
        from repro.runtime import SweepExecutor

        specs = [JobSpec("cora", kind, 0.05, n_layers=2)
                 for kind in ("rwp", "hymm")]
        cache = ResultCache(tmp_path)
        SweepExecutor(cache=cache).run(specs)
        traces = list((tmp_path / "traces").rglob("*.json"))
        assert traces and cache.size() == 2
        for path in _stored_json(tmp_path):
            assert "data_b64" not in json.dumps(read_record(path)), path
