"""Record-then-replay correctness: replayed runs are bit-identical.

The replay lane (:mod:`repro.sim.replay`) claims that restoring a
recorded post-phase state and merging the recorded stats delta is
indistinguishable from simulating the phase live.  These tests pin
that claim down for every accelerator kind and every partial-merge
mode: run live, run recording (must not perturb the result), run
replaying (must replay *every* phase -- asserted, not assumed -- and
reproduce the full ``RunResult`` bit-for-bit: stats dict, per-phase
snapshots and occupancy, and output matrices).

Also covered: config knobs in the signature chain (timing knobs and
HyMM's tiling knobs must miss), corrupt-record and damaged-output-blob
degradation to live simulation, per-layer replay (a layer is one record,
it replays whole or runs live, and a live layer after a replayed one
starts from the stored output), the no-replay-under-tracer contract and
the phase feed a replay still drives, and the signature chain's
sensitivity to model content and phase order.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.bench.workloads import make_model
from repro.hymm.config import HyMMConfig
from repro.obs.tracer import ChromeTracer, PhaseFeed
from repro.runtime.cache import BlobStore, TraceStore
from repro.runtime.execute import make_accelerator
from repro.sim.replay import (
    COMBINATION_REQUIRED_KEYS,
    TRACE_SCHEMA_VERSION,
    TraceSession,
    _hash_array,
    model_fingerprint,
)
from tests.store_records import edited_record, read_record

#: Small buffer so phases actually evict and spill while recording.
SMALL = {"dmb_bytes": 32 * 1024}

#: Every accelerator kind x merge mode the executor can build.  The
#: three OP merge modes reach all three partial-merge kernels; the
#: remaining kinds cover the rwp/hybrid/tiled/reorder dataflows.
ALL_POINTS = [
    ("hymm", {}),
    ("rwp", {}),
    ("cwp", {}),
    ("gcod", {}),
    ("op", {}),           # merge_mode="pe"
    ("op-deferred", {}),  # merge_mode="deferred"
    ("op-dmb", {}),       # merge_mode="dmb"
    ("op-tiled", {}),     # dmb merge inside the tiled bands
]


@pytest.fixture(scope="module")
def model():
    return make_model("cora", 0.25)


@pytest.fixture(scope="module")
def model2():
    """Two layers: the second one's combination reads the first one's
    output."""
    return make_model("cora", 0.25, n_layers=2)


def _run(model, kind, session=None, tracer=None, **overrides):
    if kind == "op-dmb":
        # Not an executor kind; built directly to cover the third
        # partial-merge kernel.
        from repro.baselines import OPAccelerator

        acc = OPAccelerator(merge_mode="dmb")
    else:
        acc = make_accelerator(kind)
    if overrides:
        acc.config = acc.config.with_overrides(**overrides)
    return acc.run_inference(model, tracer=tracer, replay_session=session)


def _assert_identical(a, b, context):
    assert a.stats.to_dict() == b.stats.to_dict(), f"{context}: stats"
    assert {k: v.to_dict() for k, v in a.phase_snapshots.items()} == {
        k: v.to_dict() for k, v in b.phase_snapshots.items()
    }, f"{context}: phase_snapshots"
    assert a.phase_occupancy == b.phase_occupancy, f"{context}: phase_occupancy"
    assert len(a.outputs) == len(b.outputs)
    for x, y in zip(a.outputs, b.outputs):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert (x == y).all(), f"{context}: outputs"


@pytest.mark.parametrize("kind,overrides", ALL_POINTS)
def test_record_then_replay_bit_identical(tmp_path, model, kind, overrides):
    ov = dict(SMALL, **overrides)
    live = _run(model, kind, **ov)
    store = TraceStore(tmp_path / "traces")

    recording = TraceSession(store)
    recorded = _run(model, kind, session=recording, **ov)
    assert recording.recorded and not recording.replayed
    _assert_identical(live, recorded, f"{kind} recording run")

    replaying = TraceSession(store)
    replayed = _run(model, kind, session=replaying, **ov)
    # Every phase must actually replay -- a silent fallback to live
    # simulation would pass the identity checks without testing replay.
    assert replaying.replayed == recording.recorded, kind
    assert not replaying.recorded
    _assert_identical(live, replayed, f"{kind} replay run")


def test_timing_knobs_miss(tmp_path, model):
    store = TraceStore(tmp_path / "traces")
    session = TraceSession(store)
    _run(model, "op", session=session, **SMALL)
    s = TraceSession(store)
    _run(model, "op", session=s, **dict(SMALL, dmb_bytes=16 * 1024))
    assert not s.replayed and s.recorded


def test_hymm_tiling_knobs_not_exempt(tmp_path, model):
    """HyMM *reads* the tiling knobs (region planning), so they must
    stay in its signature."""
    store = TraceStore(tmp_path / "traces")
    _run(model, "hymm", session=TraceSession(store), **SMALL)
    s = TraceSession(store)
    _run(model, "hymm", session=s, **dict(SMALL, threshold_fraction=0.5))
    assert not s.replayed


def test_corrupt_record_degrades_to_live(tmp_path, model):
    store = TraceStore(tmp_path / "traces")
    session = TraceSession(store)
    live = _run(model, "rwp", session=session, **SMALL)
    # Truncate every stored record.
    paths = list((tmp_path / "traces").glob("*.json"))
    assert paths
    for p in paths:
        p.write_text("{\"truncated", encoding="utf-8")
    s = TraceSession(store)
    result = _run(model, "rwp", session=s, **SMALL)
    assert not s.replayed and s.recorded  # evicted + re-recorded
    assert result.stats.to_dict() == live.stats.to_dict()
    # The re-recorded traces replay again.
    s2 = TraceSession(store)
    _run(model, "rwp", session=s2, **SMALL)
    assert s2.replayed == s.recorded


def _trace_blobs(root):
    return sorted((root / "blobs").glob("??/*.npy"))


def _trace_records(root):
    """``{phase: (path, record)}`` of every trace record under ``root``."""
    records = {}
    for path in root.glob("*.json"):
        record = read_record(path)
        records[record["phase"]] = (path, record)
    return records


def test_trace_records_name_their_output_blob(tmp_path, model2):
    """Each layer's one record names the layer's output exactly as the
    result holds it -- the same content-addressed blob a result record
    names -- and its combination part names none and keeps only what
    closing that phase reads.  Replay hands back the bit-identical
    arrays."""
    root = tmp_path / "traces"
    store = TraceStore(root)
    recording = TraceSession(store)
    live = _run(model2, "hymm", session=recording, **SMALL)
    records = _trace_records(root)
    assert sorted(records) == ["layer0.aggregation", "layer1.aggregation"]
    assert recording.recorded == [
        f"layer{layer}.{phase}"
        for layer in range(2) for phase in ("combination", "aggregation")
    ]
    result_blobs = BlobStore(tmp_path / "result-blobs")
    for layer, output in enumerate(live.outputs):
        _, record = records[f"layer{layer}.aggregation"]
        assert record["output"] == result_blobs.put(output)
        assert set(record["combination"]) == COMBINATION_REQUIRED_KEYS
    assert "data_b64" not in json.dumps([r for _, r in records.values()])
    assert len(_trace_blobs(root)) == len(live.outputs)
    replaying = TraceSession(store)
    _assert_identical(
        live, _run(model2, "hymm", session=replaying, **SMALL), "hymm replay"
    )
    assert replaying.replayed == recording.recorded


def test_unfinished_layer_writes_no_file(tmp_path, model):
    """A run that dies between a layer's two phases leaves nothing for
    that layer: the combination part is held until the aggregation
    record writes both, and a rerun records the layer whole."""
    root = tmp_path / "traces"
    store = TraceStore(root)
    acc = make_accelerator("rwp")
    acc.config = acc.config.with_overrides(**SMALL)

    class Killed(Exception):
        pass

    def killed(*args):
        raise Killed

    acc.run_aggregation = killed
    session = TraceSession(store)
    with pytest.raises(Killed):
        acc.run_inference(model, replay_session=session)
    assert not session.recorded
    assert not root.exists() or not list(root.iterdir())
    rerun = TraceSession(store)
    _run(model, "rwp", session=rerun, **SMALL)
    assert rerun.recorded == ["layer0.combination", "layer0.aggregation"]
    assert not rerun.replayed


def test_aggregation_without_combination_is_refused(tmp_path):
    session = TraceSession(TraceStore(tmp_path))
    with pytest.raises(RuntimeError):
        session.record("a" * 64, "layer0.aggregation", {"output": np.zeros(2)})
    assert not list(tmp_path.iterdir())


def test_phase_feed_rows_replay_as_live(tmp_path, model2):
    """A replayed run feeds a :class:`PhaseFeed` the live run's rows --
    phase names, end cycles and counters -- from the records alone."""

    def feed_rows(session):
        rows = []
        _run(model2, "hymm", session=session,
             tracer=PhaseFeed(lambda *row: rows.append(row)), **SMALL)
        return rows

    store = TraceStore(tmp_path / "traces")
    live = feed_rows(TraceSession(store))
    replaying = TraceSession(store)
    assert feed_rows(replaying) == live
    assert len(replaying.replayed) == 4 and not replaying.recorded
    assert [name for name, _, _ in live][:4] == [
        "layer0.combination", "layer0.aggregation",
        "layer1.combination", "layer1.aggregation",
    ]


@pytest.mark.parametrize("kind", ["hymm", "gcod"])
def test_live_layer_after_replayed_layer(tmp_path, model2, kind):
    """With layer 1's records gone, layer 0 replays and layer 1 runs
    live from layer 0's stored output, mapped back to the dataflow's
    own node order: the run is bit-identical to a live one."""
    live = _run(model2, kind, **SMALL)
    root = tmp_path / "traces"
    store = TraceStore(root)
    _run(model2, kind, session=TraceSession(store), **SMALL)
    for phase, (path, _) in _trace_records(root).items():
        if phase.startswith("layer1."):
            path.unlink()
    s = TraceSession(store)
    _assert_identical(live, _run(model2, kind, session=s, **SMALL), kind)
    assert s.replayed == ["layer0.combination", "layer0.aggregation"]
    assert s.recorded == ["layer1.combination", "layer1.aggregation"]


def test_combination_hit_alone_is_not_replayed(tmp_path, model2):
    """A layer whose record is gone is neither applied nor counted,
    though its combination's signature is still in the chain: the whole
    layer runs live and re-records, and the next layer still replays on
    top of it."""
    live = _run(model2, "rwp", **SMALL)
    root = tmp_path / "traces"
    store = TraceStore(root)
    _run(model2, "rwp", session=TraceSession(store), **SMALL)
    _trace_records(root)["layer0.aggregation"][0].unlink()
    s = TraceSession(store)
    _assert_identical(live, _run(model2, "rwp", session=s, **SMALL), "rwp")
    assert s.recorded == ["layer0.combination", "layer0.aggregation"]
    assert s.replayed == ["layer1.combination", "layer1.aggregation"]


@pytest.mark.parametrize("how", ["bit-flipped", "truncated", "deleted"])
def test_damaged_output_blob_simulates_live(tmp_path, model, how):
    """A trace whose output blob is damaged is a clean miss: the phase
    simulates live, the run is bit-identical, and the trace heals."""
    root = tmp_path / "traces"
    store = TraceStore(root)
    recording = TraceSession(store)
    live = _run(model, "rwp", session=recording, **SMALL)
    blobs = _trace_blobs(root)
    assert blobs
    for blob in blobs:
        if how == "deleted":
            blob.unlink()
            continue
        data = bytearray(blob.read_bytes())
        if how == "bit-flipped":
            data[len(data) // 2] ^= 0x10
        else:
            data = data[:-8]
        blob.write_bytes(bytes(data))
    s = TraceSession(store)
    result = _run(model, "rwp", session=s, **SMALL)
    assert not s.replayed and s.recorded == recording.recorded
    _assert_identical(live, result, f"{how} blob")
    s2 = TraceSession(store)
    _assert_identical(live, _run(model, "rwp", session=s2, **SMALL), "healed")
    assert s2.replayed == recording.recorded


def test_no_replay_under_tracer(tmp_path, model):
    store = TraceStore(tmp_path / "traces")
    _run(model, "rwp", session=TraceSession(store), **SMALL)
    s = TraceSession(store)
    tracer = ChromeTracer()
    traced = _run(model, "rwp", session=s, tracer=tracer, **SMALL)
    assert not s.replayed  # tracer needs the live simulation
    assert traced.stats.cycles > 0


def test_schema_bump_invalidates(tmp_path, model):
    """A record whose embedded schema does not match the code is a
    structural miss (second line of defence behind the chained hash)."""
    store = TraceStore(tmp_path / "traces")
    session = TraceSession(store)
    _run(model, "rwp", session=session, **SMALL)
    for p in (tmp_path / "traces").glob("*.json"):
        with edited_record(p) as rec:
            rec["trace_schema"] = TRACE_SCHEMA_VERSION + 1
    s = TraceSession(store)
    _run(model, "rwp", session=s, **SMALL)
    assert not s.replayed and s.recorded


def test_chain_requires_open():
    session = TraceSession(store=None)
    with pytest.raises(RuntimeError):
        session.next_signature("layer0.combination")


def test_chain_orders_phases(tmp_path, model):
    """Same phases in a different order produce different signatures:
    the chain commits to history, not to a set."""
    store = TraceStore(tmp_path / "traces")
    a = TraceSession(store)
    a.open("x", HyMMConfig(), model)
    b = TraceSession(store)
    b.open("x", HyMMConfig(), model)
    s1 = [a.next_signature("p"), a.next_signature("q")]
    s2 = [b.next_signature("q"), b.next_signature("p")]
    assert s1[0] != s2[0] and s1[1] != s2[1]
    assert len(set(s1 + s2)) == 4


@pytest.mark.parametrize("arr", [
    np.arange(7, dtype=np.int32),
    np.linspace(0, 1, 6, dtype=np.float32).reshape(2, 3),
    np.array([True, False, True]),
    np.zeros(0, dtype=np.int32),
    np.asfortranarray(np.arange(12, dtype=np.float32).reshape(3, 4)),
], ids=["int32", "float32", "bool", "empty", "fortran"])
def test_hash_array_digest_is_the_tobytes_digest(arr):
    # Hashing the buffer in place must keep every trace signature that
    # hashing a ``tobytes()`` copy produced.
    h = hashlib.sha256()
    _hash_array(h, arr)
    a = np.ascontiguousarray(arr)
    expected = hashlib.sha256(
        str(a.dtype).encode() + str(a.shape).encode() + a.tobytes()
    )
    assert h.hexdigest() == expected.hexdigest()


def test_model_fingerprint_sensitivity(model):
    fp = model_fingerprint(model)
    assert fp == model_fingerprint(model)  # deterministic
    other = make_model("cora", 0.2)
    assert fp != model_fingerprint(other)
    # A single weight flip changes the fingerprint.
    model.layers[0].weights[0, 0] += 1.0
    try:
        assert fp != model_fingerprint(model)
    finally:
        model.layers[0].weights[0, 0] -= 1.0
