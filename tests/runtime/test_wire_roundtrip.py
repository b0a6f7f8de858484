"""Round-trip property tests for every wire dataclass.

The set of classes under test is *locked to the analyzer*: the
``wire-schema`` rule computes which dataclasses are reachable from
JobSpec/RunResult, and ``test_every_wire_class_is_covered`` fails if a
class joins the wire set without gaining a round-trip test here.  Rule
and suite cannot drift apart.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import ALL_ACCELERATORS
from repro.devtools.analyzer.core import Project
from repro.devtools.analyzer.rules.wire_schema import reachable_wire_classes
from repro.hymm.base import RunResult
from repro.hymm.config import HyMMConfig
from repro.hymm.wire import check_timeline, decode_timeline, encode_timeline
from repro.runtime.execute import execute_job, execute_spec
from repro.runtime.job import JobSpec
from repro.sim.memory import DRAMConfig
from repro.sim.stats import TRAFFIC_TAGS, SimStats

REPO_ROOT = Path(__file__).resolve().parents[2]


def through_json(obj):
    """to_dict -> JSON text -> from_dict, as the disk cache does."""
    payload = json.loads(json.dumps(obj.to_dict()))
    return type(obj).from_dict(payload)


def make_stats() -> SimStats:
    stats = SimStats(
        cycles=1234,
        busy_cycles=789,
        dram_read_bytes=Counter({"A": 640, "X": 128}),
        dram_write_bytes=Counter({"AXW": 256}),
        buffer_hits=Counter({"X": 9, "partial": 2}),
        buffer_misses=Counter({"X": 3}),
        lsq_forwards=5,
        partial_peak_bytes=4096,
        partial_spill_bytes=512,
        partials_produced=130,
        requests_issued=40,
    )
    stats.sample_partial_footprint(64)
    return stats


def make_result() -> RunResult:
    return RunResult(
        accelerator="hymm",
        dataset="cora",
        config=HyMMConfig(n_pes=8),
        stats=make_stats(),
        outputs=[np.arange(6, dtype=np.float64).reshape(2, 3)],
        phase_snapshots={
            "layer0.aggregation": SimStats(
                cycles=20, busy_cycles=9, buffer_hits=Counter({"X": 4})
            ),
            "drain": SimStats(cycles=3),
        },
        phase_occupancy={"layer0.aggregation": {"W": 2, "XW": 5, "AXW": 0, "partial": 1}},
        sort_ms=1.5,
        wall_seconds=0.25,
        extra={"note": "fixture"},
    )


# One constructor per wire class.  test_every_wire_class_is_covered
# forces this map to match the analyzer's reachability computation.
WIRE_CASES = {
    "JobSpec": lambda: JobSpec(
        dataset="cora",
        kind="hymm",
        scale=0.25,
        n_layers=2,
        seed=7,
        config=HyMMConfig(n_pes=4, unified_buffer=False),
        sort_mode="random",
        feature_length=32,
    ),
    "RunResult": make_result,
    "HyMMConfig": lambda: HyMMConfig(n_pes=32, threshold_fraction=0.3, lru=False),
    "SimStats": make_stats,
    "DRAMConfig": lambda: DRAMConfig(bytes_per_cycle=32, latency_cycles=80),
}


def test_every_wire_class_is_covered():
    project = Project.load([REPO_ROOT / "src"], root=REPO_ROOT)
    reachable = set(reachable_wire_classes(project, ["JobSpec", "RunResult"]))
    assert reachable == set(WIRE_CASES), (
        "wire set changed: add/remove a WIRE_CASES entry (and a round-trip "
        "test) for the difference"
    )


@pytest.mark.parametrize("name", sorted(WIRE_CASES))
def test_round_trip_through_json(name):
    original = WIRE_CASES[name]()
    restored = through_json(original)
    # Compare serialised forms: ndarray fields make dataclass == unusable
    # for RunResult, and to_dict parity is the property the cache needs.
    assert restored.to_dict() == original.to_dict()


@pytest.mark.parametrize("name", sorted(WIRE_CASES))
def test_defaults_round_trip(name):
    if name == "JobSpec":
        original = JobSpec(dataset="d", kind="k", scale=1.0)
    elif name == "RunResult":
        original = RunResult(
            accelerator="a", dataset="d", config=HyMMConfig(),
            stats=SimStats(), outputs=[],
        )
    else:
        original = WIRE_CASES[name]().__class__()
    assert through_json(original).to_dict() == original.to_dict()


def test_jobspec_fingerprint_stable_across_round_trip():
    spec = WIRE_CASES["JobSpec"]()
    assert through_json(spec).fingerprint() == spec.fingerprint()


def test_runresult_outputs_bit_identical():
    result = make_result()
    restored = through_json(result)
    for a, b in zip(result.outputs, restored.outputs):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def test_dramconfig_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown DRAMConfig"):
        DRAMConfig.from_dict({"bytes_per_cycle": 64, "typo_field": 1})


# ----------------------------------------------------------------------
# Property tests: arbitrary counter contents survive the wire.
# ----------------------------------------------------------------------
tag_counters = st.dictionaries(
    st.sampled_from(TRAFFIC_TAGS), st.integers(min_value=0, max_value=2**40)
)


@settings(max_examples=50, deadline=None)
@given(
    cycles=st.integers(min_value=0, max_value=2**50),
    busy=st.integers(min_value=0, max_value=2**50),
    reads=tag_counters,
    writes=tag_counters,
    hits=tag_counters,
    misses=tag_counters,
    timeline=st.lists(
        st.tuples(st.integers(0, 2**30), st.integers(0, 2**40)), max_size=8
    ),
)
def test_simstats_round_trip_property(cycles, busy, reads, writes, hits, misses, timeline):
    original = SimStats(
        cycles=cycles,
        busy_cycles=busy,
        dram_read_bytes=Counter(reads),
        dram_write_bytes=Counter(writes),
        buffer_hits=Counter(hits),
        buffer_misses=Counter(misses),
        partial_timeline=list(timeline),
    )
    restored = through_json(original)
    assert restored == original


@settings(max_examples=50, deadline=None)
@given(
    dataset=st.text(min_size=1, max_size=12).filter(str.strip),
    kind=st.sampled_from(["hymm", "rwp", "op"]),
    scale=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
    n_layers=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    sort_mode=st.sampled_from([None, "degree", "random", "none"]),
)
def test_jobspec_round_trip_property(dataset, kind, scale, n_layers, seed, sort_mode):
    original = JobSpec(
        dataset=dataset, kind=kind, scale=scale,
        n_layers=n_layers, seed=seed, sort_mode=sort_mode,
    )
    restored = through_json(original)
    assert restored == original
    assert restored.fingerprint() == original.fingerprint()


# ----------------------------------------------------------------------
# The partial timeline's run codec (repro.hymm.wire).
# ----------------------------------------------------------------------
STRIDE = SimStats.PARTIAL_TIMELINE_STRIDE

#: x values on and off the sampling grid, so runs both form and break.
timeline_x = st.integers(-4, 64).map(lambda k: k * STRIDE) | st.integers()


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(timeline_x, st.integers(-2, 2) | st.integers())))
def test_timeline_runs_round_trip_property(pairs):
    runs = encode_timeline(pairs)
    check_timeline(runs)
    assert decode_timeline(json.loads(json.dumps(runs))) == pairs


@pytest.mark.parametrize("pairs,runs", [
    ([], []),
    ([(0, 5), (64, 5), (128, 5)], [[0, 5, 3]]),
    # Equal footprints across a gap in x are two runs, not one.
    ([(0, 5), (64, 5), (256, 5)], [[0, 5, 2], [256, 5, 1]]),
    ([(64, 1), (128, 2), (192, 2), (193, 2)], [[64, 1, 1], [128, 2, 2], [193, 2, 1]]),
])
def test_timeline_runs(pairs, runs):
    assert encode_timeline(pairs) == runs
    assert decode_timeline(runs) == pairs


@pytest.mark.parametrize("kind", ALL_ACCELERATORS)
def test_every_kind_round_trips_its_stats(kind):
    """The stats and phase snapshots a live run produces are what its
    wire document decodes to, after a trip through JSON."""
    live = execute_spec(JobSpec("cora", kind, 0.05, n_layers=2))
    wire = json.loads(json.dumps(live.to_dict()))
    for doc in (wire["stats"], *wire["phase_snapshots"].values()):
        check_timeline(doc["partial_timeline"])
    restored = RunResult.from_dict(wire)
    assert restored.stats.to_dict() == live.stats.to_dict()
    assert {p: s.to_dict() for p, s in restored.phase_snapshots.items()} == {
        p: s.to_dict() for p, s in live.phase_snapshots.items()
    }


def test_replayed_op_tiled_stats_equal_live(tmp_path):
    """A replay decodes both phases' stats documents of every layer
    record back into the live run's counters and timeline."""
    spec = JobSpec("cora", "op-tiled", 0.1, n_layers=2)
    live = execute_spec(spec)
    assert len(live.stats.partial_timeline) > 100
    recorded = execute_job(spec, cache_dir=str(tmp_path))
    replayed = execute_job(spec, cache_dir=str(tmp_path))
    assert recorded["replay"]["replayed"] == 0
    assert replayed["replay"] == {"replayed": 4, "recorded": 0}
    for doc in (recorded, replayed):
        result = RunResult.from_dict(doc)
        assert result.stats.to_dict() == live.stats.to_dict()
        assert {p: s.to_dict() for p, s in result.phase_snapshots.items()} == {
            p: s.to_dict() for p, s in live.phase_snapshots.items()
        }
