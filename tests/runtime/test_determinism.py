"""Parallel execution must be bit-identical to serial execution.

The acceptance bar for the runtime: ``n_jobs=4`` produces the same
``RunResult``s -- outputs, cycle counts, every counter -- as in-process
serial execution.  Wall-clock fields (``wall_seconds`` and the measured
``sort_ms``) are the only legitimate differences.
"""

import numpy as np
import pytest

from repro.runtime import JobSpec, ResultCache, SweepExecutor

_SPECS = [
    JobSpec(dataset="cora", kind="op", scale=0.05),
    JobSpec(dataset="cora", kind="rwp", scale=0.05),
    JobSpec(dataset="cora", kind="hymm", scale=0.05),
    JobSpec(dataset="amazon-photo", kind="hymm", scale=0.03),
]


def _comparable(result):
    """The serialised form minus measured wall-clock timings."""
    data = result.to_dict()
    data.pop("wall_seconds")
    data.pop("sort_ms")
    data["extra"] = {
        k: v for k, v in data["extra"].items() if k != "sort_ms"
    }
    return data


@pytest.fixture(scope="module")
def serial(tmp_path_factory):
    store = ResultCache(tmp_path_factory.mktemp("serial"))
    return SweepExecutor(cache=store, n_jobs=1).run(_SPECS)


@pytest.fixture(scope="module")
def parallel(tmp_path_factory):
    store = ResultCache(tmp_path_factory.mktemp("parallel"))
    return SweepExecutor(cache=store, n_jobs=4).run(_SPECS)


def test_both_complete(serial, parallel):
    assert serial.manifest.executed == len(_SPECS)
    assert parallel.manifest.executed == len(_SPECS)
    assert parallel.manifest.failed == 0


@pytest.mark.parametrize("index", range(len(_SPECS)))
def test_bit_identical_results(serial, parallel, index):
    spec = _SPECS[index]
    ours = serial.for_spec(spec)
    theirs = parallel.for_spec(spec)
    # Outputs: exact, element for element, dtype for dtype.
    assert len(ours.outputs) == len(theirs.outputs)
    for a, b in zip(ours.outputs, theirs.outputs):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    # Everything else (stats, phases, config) via the wire form.
    assert _comparable(ours) == _comparable(theirs)


def test_progress_callback_fires(serial, tmp_path):
    events = []

    def progress(record, done, total):
        events.append((record.status, done, total))

    SweepExecutor(
        cache=ResultCache(tmp_path), n_jobs=1, progress=progress
    ).run(_SPECS[:2])
    assert len(events) == 2
    assert events[-1][1:] == (2, 2)
