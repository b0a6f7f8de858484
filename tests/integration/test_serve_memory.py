"""Serve memory: a server with a cache holds only the job in flight, and
a summary hit builds no stats timeline.

Each finished job leaves nothing behind in the serve process: the model
memo holds one workload, and the store, not the job registry, keeps a
finished result's wire document.  Keeping every distinct model and
every wire document (about 0.28 MB a job for 2-layer ``cora`` at scale
0.1) grows the traced memory by 1.1 MB across four more cold submits;
holding only the job in flight, by about 0.03 MB.

A summary hit (``ResultCache.probe``) checks the stored result's
stats, but expands none of its timelines: the op-tiled job's record
holds 3,861 footprint samples three times over (run stats, phase
snapshots) as 250 runs, and expanding them takes about 0.6 MB.

``tracemalloc`` counts NumPy's buffers byte for byte, so the bounds are
deterministic and independent of the allocator and the host.
"""

import gc
import tracemalloc

import pytest

from repro.hymm import wire
from repro.runtime import JobSpec, ResultCache, SweepExecutor
from repro.serve.client import ServeClient
from repro.serve.server import ServerThread

#: Traced bytes the 6th cold submit may hold beyond the 2nd.
RETAINED_BYTES = 1 << 20
#: Traced bytes a summary probe of the op-tiled job may peak at.  It
#: takes about 260 KB, nearly all to read, re-hash and inflate the
#: headers of its two output blobs; expanding the timelines would add
#: about 0.6 MB.
PROBE_BYTES = 384 << 10


@pytest.fixture
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


def test_finished_jobs_are_not_retained(tmp_path, traced):
    held = []
    with ServerThread(cache=ResultCache(tmp_path)) as srv:
        with ServeClient(srv.host, srv.port) as client:
            for seed in range(6):
                spec = JobSpec(
                    dataset="cora", kind="hymm", scale=0.1, n_layers=2,
                    seed=seed,
                )
                reply = client.submit(spec.to_dict(), wait=True)
                assert reply["source"] == "executed"
                gc.collect()
                held.append(tracemalloc.get_traced_memory()[0])
    assert held[5] - held[1] <= RETAINED_BYTES


def _peak(fn, *args):
    """``fn(*args)`` and the traced bytes it peaked at above the start."""
    gc.collect()
    base, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    out = fn(*args)
    return out, tracemalloc.get_traced_memory()[1] - base


def test_summary_probe_expands_no_timeline(tmp_path, traced, monkeypatch):
    spec = JobSpec("amazon-photo", "op-tiled", 0.1, n_layers=2)
    cache = ResultCache(tmp_path)
    assert SweepExecutor(cache=cache).run([spec]).manifest.executed == 1
    doc = cache.load_document(spec)

    def expand(runs):
        raise AssertionError("the summary probe expanded a timeline")

    with monkeypatch.context() as patched:
        patched.setattr(wire, "decode_timeline", expand)
        summary, peak = _peak(cache.probe, spec)
    assert summary is not None and cache.corrupt == 0
    assert peak <= PROBE_BYTES
    # The bound would catch an expansion: decoding the same fields
    # alone peaks above it.
    fields, decoded = _peak(wire.result_fields, doc)
    assert len(fields["stats"].partial_timeline) > 3000
    assert decoded > PROBE_BYTES
