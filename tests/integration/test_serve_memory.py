"""Serve retention: a server with a cache holds only the job in flight.

Each finished job leaves nothing behind in the serve process: the model
memo holds one workload, and the store, not the job registry, keeps a
finished result's wire document.  Keeping every distinct model and
every wire document (about 0.28 MB a job for 2-layer ``cora`` at scale
0.1) grows the traced memory by 1.1 MB across four more cold submits;
holding only the job in flight, by about 0.03 MB.

``tracemalloc`` counts NumPy's buffers byte for byte, so the bound is
deterministic and independent of the allocator and the host.
"""

import gc
import tracemalloc

import pytest

from repro.runtime import JobSpec, ResultCache
from repro.serve.client import ServeClient
from repro.serve.server import ServerThread

#: Traced bytes the 6th cold submit may hold beyond the 2nd.
RETAINED_BYTES = 1 << 20


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
