"""Job set-up memory: synthesis and ``prepare`` build no large transients.

A cold job's peak resident memory is set by its set-up, not by the
simulation: the feature matrix is synthesised, then every dataflow
builds its feature operands from it.  Both steps work straight on CSR,
so their traced peaks stay within a small multiple of the matrix they
produce.  Going through full COO copies (a ``np.unique`` over a
concatenated batch, ``to_coo`` / ``lexsort`` / re-compress per
``prepare``) measured 4.6x for synthesis and 4.8-6.5x for ``prepare``;
the direct paths measure at most about 2.4x.

``tracemalloc`` counts NumPy's buffers byte for byte, so these bounds
are deterministic and independent of the allocator and the host.
"""

import tracemalloc

import pytest

from repro.bench.workloads import make_model
from repro.graphs.synthetic import sparse_feature_matrix
from repro.runtime.execute import make_accelerator

#: Allowed traced peak, as a multiple of the feature matrix's bytes.
PEAK_RATIO = 3.0


def _csr_bytes(matrix) -> int:
    return matrix.indptr.nbytes + matrix.indices.nbytes + matrix.values.nbytes


@pytest.fixture
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


def _peak_above_current(build):
    """(result, traced peak bytes above the memory in use before ``build``)."""
    base, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    result = build()
    _, peak = tracemalloc.get_traced_memory()
    return result, peak - base


def test_synthesis_peak(traced):
    # amazon-photo@0.25's feature shape, 35% dense.
    features, peak = _peak_above_current(
        lambda: sparse_feature_matrix(1912, 745, 0.347, seed=0)
    )
    assert peak <= PEAK_RATIO * _csr_bytes(features)


@pytest.mark.parametrize("kind", ["op", "op-tiled", "gcod", "hymm"])
def test_prepare_peak(kind, traced):
    model = make_model("amazon-photo", 0.25, n_layers=2, seed=0)
    accelerator = make_accelerator(kind)
    _, peak = _peak_above_current(lambda: accelerator.prepare(model))
    assert peak <= PEAK_RATIO * _csr_bytes(model.dataset.features)
