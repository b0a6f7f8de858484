"""Every sparse operand holds its indices at the accelerator's width.

``INDEX_BYTES`` is what the simulated streams charge per index, and the
host arrays hold exactly that (``INDEX_DTYPE``).  Line addresses are
computed from those indices and stay 64-bit.  A matrix too large for the
width is refused when it is built; no index wraps, which the far-corner
checks below verify against plain Python integers on a matrix of more
than 2**31 cells.
"""

import dataclasses

import numpy as np
import pytest

from repro.bench.workloads import make_model
from repro.graphs.io import read_edge_list
from repro.graphs.preprocess import degree_sort
from repro.graphs.synthetic import power_law_graph, sparse_feature_matrix
from repro.hymm.kernels import _row_line_addrs
from repro.runtime.execute import make_accelerator
from repro.sim.engine import BatchedAccessExecuteEngine
from repro.sparse import (
    COOMatrix,
    CSCMatrix,
    CSRMatrix,
    RegionTiledMatrix,
    coo_to_csc,
    coo_to_csr,
    csc_to_csr,
    csr_to_csc,
)
from repro.sparse.coo import INDEX_BYTES, INDEX_DTYPE, INDEX_MAX

KINDS = ["hymm", "rwp", "op", "op-deferred", "op-tiled", "gcod", "cwp"]

INDEX_FIELDS = {
    COOMatrix: ("rows", "cols"),
    CSRMatrix: ("indptr", "indices"),
    CSCMatrix: ("indptr", "indices"),
}


def _index_arrays(obj, path="prep"):
    """``(path, array)`` for every index array reachable from ``obj``:
    sparse matrices' index fields, and bare integer arrays (node
    permutations)."""
    if isinstance(obj, tuple(INDEX_FIELDS)):
        for name in INDEX_FIELDS[type(obj)]:
            yield f"{path}.{name}", getattr(obj, name)
    elif isinstance(obj, np.ndarray):
        if obj.dtype.kind in "iu":
            yield path, obj
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _index_arrays(value, f"{path}[{key!r}]")
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _index_arrays(value, f"{path}[{i}]")
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _index_arrays(getattr(obj, field.name), f"{path}.{field.name}")


@pytest.fixture(scope="module")
def model():
    return make_model("amazon-photo", 0.25, n_layers=2, seed=0)


class TestJobOperands:
    def test_dataset_and_normalised_adjacency(self, model):
        found = list(_index_arrays(model.dataset.adjacency, "adjacency"))
        found += _index_arrays(model.dataset.features, "features")
        found += _index_arrays(model.norm_adj, "norm_adj")
        assert len(found) == 6
        for path, array in found:
            assert array.dtype == INDEX_DTYPE, path
            assert array.itemsize == INDEX_BYTES, path

    @pytest.mark.parametrize("kind,sort_mode", [
        *[(kind, None) for kind in KINDS],
        ("hymm", "random"),
        ("hymm", "none"),
    ])
    def test_prepare_output(self, model, kind, sort_mode):
        prep = make_accelerator(kind, sort_mode=sort_mode).prepare(model)
        found = list(_index_arrays(prep))
        assert any(path.endswith(".indices") for path, _ in found)
        for path, array in found:
            assert array.itemsize == INDEX_BYTES, path

    def test_every_issued_address_is_64_bit(self, monkeypatch):
        """Each kind's kernels issue line addresses as ``int64`` arrays,
        computed from the 4-byte indices without narrowing."""
        dtypes = set()
        for name in ("mac_load_batch", "load_batch", "mac_stream_load_batch",
                     "store_batch", "accumulate_store_batch", "merge_rmw_batch"):
            original = getattr(BatchedAccessExecuteEngine, name)

            def spy(self, addrs, *args, _original=original, **kwargs):
                dtypes.add(np.asarray(addrs).dtype)
                return _original(self, addrs, *args, **kwargs)

            monkeypatch.setattr(BatchedAccessExecuteEngine, name, spy)
        small = make_model("cora", 0.05, n_layers=2, seed=0)
        for kind in KINDS:
            make_accelerator(kind).run_inference(small)
        assert dtypes == {np.dtype(np.int64)}

    def test_line_addresses_do_not_wrap(self):
        rows = np.array([0, INDEX_MAX], dtype=INDEX_DTYPE)
        addrs = _row_line_addrs(1 << 40, rows, 4)
        assert addrs.dtype == np.int64
        top = (1 << 40) + INDEX_MAX * 4
        assert addrs.tolist() == [1 << 40, (1 << 40) + 1, (1 << 40) + 2, (1 << 40) + 3,
                                  top, top + 1, top + 2, top + 3]


# ----------------------------------------------------------------------
# Far corners of a 50,000-node matrix (n * n > 2**31)
# ----------------------------------------------------------------------
N = 50_000


def _triplets():
    """Unsorted triplets with duplicates: the four corners, their
    neighbours and a seeded scatter, as Python ints."""
    rng = np.random.default_rng(7)
    coords = [(0, 0), (0, N - 1), (N - 1, 0), (N - 1, N - 1),
              (N - 2, N - 1), (N - 1, N - 2), (1, N - 1)]
    coords += [(int(r), int(c)) for r, c in rng.integers(0, N, size=(200, 2))]
    coords += coords[:5]  # duplicates, summed by canonicalisation
    coords = coords[::-1]
    values = [float(i % 7 + 1) for i in range(len(coords))]
    return coords, values


def _reference(coords, values):
    """Canonical (sorted, summed) entries as ``{(row, col): value}``."""
    summed = {}
    for rc, v in zip(coords, values):
        summed[rc] = summed.get(rc, 0.0) + v
    return dict(sorted(summed.items()))


def _pointers(keys):
    """The pointer array of ``N`` slots holding ``keys`` (Python ints)."""
    pointers = [0] * (N + 1)
    for key in keys:
        pointers[key + 1] += 1
    for i in range(N):
        pointers[i + 1] += pointers[i]
    return pointers


def _entries(coo):
    return dict(zip(zip(coo.rows.tolist(), coo.cols.tolist()), coo.values.tolist()))


@pytest.fixture(scope="module")
def corners():
    coords, values = _triplets()
    rows = np.array([r for r, _ in coords], dtype=np.int64)
    cols = np.array([c for _, c in coords], dtype=np.int64)
    coo = COOMatrix((N, N), rows, cols, np.array(values, dtype=np.float32))
    return coo, _reference(coords, values)


class TestFarCorners:
    def test_canonicalise(self, corners):
        coo, ref = corners
        assert coo.rows.dtype == INDEX_DTYPE
        assert list(zip(coo.rows.tolist(), coo.cols.tolist())) == list(ref)
        assert coo.values.tolist() == list(ref.values())

    def test_permute(self, corners):
        coo, ref = corners
        perm = np.arange(N)[::-1].copy()  # 64-bit input, narrowed
        moved = coo.permute(row_perm=perm, col_perm=perm)
        want = dict(sorted(((N - 1 - r, N - 1 - c), v) for (r, c), v in ref.items()))
        assert list(zip(moved.rows.tolist(), moved.cols.tolist())) == list(want)
        assert moved.values.tolist() == list(want.values())

    def test_csr_round_trip(self, corners):
        coo, ref = corners
        csr = coo_to_csr(coo)
        assert csr.indptr.tolist() == _pointers(r for r, _ in ref)
        assert csr.indices.tolist() == [c for _, c in ref]
        assert _entries(csr.to_coo()) == ref

    def test_csc_round_trips(self, corners):
        coo, ref = corners
        by_col = sorted(ref, key=lambda rc: (rc[1], rc[0]))
        for csc in (coo_to_csc(coo), csr_to_csc(coo_to_csr(coo))):
            assert csc.indptr.tolist() == _pointers(c for _, c in ref)
            assert csc.indices.tolist() == [r for r, _ in by_col]
            assert _entries(csc.to_coo()) == ref
            assert _entries(csc_to_csr(csc).to_coo()) == ref

    def test_permute_rows(self, corners):
        coo, ref = corners
        perm = np.arange(N)[::-1].copy()
        moved = coo_to_csr(coo).permute_rows(perm)
        want = dict(sorted(((N - 1 - r, c), v) for (r, c), v in ref.items()))
        assert _entries(moved.to_coo()) == want

    def test_degree_sort_and_tiles(self, corners):
        coo, ref = corners
        degree = {}
        for r, _ in ref:
            degree[r] = degree.get(r, 0) + 1
        order = sorted(range(N), key=lambda i: (-degree.get(i, 0), i))
        sort = degree_sort(coo)
        assert sort.inverse.tolist() == order
        new = {old: i for i, old in enumerate(order)}
        want = dict(sorted(((new[r], new[c]), v) for (r, c), v in ref.items()))
        assert _entries(sort.matrix) == want
        tiled = RegionTiledMatrix.build(sort.matrix, threshold=N // 5, row_band=3000,
                                        col_band=3000)
        assert _entries(tiled.to_coo()) == want

    def test_feature_synthesis_past_int32_cells(self):
        """Flat cell indices pass 2**31 here; rows and columns come out
        exactly as the Python-int decomposition of the same draws."""
        width = 70_000
        features = sparse_feature_matrix(N, width, 2e-7, seed=3)
        rng = np.random.default_rng(3)
        target = round(N * width * 2e-7)
        draws = sorted(set(rng.integers(0, N * width, size=1024).tolist()))[:target]
        assert max(draws) >= 2 ** 31
        assert features.nnz == target
        assert features.to_coo().rows.tolist() == [f // width for f in draws]
        assert features.indices.tolist() == [f % width for f in draws]


class TestTooWide:
    def test_dimension_past_the_width_is_refused(self):
        with pytest.raises(ValueError, match="4-byte index"):
            COOMatrix((INDEX_MAX + 1, 3), [], [], [])
        with pytest.raises(ValueError, match="4-byte index"):
            CSRMatrix((2, INDEX_MAX + 1), [0, 0, 0], [], [])
        with pytest.raises(ValueError, match="4-byte index"):
            CSCMatrix((INDEX_MAX + 1, 1), [0, 0], [], [])

    def test_wide_index_is_refused_not_wrapped(self):
        # 2**32 + 3 would wrap to 3, inside the matrix.
        with pytest.raises(ValueError, match="row index out of bounds"):
            COOMatrix((10, 10), np.array([2 ** 32 + 3]), [0], [1.0])
        with pytest.raises(ValueError, match="column index out of bounds"):
            CSRMatrix((1, 10), [0, 1], np.array([2 ** 32 + 3]), [1.0])
        with pytest.raises(ValueError, match="row index out of bounds"):
            COOMatrix((10, 10), [1], [2], [1.0]).permute(row_perm=np.full(10, 2 ** 32))

    def test_graph_past_the_width_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="4-byte index"):
            power_law_graph(INDEX_MAX + 1, 2)
        with pytest.raises(ValueError, match="4-byte index"):
            sparse_feature_matrix(INDEX_MAX + 1, 1, 0.0)
        edges = tmp_path / "wide.txt"
        edges.write_text(f"0 1\n1 {2 ** 31}\n")
        with pytest.raises(ValueError, match="4-byte index"):
            read_edge_list(edges)
