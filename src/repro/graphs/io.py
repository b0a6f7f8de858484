"""Dataset persistence and plain-text graph import.

Two jobs a downstream user needs:

* **persistence** -- :func:`save_dataset` / :func:`load_dataset_npz`
  round-trip a :class:`repro.graphs.dataset.GraphDataset` through a
  single compressed ``.npz`` file, so a synthesised (or imported)
  instance can be pinned and shared;
* **import** -- :func:`read_edge_list` / :func:`dataset_from_edge_list`
  turn a whitespace-separated edge-list file (the de-facto exchange
  format of SNAP, OGB and friends) into an accelerator-ready dataset,
  synthesising features when none are supplied.
"""

from __future__ import annotations

import pathlib
from typing import Optional, Union

import numpy as np

from repro.graphs.dataset import GraphDataset
from repro.graphs.synthetic import sparse_feature_matrix
from repro.sparse import COOMatrix, CSRMatrix, coo_to_csr
from repro.sparse.coo import VALUE_DTYPE

PathLike = Union[str, pathlib.Path]

_FORMAT_VERSION = 1


def save_dataset(dataset: GraphDataset, path: PathLike) -> None:
    """Serialise a dataset to one compressed ``.npz`` file."""
    np.savez_compressed(
        str(path),
        version=np.int64(_FORMAT_VERSION),
        name=np.str_(dataset.name),
        n_nodes=np.int64(dataset.n_nodes),
        hidden_dim=np.int64(dataset.hidden_dim),
        scale=np.float64(dataset.scale),
        adj_rows=dataset.adjacency.rows,
        adj_cols=dataset.adjacency.cols,
        adj_values=dataset.adjacency.values,
        feat_shape=np.asarray(dataset.features.shape, dtype=np.int64),
        feat_indptr=dataset.features.indptr,
        feat_indices=dataset.features.indices,
        feat_values=dataset.features.values,
    )


def load_dataset_npz(path: PathLike) -> GraphDataset:
    """Load a dataset previously written by :func:`save_dataset`."""
    with np.load(str(path), allow_pickle=False) as archive:
        version = int(archive["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported dataset file version {version} "
                f"(this library writes version {_FORMAT_VERSION})"
            )
        n = int(archive["n_nodes"])
        adjacency = COOMatrix(
            (n, n),
            archive["adj_rows"],
            archive["adj_cols"],
            archive["adj_values"],
        )
        features = CSRMatrix(
            tuple(int(x) for x in archive["feat_shape"]),
            archive["feat_indptr"],
            archive["feat_indices"],
            archive["feat_values"],
        )
        return GraphDataset(
            name=str(archive["name"]),
            adjacency=adjacency,
            features=features,
            hidden_dim=int(archive["hidden_dim"]),
            scale=float(archive["scale"]),
        )


def read_edge_list(
    path: PathLike,
    comments: str = "#",
    undirected: bool = True,
) -> COOMatrix:
    """Parse a whitespace-separated ``u v`` edge-list file.

    Node ids may be arbitrary non-negative integers; they are compacted
    to ``0..n-1`` preserving order of first appearance is NOT attempted
    -- ids are kept as-is with the matrix sized to the max id + 1 (the
    common convention of SNAP exports).  Self-loops are dropped;
    duplicate edges collapse (binary adjacency).  A graph whose node
    count or edge count does not fit the 4-byte index width raises
    ``ValueError``.
    """
    src, dst = [], []
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith(comments):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"{path}:{line_no}: expected 'u v', got {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if u < 0 or v < 0:
                raise ValueError(f"{path}:{line_no}: negative node id")
            if u == v:
                continue
            src.append(u)
            dst.append(v)
    if not src:
        return COOMatrix.empty((0, 0))
    n = max(max(src), max(dst)) + 1
    # Parsed at 64 bits: the COO constructor range-checks the ids
    # before it narrows them to the index width.
    rows = np.asarray(src, dtype=np.int64)
    cols = np.asarray(dst, dtype=np.int64)
    if undirected:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    values = np.ones(rows.size, dtype=VALUE_DTYPE)
    coo = COOMatrix((n, n), rows, cols, values)
    # Collapse duplicates to a binary adjacency.
    return COOMatrix(coo.shape, coo.rows, coo.cols,
                     np.ones(coo.nnz, dtype=VALUE_DTYPE))


def dataset_from_edge_list(
    path: PathLike,
    name: Optional[str] = None,
    features: Optional[CSRMatrix] = None,
    feature_length: int = 128,
    feature_density: float = 0.2,
    hidden_dim: int = 16,
    seed: int = 0,
) -> GraphDataset:
    """Build an accelerator-ready dataset from an edge-list file.

    When no feature matrix is supplied, a seeded sparse one is
    synthesised (``feature_length`` x ``feature_density``), mirroring
    how the registry datasets are built.
    """
    adjacency = read_edge_list(path)
    if adjacency.shape[0] == 0:
        raise ValueError(f"{path}: no edges found")
    if features is None:
        features = sparse_feature_matrix(
            adjacency.shape[0], feature_length, feature_density, seed=seed
        )
    return GraphDataset(
        name=name or pathlib.Path(path).stem,
        adjacency=adjacency,
        features=features,
        hidden_dim=hidden_dim,
    )
