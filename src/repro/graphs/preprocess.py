"""Graph preprocessing: degree sorting and GCN normalisation.

HyMM's only preprocessing is *degree sorting* (paper Table I), far
cheaper than the clustering/partitioning of G-CoD or GROW.  Table II
reports its cost in milliseconds per dataset; :func:`degree_sort`
measures the same wall-clock cost here.

The GCN layer operates on the normalised adjacency
``A_hat = D^-1/2 (A + I) D^-1/2`` (paper Eq. 1); :func:`gcn_normalize`
builds it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.sparse import COOMatrix
from repro.sparse.coo import INDEX_DTYPE, VALUE_DTYPE


@dataclass(frozen=True)
class SortResult:
    """Outcome of degree sorting.

    Attributes
    ----------
    matrix:
        The adjacency matrix with rows *and* columns relabelled so node
        0 has the highest degree (symmetric permutation, preserving the
        graph).
    permutation:
        ``permutation[old] = new`` -- the relabelling applied.
    inverse:
        ``inverse[new] = old`` -- to map results back to original ids.
    elapsed_ms:
        Wall-clock sorting cost in milliseconds (Table II column).
    """

    matrix: COOMatrix
    permutation: np.ndarray
    inverse: np.ndarray
    elapsed_ms: float


def degree_sort(adjacency: COOMatrix, by: str = "row") -> SortResult:
    """Symmetrically permute an adjacency matrix by descending degree.

    ``by='row'`` sorts on out-degree, ``by='col'`` on in-degree; for the
    symmetric graphs of Table II they are identical.  Ties break on node
    id so the result is deterministic.
    """
    start = time.perf_counter()
    if by == "row":
        degrees = adjacency.row_degrees()
    elif by == "col":
        degrees = adjacency.col_degrees()
    else:
        raise ValueError("by must be 'row' or 'col'")
    # argsort of (-degree, id): stable sort on negated degrees.
    order = np.argsort(-degrees, kind="stable").astype(INDEX_DTYPE)
    permutation = np.empty_like(order)
    permutation[order] = np.arange(order.size, dtype=INDEX_DTYPE)
    sorted_matrix = adjacency.permute(row_perm=permutation, col_perm=permutation)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return SortResult(
        matrix=sorted_matrix,
        permutation=permutation,
        inverse=order,
        elapsed_ms=elapsed_ms,
    )


def add_self_loops(adjacency: COOMatrix, weight: float = 1.0) -> COOMatrix:
    """Return ``A + weight * I`` (duplicates merge by summation)."""
    n = adjacency.shape[0]
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency matrix must be square")
    eye = np.arange(n, dtype=INDEX_DTYPE)
    return COOMatrix(
        adjacency.shape,
        np.concatenate([adjacency.rows, eye]),
        np.concatenate([adjacency.cols, eye]),
        np.concatenate(
            [adjacency.values, np.full(n, weight, dtype=VALUE_DTYPE)]
        ),
    )


def gcn_normalize(adjacency: COOMatrix, self_loops: bool = True) -> COOMatrix:
    """Build the normalised adjacency ``A_hat = D^-1/2 (A + I) D^-1/2``.

    ``self_loops=False`` normalises the bare adjacency (used when a
    caller has already added loops).  Isolated nodes keep zero rows.
    """
    a = add_self_loops(adjacency) if self_loops else adjacency
    # Degree here is the weighted degree (row sum), matching Kipf-Welling.
    deg = np.zeros(a.shape[0], dtype=np.float64)
    np.add.at(deg, a.rows, a.values.astype(np.float64))
    inv_sqrt = np.zeros_like(deg)
    nonzero = deg > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(deg[nonzero])
    values = (
        a.values.astype(np.float64) * inv_sqrt[a.rows] * inv_sqrt[a.cols]
    ).astype(VALUE_DTYPE)
    return COOMatrix(a.shape, a.rows.copy(), a.cols.copy(), values)
