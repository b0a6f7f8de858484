"""Seeded synthetic graph and feature generators.

The generators reproduce the *statistics* the paper's evaluation
depends on rather than any specific dataset instance:

* ``power_law_graph`` builds a Chung-Lu random graph whose expected
  degrees follow ``w_i proportional to (i + 1) ** -alpha``.  With the
  default ``alpha`` around 0.8 the top 20% of nodes hold roughly 70-80%
  of the edges, matching the paper's Figure 2 observation.
* ``sparse_feature_matrix`` builds a node-feature matrix with a target
  density, matching Table II's feature sparsity column.

Both are deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

from repro.sparse import COOMatrix, CSRMatrix
from repro.sparse.coo import INDEX_DTYPE, VALUE_DTYPE, check_index_range

#: Power-law exponent giving a top-20% edge share of roughly 0.7 (see
#: module docstring); individual datasets may override.
DEFAULT_ALPHA = 0.8


def chung_lu_weights(n_nodes: int, alpha: float = DEFAULT_ALPHA) -> np.ndarray:
    """Normalised expected-degree weights ``w_i ~ (i + 1) ** -alpha``.

    Node 0 gets the largest weight; the returned vector sums to 1 and is
    the endpoint-sampling distribution of :func:`power_law_graph`.
    """
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    weights = (np.arange(1, n_nodes + 1, dtype=np.float64)) ** (-alpha)
    return weights / weights.sum()


def power_law_graph(
    n_nodes: int,
    n_edges: int,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
    symmetric: bool = True,
    max_rounds: int = 64,
) -> COOMatrix:
    """Sample a Chung-Lu power-law graph as a 0/1 COO adjacency matrix.

    Endpoints are drawn independently from the power-law weight vector;
    self-loops and duplicate edges are discarded and sampling repeats
    until ``n_edges`` *directed* non-zeros exist (for ``symmetric=True``
    each undirected edge contributes two non-zeros, so ``n_edges`` should
    be even -- Table II edge counts already are, being undirected-doubled
    PyG counts).

    Parameters
    ----------
    n_nodes / n_edges:
        Matrix dimension and target stored non-zero count.
    alpha:
        Power-law exponent of the expected-degree sequence.
    seed:
        RNG seed; identical arguments always produce identical graphs.
    symmetric:
        Mirror every sampled edge (undirected graph).
    max_rounds:
        Safety bound on resampling rounds.
    """
    if n_edges < 0:
        raise ValueError("n_edges must be non-negative")
    check_index_range((n_nodes, n_nodes), n_edges)
    max_simple = n_nodes * (n_nodes - 1)
    if n_edges > max_simple:
        raise ValueError(
            f"cannot place {n_edges} simple directed edges in a {n_nodes}-node graph"
        )
    rng = np.random.default_rng(seed)
    probs = chung_lu_weights(n_nodes, alpha)

    target_pairs = n_edges // 2 if symmetric else n_edges
    chosen = np.zeros(0, dtype=np.int64)  # encoded canonical pairs
    for _ in range(max_rounds):
        if chosen.size >= target_pairs:
            break
        need = target_pairs - chosen.size
        # Oversample to compensate for duplicates / self-loops.
        batch = max(1024, int(need * 1.6))
        src = rng.choice(n_nodes, size=batch, p=probs)
        dst = rng.choice(n_nodes, size=batch, p=probs)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        if symmetric:
            lo = np.minimum(src, dst)
            hi = np.maximum(src, dst)
            encoded = lo * n_nodes + hi
        else:
            encoded = src * n_nodes + dst
        chosen = np.unique(np.concatenate([chosen, encoded]))
    chosen = chosen[:target_pairs]

    # The encoded pairs need 64 bits (up to n_nodes ** 2); each endpoint
    # fits the index width.
    src, dst = np.divmod(chosen, n_nodes)
    del chosen
    src, dst = src.astype(INDEX_DTYPE), dst.astype(INDEX_DTYPE)
    if symmetric:
        rows = np.concatenate([src, dst])
        cols = np.concatenate([dst, src])
    else:
        rows, cols = src, dst
    # Shuffle node labels: the sampling order makes node 0 the highest-
    # expected-degree node, but real datasets are not label-ordered by
    # degree -- without this, every "natural order" baseline would be
    # silently running on a degree-sorted graph.
    relabel = rng.permutation(n_nodes).astype(INDEX_DTYPE)
    rows = relabel[rows]
    cols = relabel[cols]
    values = np.ones(rows.size, dtype=VALUE_DTYPE)
    return COOMatrix((n_nodes, n_nodes), rows, cols, values)


def sparse_feature_matrix(
    n_nodes: int,
    feature_length: int,
    density: float,
    seed: int = 0,
) -> CSRMatrix:
    """Sample a sparse node-feature matrix with the given density.

    Positions are *not* uniform over the matrix.  Flat cell indices are
    drawn uniformly with 1.4x oversampling (redrawing until enough
    distinct cells exist), and the lowest ``round(cells * density)``
    distinct ones are kept, so the non-zeros pack into the leading rows
    and the trailing rows come out empty (``tests/graphs/
    test_synthetic.py::TestFeatureMatrix::test_last_row_has_features``
    is a strict xfail recording this; fixing it changes every golden
    statistic).  Values are uniform in ``[0.1, 1.0)`` (bounded away from
    zero so no sampled non-zero collapses to an actual zero).  Density
    1.0 produces a fully dense CSR matrix -- Table II datasets range
    from 0.01% (Yelp) to ~35% (Amazon) dense.

    The CSR arrays are built straight from the sorted flat indices, with
    no COO copy and no buffer sized to the full ``cells``.  The flat
    indices stay 64-bit (the RNG draws them so, and ``cells`` may exceed
    the index width); only the columns and row pointers derived from
    them are narrowed to :data:`~repro.sparse.coo.INDEX_DTYPE`.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    rng = np.random.default_rng(seed)
    cells = n_nodes * feature_length
    target = int(round(cells * density))
    check_index_range((n_nodes, feature_length), target)
    if target == cells:
        flat = np.arange(cells, dtype=np.int64)
    else:
        flat = np.zeros(0, dtype=np.int64)
        while flat.size < target:
            need = target - flat.size
            batch = rng.integers(0, cells, size=max(1024, int(need * 1.4)))
            if flat.size:
                batch = np.concatenate([flat, batch])
            batch.sort()
            keep = np.empty(batch.size, dtype=bool)
            keep[0] = True
            np.not_equal(batch[1:], batch[:-1], out=keep[1:])
            flat = batch[keep]
            # Drop each buffer once consumed: they bound peak memory.
            del batch, keep
        # Deterministically thin the oversampled set back to the target.
        flat = flat[:target]
    # The kept cells are sorted and distinct: row i's run starts at the
    # first cell >= i * feature_length, and no row array is needed.
    row_starts = np.arange(n_nodes + 1, dtype=np.int64) * feature_length
    indptr = np.searchsorted(flat, row_starts).astype(INDEX_DTYPE)
    del row_starts
    # Each cell's column, computed in place over its flat index.
    np.remainder(flat, feature_length, out=flat)
    cols = flat.astype(INDEX_DTYPE)
    del flat
    values = rng.uniform(0.1, 1.0, size=target).astype(VALUE_DTYPE)
    return CSRMatrix((n_nodes, feature_length), indptr, cols, values)
