"""Sparse matrix substrate for the HyMM reproduction.

This package implements the compressed sparse formats the accelerator
consumes (COO, CSR, CSC), conversions between them, reference SpMM
kernels used as functional oracles, degree/sparsity statistics (the
inputs to the paper's Figure 2 analysis), and the region-tiled storage
format whose overhead the paper reports in Figure 6.

Everything is built on plain NumPy arrays -- no SciPy dependency -- so
the byte-level storage accounting used by the tiled format matches what
an accelerator would actually keep in DRAM.  Index arrays are held at
the accelerator's 4-byte width (:data:`repro.sparse.coo.INDEX_DTYPE`),
and a matrix too large for it is refused when it is built.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import (
    coo_to_csr,
    coo_to_csc,
    csr_to_coo,
    csc_to_coo,
    csr_to_csc,
    csc_to_csr,
    dense_to_coo,
    dense_to_csr,
    dense_to_csc,
)
from repro.sparse.spmm import spmm_csr, spmm_csc, spmm_coo
from repro.sparse.stats import (
    DegreeStats,
    degree_stats,
    edge_share_of_top_fraction,
    gini_coefficient,
    sparsity,
)
from repro.sparse.tiled import RegionTiledMatrix, StorageReport

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "coo_to_csr",
    "coo_to_csc",
    "csr_to_coo",
    "csc_to_coo",
    "csr_to_csc",
    "csc_to_csr",
    "dense_to_coo",
    "dense_to_csr",
    "dense_to_csc",
    "spmm_csr",
    "spmm_csc",
    "spmm_coo",
    "DegreeStats",
    "degree_stats",
    "edge_share_of_top_fraction",
    "gini_coefficient",
    "sparsity",
    "RegionTiledMatrix",
    "StorageReport",
]
