"""Dataflow kernels: the SpDeMM execution schedules of every engine.

Each kernel walks a sparse operand in its dataflow's order, drives the
decoupled access/execute engine (timing), and performs the actual
arithmetic (functional result).  The same kernels implement both HyMM's
phases and the homogeneous baselines, because the paper evaluates all
dataflows on the same memory hierarchy.

Kernels
-------
``combination_rwp``
    Row-wise product over a sparse feature matrix (GROW, G-CoD and
    HyMM's combination, Table I).
``combination_op``
    Outer product over CSC features (GCNAX's combination).
``combination_dense``
    Dense-input combination for layers past the first.
``aggregation_rwp``
    Row-wise product aggregation (GROW; HyMM regions 2 and 3).
``aggregation_op``
    Outer-product aggregation with three partial-merge modes:
    ``"dmb"`` (HyMM's near-memory accumulator), ``"pe"`` (read-modify-
    write through the PE array, the GCNAX-proxy), and ``"deferred"``
    (append partials now, merge in a separate pass -- the classic
    OuterSpace organisation, used for the Figure 10 comparison).
``aggregation_hybrid``
    HyMM's schedule: OP over the degree-sorted region-1 tiles first,
    then RWP over the remaining rows (Section III's execution order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Union

import numpy as np

from repro.graphs.partition import RegionPlan
from repro.hymm.config import HyMMConfig
from repro.hymm.dmb import AddressMap, DenseMatrixBuffer, SplitBufferPair
from repro.hymm.pe import PEArray
from repro.hymm.smq import SparseMatrixQueue
from repro.sim.buffer import CLASS_OUT, CLASS_PARTIAL, CLASS_W, CLASS_XW
from repro.sim.engine import AccessExecuteEngine
from repro.sparse import CSCMatrix, CSRMatrix
from repro.sparse.coo import VALUE_DTYPE

#: Eviction order while a combination runs: the weight rows are the
#: reused operand, so the buffer sheds freshly written XW lines first
#: (the unified DMB's dynamic space management, Section III).
COMBINATION_PRIORITY = (CLASS_XW, CLASS_OUT, CLASS_PARTIAL, CLASS_W)

#: Eviction order while an aggregation runs -- the paper's stated order:
#: W first, then XW, retaining (partial) outputs (Section IV-D).
AGGREGATION_PRIORITY = (CLASS_W, CLASS_XW, CLASS_OUT, CLASS_PARTIAL)

MERGE_MODES = ("dmb", "pe", "deferred")


def _row_line_addrs(base: int, rows: np.ndarray, lpr: int) -> np.ndarray:
    """Line addresses of dense rows ``rows`` (``lpr`` lines each), in
    the row-major order the scalar kernels visit them (row by row, line
    within row ascending)."""
    starts = base + rows.astype(np.int64) * lpr
    if lpr == 1:
        return starts
    return (starts[:, None] + np.arange(lpr, dtype=np.int64)).reshape(-1)


@dataclass
class KernelContext:
    """Everything a kernel needs: hardware models plus the layer index."""

    config: HyMMConfig
    engine: AccessExecuteEngine
    buffer: Union[DenseMatrixBuffer, SplitBufferPair]
    amap: AddressMap
    pe: PEArray
    smq: SparseMatrixQueue
    layer: int = 0


# ----------------------------------------------------------------------
# Combination kernels (XW = X @ W)
# ----------------------------------------------------------------------
def combination_rwp(
    ctx: KernelContext, features: CSRMatrix, weights: np.ndarray
) -> np.ndarray:
    """Row-wise-product combination over a sparse feature matrix."""
    h = weights.shape[1]
    lpr = ctx.config.lines_per_row(h)
    # Extra PE passes per non-zero when the array is narrower than the row.
    extra = max(0, ctx.config.compute_passes(h) - lpr)
    n = features.shape[0]
    xw = np.zeros((n, h), dtype=VALUE_DTYPE)
    ctx.buffer.evict_priority = COMBINATION_PRIORITY

    engine = ctx.engine
    stream, mac_local = engine.stream, engine.mac_local
    mac_load_batch, store_batch = engine.mac_load_batch, engine.store_batch
    w_base = ctx.amap.w_addr(ctx.layer, 0, h)
    xw_base = ctx.amap.xw_addr(ctx.layer, 0, h)
    # One float64 conversion per kernel call, gathered per row.
    weights64 = weights.astype(VALUE_DTYPE, copy=False).astype(np.float64)
    line_offsets = np.arange(lpr, dtype=np.int64)

    for entry in ctx.smq.iter_csr(features):
        stream(entry.stream_bytes, "X")
        idx = entry.indices
        mac_load_batch(_row_line_addrs(w_base, idx, lpr), CLASS_W, "W")
        if extra:
            mac_local(extra * idx.size)
        xw[entry.pointer] = ctx.pe.rwp_row(entry.values, weights64[idx])
        store_batch(xw_base + entry.pointer * lpr + line_offsets, CLASS_XW, "XW")
    return xw


def combination_dense(
    ctx: KernelContext, dense_in: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Combination for dense layer inputs (H from the previous layer).

    The input row is fetched once (it lives at the previous layer's
    output addresses), then each of its elements drives one vector MAC
    against the matching weight row.
    """
    n, width_in = dense_in.shape
    h = weights.shape[1]
    lpr_out = ctx.config.lines_per_row(h)
    extra = max(0, ctx.config.compute_passes(h) - lpr_out)
    lpr_in = ctx.config.lines_per_row(width_in)
    ctx.buffer.evict_priority = COMBINATION_PRIORITY

    engine = ctx.engine
    load_batch, store_batch = engine.load_batch, engine.store_batch
    mac_load_batch = engine.mac_load_batch
    in_base = ctx.amap.out_addr(ctx.layer - 1, 0, width_in)
    w_base = ctx.amap.w_addr(ctx.layer, 0, h)
    xw_base = ctx.amap.xw_addr(ctx.layer, 0, h)
    in_offsets = np.arange(lpr_in, dtype=np.int64)
    out_offsets = np.arange(lpr_out, dtype=np.int64)
    # Every row touches every weight line, in the same ascending order.
    w_addrs = w_base + np.arange(width_in * lpr_out, dtype=np.int64)

    # Float32 operands, float64 accumulation, one rounding (the PE rule).
    xw = (
        dense_in.astype(VALUE_DTYPE, copy=False).astype(np.float64)
        @ weights.astype(VALUE_DTYPE, copy=False).astype(np.float64)
    ).astype(VALUE_DTYPE)
    for i in range(n):
        load_batch(in_base + i * lpr_in + in_offsets, CLASS_XW, "H")
        mac_load_batch(w_addrs, CLASS_W, "W")
        if extra:
            engine.mac_local(extra * width_in)
        store_batch(xw_base + i * lpr_out + out_offsets, CLASS_XW, "XW")
    return xw


def combination_op(
    ctx: KernelContext,
    features_csc: CSCMatrix,
    weights: np.ndarray,
    merge_mode: str = "pe",
) -> np.ndarray:
    """Outer-product combination (the GCNAX-style schedule).

    Walks feature *columns*: weight row ``W[f]`` is loaded once and held
    stationary while the column's non-zeros scatter partial products
    into XW rows, merged per ``merge_mode``.
    """
    _check_merge_mode(merge_mode)
    h = weights.shape[1]
    lpr = ctx.config.lines_per_row(h)
    passes = ctx.config.compute_passes(h)
    n = features_csc.shape[0]
    xw = np.zeros((n, h), dtype=np.float64)
    ctx.buffer.evict_priority = COMBINATION_PRIORITY

    engine = ctx.engine
    w_base = ctx.amap.w_addr(ctx.layer, 0, h)
    xw_base = ctx.amap.xw_addr(ctx.layer, 0, h)
    weights32 = weights.astype(VALUE_DTYPE, copy=False)
    # Weights convert once per invocation; feature values per entry (one
    # per feature column), so no float64 copy of the operand is held.
    weights64 = weights32.astype(np.float64)
    deferred = _DeferredPartials(ctx) if merge_mode == "deferred" else None
    touched = set()
    line_offsets = np.arange(lpr, dtype=np.int64)

    for entry in ctx.smq.iter_csc(features_csc):
        engine.stream(entry.stream_bytes, "X")
        f = entry.pointer
        # Weight rows arrive in ascending-f order: sequential stream.
        engine.mac_stream_load_batch(
            w_base + f * lpr + line_offsets, CLASS_W, "W"
        )
        count = entry.indices.size * max(lpr, passes)
        if count > lpr:
            engine.mac_local(count - lpr)
        _merge_partials(
            ctx, entry.indices, xw_base, lpr, merge_mode, deferred, touched
        )
        xw[entry.indices] += (
            entry.values.astype(np.float64)[:, None] * weights64[f][None, :]
        )

    if merge_mode == "deferred":
        deferred.finalize(len(touched) * lpr, tag="XW")
    else:
        # Resident partial XW lines become ordinary XW data for the
        # aggregation that follows; spilled ones already live in DRAM.
        ctx.buffer.reclassify(CLASS_PARTIAL, CLASS_XW, engine.issue_t)
        ctx.buffer.drop_spilled_partials()
    return xw.astype(VALUE_DTYPE)


# ----------------------------------------------------------------------
# Aggregation kernels (AXW = A_hat @ XW)
# ----------------------------------------------------------------------
def aggregation_rwp(
    ctx: KernelContext,
    adj_csr: CSRMatrix,
    xw: np.ndarray,
    out: Optional[np.ndarray] = None,
    row_offset: int = 0,
    extra_pointers: int = 1,
) -> np.ndarray:
    """Row-wise-product aggregation (GROW; HyMM's regions 2 and 3).

    Output rows finish one at a time (output-stationary in the PEs) and
    stream to DRAM write-through -- they are not reused this phase, so
    they take no buffer space (the dynamic-allocation argument of
    Section III).
    """
    h = xw.shape[1]
    lpr = ctx.config.lines_per_row(h)
    extra = max(0, ctx.config.compute_passes(h) - lpr)
    if out is None:
        out = np.zeros((adj_csr.shape[0] + row_offset, h), dtype=VALUE_DTYPE)
    ctx.buffer.evict_priority = AGGREGATION_PRIORITY

    engine = ctx.engine
    stream = engine.stream
    mac_load_batch, store_batch = engine.mac_load_batch, engine.store_batch
    xw_base = ctx.amap.xw_addr(ctx.layer, 0, h)
    out_base = ctx.amap.out_addr(ctx.layer, 0, h)
    line_offsets = np.arange(lpr, dtype=np.int64)
    # One float64 conversion per kernel call, gathered per row.
    xw64 = xw.astype(VALUE_DTYPE, copy=False).astype(np.float64)

    for entry in ctx.smq.iter_csr(adj_csr, extra_pointers):
        stream(entry.stream_bytes, "A")
        idx = entry.indices
        mac_load_batch(_row_line_addrs(xw_base, idx, lpr), CLASS_XW, "XW")
        if extra:
            engine.mac_local(extra * idx.size)
        i = entry.pointer + row_offset
        out[i] = ctx.pe.rwp_row(entry.values, xw64[idx])
        store_batch(
            out_base + i * lpr + line_offsets, CLASS_OUT, "AXW", allocate=False
        )
    return out


def aggregation_op(
    ctx: KernelContext,
    adj_csc: CSCMatrix,
    xw: np.ndarray,
    out: Optional[np.ndarray] = None,
    row_offset: int = 0,
    merge_mode: str = "dmb",
    extra_pointers: int = 1,
    finalize: bool = True,
    accum: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Outer-product aggregation.

    The dense row of each sparse column is loaded once and held
    stationary; each non-zero emits one partial output toward the row it
    names.  Merge behaviour:

    * ``"dmb"`` -- HyMM: the DMB-side accumulator merges same-index
      partials in place; the PE array never stalls on outputs.
    * ``"pe"`` -- GCNAX-proxy: merging is a read-modify-write through
      the PE array (first touch write-allocates without a fetch).
    * ``"deferred"`` -- OuterSpace-style: partials append until the
      buffer overflows to DRAM, then a separate merge pass combines
      them (charged as a sequential re-read plus one adder op per
      partial).

    ``finalize=False`` leaves resident partials in the buffer (HyMM
    flushes per region-1 tile instead).  ``accum`` optionally provides a
    float64 accumulation surface when the caller splits one logical
    output across multiple kernel invocations.
    """
    _check_merge_mode(merge_mode)
    h = xw.shape[1]
    lpr = ctx.config.lines_per_row(h)
    passes = ctx.config.compute_passes(h)
    if out is None:
        out = np.zeros((adj_csc.shape[0] + row_offset, h), dtype=VALUE_DTYPE)
    ctx.buffer.evict_priority = AGGREGATION_PRIORITY

    engine = ctx.engine
    xw_base = ctx.amap.xw_addr(ctx.layer, 0, h)
    out_base = ctx.amap.out_addr(ctx.layer, 0, h)
    deferred = _DeferredPartials(ctx) if merge_mode == "deferred" else None
    touched = set()
    local = accum if accum is not None else np.zeros(out.shape, dtype=np.float64)
    # One dtype conversion per kernel invocation, sliced per entry.
    values64 = adj_csc.values.astype(np.float64)
    xw64 = xw.astype(np.float64)
    line_offsets = np.arange(lpr, dtype=np.int64)

    for entry in ctx.smq.iter_csc(adj_csc, extra_pointers):
        engine.stream(entry.stream_bytes, "A")
        j = entry.pointer
        # XW rows arrive in ascending-column order: the OP engine's
        # defining sequential input stream (Section III).
        engine.mac_stream_load_batch(
            xw_base + j * lpr + line_offsets, CLASS_XW, "XW"
        )
        count = entry.indices.size * max(lpr, passes)
        if count > lpr:
            engine.mac_local(count - lpr)
        rows = entry.indices + row_offset
        _merge_partials(ctx, rows, out_base, lpr, merge_mode, deferred, touched)
        np.add.at(
            local,
            rows,
            values64[entry.lo:entry.hi][:, None] * xw64[j][None, :],
        )

    if merge_mode == "deferred":
        deferred.finalize(len(touched) * lpr, tag="AXW")
    elif finalize:
        finalize_op_partials(ctx)
    if accum is None:
        out += local.astype(VALUE_DTYPE)
    return out


def finalize_op_partials(ctx: KernelContext) -> None:
    """Write resident partial lines back as final outputs and forget
    spill bookkeeping (any spilled line's DRAM copy is already the
    latest value, because re-touches re-fetch and re-merge)."""
    engine = ctx.engine
    end = ctx.buffer.flush(engine.write_t, cls=CLASS_PARTIAL, tag="AXW")
    ctx.buffer.drop_spilled_partials()
    if end > engine.write_t:
        engine.write_t = end


def aggregation_hybrid(
    ctx: KernelContext,
    plan: RegionPlan,
    low_rows_csr: CSRMatrix,
    xw: np.ndarray,
) -> np.ndarray:
    """HyMM's hybrid aggregation over a degree-sorted graph.

    Region-1 tiles (high-degree output rows) run the OP engine with the
    near-memory accumulator (or PE-side merging when the accumulator is
    ablated); each tile's output band fits the DMB by construction, so
    partials are flushed once per tile.  The remaining rows run the RWP
    engine, where the XW rows of the high-degree columns stay hot in
    the buffer.  ``op_first`` (Section III) picks the phase order.
    """
    h = xw.shape[1]
    n = plan.tiled.shape[0]
    out = np.zeros((n, h), dtype=VALUE_DTYPE)
    threshold = plan.threshold
    merge_mode = "dmb" if ctx.config.near_memory_accumulator else "pe"
    # Rows >= threshold span one pointer array per region-2 column band
    # plus region 3's.
    extra_ptrs = max(1, plan.n_region2_tiles + 1)
    tracer = ctx.engine.tracer

    def run_op_tiles() -> None:
        for tile in plan.tiled.tiles_in_region(1):
            t0 = ctx.engine.drain()
            aggregation_op(
                ctx,
                tile.matrix,
                xw,
                out=out,
                row_offset=tile.row_lo,
                merge_mode=merge_mode,
                finalize=True,
            )
            if tracer.enabled:
                tracer.span(
                    "region1.op-tile", t0, ctx.engine.drain(), "region",
                    {
                        "row_lo": int(tile.row_lo),
                        "rows": int(tile.matrix.shape[0]),
                    },
                )

    def run_rwp_rows() -> None:
        if low_rows_csr.shape[0]:
            t0 = ctx.engine.drain()
            aggregation_rwp(
                ctx,
                low_rows_csr,
                xw,
                out=out,
                row_offset=threshold,
                extra_pointers=extra_ptrs,
            )
            if tracer.enabled:
                tracer.span(
                    "region23.rwp-rows", t0, ctx.engine.drain(), "region",
                    {"rows": int(low_rows_csr.shape[0])},
                )

    if ctx.config.op_first:
        run_op_tiles()
        run_rwp_rows()
    else:
        run_rwp_rows()
        run_op_tiles()
    return out


# ----------------------------------------------------------------------
# Partial-output plumbing
# ----------------------------------------------------------------------
def _check_merge_mode(mode: str) -> None:
    if mode not in MERGE_MODES:
        raise ValueError(f"merge_mode must be one of {MERGE_MODES}, got {mode!r}")


def _merge_partials(
    ctx: KernelContext,
    rows: np.ndarray,
    out_base: int,
    lpr: int,
    merge_mode: str,
    deferred: "Optional[_DeferredPartials]",
    touched: Set[int],
) -> None:
    """Route one column's partial outputs to the configured merge path."""
    engine = ctx.engine
    if merge_mode == "deferred":
        deferred.emit(rows.size * lpr)
        touched.update(rows.tolist())
        return
    addrs = _row_line_addrs(out_base, rows, lpr)
    if merge_mode == "dmb":
        engine.accumulate_store_batch(addrs, "partial")
        return
    # "pe": read-modify-write through the PE array; the first touch of a
    # line is a plain write-allocate (there is nothing to read yet).
    # The engine mirrors the accumulator's footprint-peak tracking.
    engine.merge_rmw_batch(addrs, CLASS_PARTIAL, "partial", touched, track_peak=True)


class _DeferredPartials:
    """Append-only partial-output pool for the no-accumulator mode.

    Partials occupy buffer lines until the pool exceeds the DMB's
    capacity, after which the overflow streams to DRAM.  ``finalize``
    models the separate merge pass: spilled partials are re-read
    sequentially, every partial costs one adder cycle, and the merged
    rows are written out.
    """

    def __init__(self, ctx: KernelContext) -> None:
        self.ctx = ctx
        self.capacity = ctx.config.capacity_lines
        self.line_bytes = ctx.config.line_bytes
        self.emitted = 0
        self.resident = 0
        self.spilled = 0

    def emit(self, n: int) -> None:
        stats = self.ctx.engine.stats
        stats.partials_produced += n
        self.emitted += n
        self.resident += n
        if self.resident > self.capacity:
            overflow = self.resident - self.capacity
            nbytes = overflow * self.line_bytes
            self.ctx.engine.dram.write(self.ctx.engine.issue_t, nbytes, "partial")
            stats.partial_spill_bytes += nbytes
            self.spilled += overflow
            self.resident = self.capacity
        footprint = (self.resident + self.spilled) * self.line_bytes
        if footprint > stats.partial_peak_bytes:
            stats.partial_peak_bytes = footprint
        stats.sample_partial_footprint(footprint)

    def finalize(self, n_out_rows: int, tag: str) -> None:
        engine = self.ctx.engine
        if self.spilled:
            end = engine.dram.stream_read(
                engine.issue_t, self.spilled * self.line_bytes, "partial"
            )
            engine.wait_until(end)
        if self.emitted:
            engine.alu_op(self.emitted)
        if n_out_rows:
            engine.dram.write(engine.issue_t, n_out_rows * self.line_bytes, tag)
        self.resident = 0
