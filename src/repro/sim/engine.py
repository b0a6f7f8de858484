"""Decoupled access/execute engine.

Models the HyMM pipeline of SMQ -> LSQ -> PE array (Sections IV-A..C)
at vector-op granularity:

* the **frontend** (SMQ feeding the LSQ) issues one memory request per
  cycle and may run ahead of the backend by up to ``lsq_depth``
  requests -- exactly the latency-hiding role the paper gives the LSQ
  ("while a missed load instruction waits ... subsequent load
  instructions can continue execution");
* the **backend** (the 16-MAC PE array) executes one scalar x vector
  MAC per cycle, in order, waiting when its operand has not arrived;
* **store-to-load forwarding**: a load whose address matches a recent
  store is served from the LSQ without touching the DMB (Section IV-B);
  the forwarding window is the LSQ's 128 entries;
* the sparse operand itself (pointers + indices + values) arrives as an
  SMQ **stream** that charges DRAM bandwidth; the stream can throttle
  the frontend when bandwidth saturates, but its latency is hidden by
  the SMQ's pointer/index buffers.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from itertools import islice, repeat
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.buffer import CLASS_INDEX, CLASS_PARTIAL, CacheBuffer
from repro.sim.constants import ENGINE_KINDS
from repro.sim.memory import DRAM
from repro.sim.stats import SimStats

#: Address bits below the (space, layer) prefix of
#: :class:`repro.hymm.dmb.AddressMap` addresses.  The batched engine
#: tracks which prefixes currently sit in the forwarding window so a
#: whole load batch over a different matrix can skip the per-address
#: store-map probe.
_SPACE_BITS = 32

_PARTIAL_IDX = CLASS_INDEX[CLASS_PARTIAL]

#: Minimum all-hit prefix length worth routing through the vector lane
#: (below this the numpy setup costs more than the flat loop saves).
_LANE_MIN = 48

#: Minimum merge-*hit* run length.  Hit frames are far cheaper than
#: miss frames (no MSHR/eviction machinery to skip), so the epoch's
#: fixed per-attempt cost -- gather, distinctness and residency cuts,
#: floor gather, window rebuild, bulk commit -- needs a longer run to
#: amortize; short runs stay on the flat loop, which is already
#: flat-in-locals.  Tuned on the gcod/cwp merge distributions (runs
#: cluster at 8-16 with a long tail; the tail is where epochs pay).
_MERGE_HIT_MIN = 64

#: Minimum accumulate *hit* run length, same reasoning as
#: ``_MERGE_HIT_MIN`` (one leg per frame instead of two, so the
#: break-even sits lower).
_HIT_RUN_MIN = 24

#: Exactness gate for the vector lanes: every timeline value must sit
#: on the 2^-16 dyadic grid with magnitude below 2^35.  All simulator
#: cycle values are sums of multiples of 1/64 (DRAM transfer costs) and
#: integers (latencies, per-cycle steps), so in practice every value
#: qualifies; the gate makes the lane *provably* bit-exact -- on-grid
#: bounded operands make every add/max in the recurrence exact real
#: arithmetic, and exact arithmetic makes the closed form identical to
#: the sequential loop.  Any off-grid value falls back to the flat loop.
_LANE_MAG = float(1 << 35)


def _lane_scalar_ok(v: float) -> bool:
    return -_LANE_MAG < v < _LANE_MAG and (v * 65536.0).is_integer()


def _residency_run_end(slot_of: Dict[int, int], addr_list: List[int], i: int) -> int:
    """End of the run at ``addr_list[i]`` whose addresses share its
    residency (all resident or all not): after a declined attempt the
    flat loop takes just that run before the next attempt."""
    n = len(addr_list)
    j = i + 1
    if addr_list[i] in slot_of:
        while j < n and addr_list[j] in slot_of:
            j += 1
    else:
        while j < n and addr_list[j] not in slot_of:
            j += 1
    return j


class AccessExecuteEngine:
    """One in-order decoupled pipeline over a shared memory hierarchy."""

    def __init__(
        self,
        buffer: CacheBuffer,
        dram: DRAM,
        stats: SimStats,
        lsq_depth: int = 128,
        forwarding: bool = True,
        smq_buffer_bytes: int = 16 * 1024,
        start_cycle: float = 0.0,
        tracer: Optional[Tracer] = None,
    ):
        if lsq_depth <= 0:
            raise ValueError("lsq_depth must be positive")
        self.buffer = buffer
        self.dram = dram
        self.stats = stats
        #: Simulated-time event sink; NULL_TRACER (disabled) by default,
        #: so the per-batch cost is one ``enabled`` check.  Tracing never
        #: touches ``stats`` -- cycle counts and counters are identical
        #: whether or not a tracer is attached.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.lsq_depth = lsq_depth
        self.forwarding = forwarding
        # Frontend slack granted by the SMQ's on-chip stream buffers.
        self._stream_slack = smq_buffer_bytes / dram.config.bytes_per_cycle
        #: Frontend load timeline: when the next read request can issue
        #: (the DMB's read queue accepts one request per cycle).
        self.issue_t = float(start_cycle)
        #: Store timeline: the DMB's *write queue* is a separate port
        #: (Fig. 3 shows distinct read/write queues), so stores and
        #: accumulator traffic do not steal load-issue slots.
        self.write_t = float(start_cycle)
        #: Backend timeline: when the PE array finishes its last op.
        self.exec_t = float(start_cycle)
        # Ring of backend completion times, one slot per LSQ entry: the
        # frontend reuses a slot only after the backend consumed it.
        self._ring = [float(start_cycle)] * lsq_depth
        self._k = 0
        # Store-to-load forwarding window (bounded by LSQ depth).
        self._store_map: OrderedDict = OrderedDict()

    # ------------------------------------------------------------------
    # Compute + memory primitives
    # ------------------------------------------------------------------
    def mac_load(self, addr: int, cls: str, tag: str) -> None:
        """One vector MAC whose dense operand is loaded from memory."""
        self.stats.requests_issued += 1
        slot = self._ring[self._k % self.lsq_depth]
        issue = max(self.issue_t + 1.0, slot)
        forwarded = self.forwarding and addr in self._store_map
        if forwarded:
            ready = max(issue, self._store_map[addr])
            self.stats.lsq_forwards += 1
        else:
            ready, issue = self.buffer.read(issue, addr, cls, tag)
        self.issue_t = issue
        self.exec_t = max(self.exec_t + 1.0, ready)
        self._ring[self._k % self.lsq_depth] = self.exec_t
        self._k += 1
        self.stats.busy_cycles += 1

    def mac_stream_load(self, addr: int, cls: str, tag: str) -> None:
        """One vector MAC whose operand arrives on a *sequential* stream.

        OP-mode engines consume dense rows in ascending order ("The OP
        architecture involves sequential input reads", Section III), so
        a streaming prefetcher fetches them without occupying MSHRs or
        paying per-access latency.  If the line is already on-chip it is
        read from the buffer (a hit); otherwise it streams from DRAM --
        counted as a miss (the data was off-chip) but charged only
        bandwidth.  Streamed lines are not allocated: the PE stationary
        buffer holds them and they have no further reuse this pass.
        """
        if self.buffer.contains(addr):
            self.mac_load(addr, cls, tag)
            return
        self.stats.requests_issued += 1
        self.stats.buffer_misses[tag] += 1
        self.issue_t += 1.0
        end = self.dram.stream_read(self.issue_t, self.buffer.line_bytes, tag)
        throttled = end - self._stream_slack
        if throttled > self.issue_t:
            self.issue_t = throttled
        self.exec_t = max(self.exec_t + 1.0, self.issue_t)
        self.stats.busy_cycles += 1

    def load(self, addr: int, cls: str, tag: str) -> None:
        """Fetch one vector without issuing a MAC (the consuming ALU op
        follows separately, e.g. the add of a PE-side read-modify-write).
        The backend waits for the data but records no busy cycle."""
        self.stats.requests_issued += 1
        slot = self._ring[self._k % self.lsq_depth]
        issue = max(self.issue_t + 1.0, slot)
        if self.forwarding and addr in self._store_map:
            ready = max(issue, self._store_map[addr])
            self.stats.lsq_forwards += 1
        else:
            ready, issue = self.buffer.read(issue, addr, cls, tag)
        self.issue_t = issue
        self.exec_t = max(self.exec_t, ready)
        self._ring[self._k % self.lsq_depth] = self.exec_t
        self._k += 1

    def mac_local(self, n: int = 1) -> None:
        """``n`` vector MACs on operands already held in the PE
        stationary buffers (no memory request)."""
        self.exec_t += n
        self.stats.busy_cycles += n

    def alu_op(self, n: int = 1) -> None:
        """``n`` PE-array cycles of non-MAC ALU work (e.g. merge adds);
        counts as busy (the adder is doing useful work)."""
        self.exec_t += n
        self.stats.busy_cycles += n

    def wait_until(self, cycle: float) -> None:
        """Stall the backend until ``cycle`` (if it is in the future)."""
        if cycle > self.exec_t:
            self.exec_t = cycle

    def store(self, addr: int, cls: str, tag: str, allocate: bool = True) -> None:
        """Store one result vector through the LSQ into the DMB.

        The store occupies an LSQ slot at issue time but does *not*
        block the frontend until the data exists: the LSQ holds the
        entry and performs the write once the producing op completes
        (the paper's LSQ explicitly decouples stores this way).
        ``allocate=False`` streams it to DRAM (write-through,
        no-allocate) -- used for outputs with no expected reuse.
        """
        self.stats.requests_issued += 1
        slot = self._ring[self._k % self.lsq_depth]
        issue = max(self.write_t + 1.0, slot)
        # The buffer/DRAM see the request at its (monotone) issue time;
        # the LSQ entry is held until the producing op's data exists.
        self.buffer.write(issue, addr, cls, tag, allocate=allocate)
        self.write_t = issue
        self._ring[self._k % self.lsq_depth] = max(issue + 1.0, self.exec_t)
        self._k += 1
        self._record_store(addr, self.exec_t)

    def accumulate_store(self, addr: int, tag: str = "partial") -> None:
        """Emit one partial output to the DMB's near-memory accumulator.

        The add happens at the buffer, not in the PE array, so the
        backend does not stall; the request still occupies an LSQ slot
        and the DMB's write queue.
        """
        self.stats.requests_issued += 1
        slot = self._ring[self._k % self.lsq_depth]
        issue = max(self.write_t + 1.0, slot)
        self.buffer.accumulate(issue, addr, tag)
        self.write_t = issue
        self._ring[self._k % self.lsq_depth] = max(issue + 1.0, self.exec_t)
        self._k += 1
        self._record_store(addr, self.exec_t)

    def rmw(self, addr: int, cls: str, tag: str) -> None:
        """Read-modify-write of one output vector *through the PE array*
        (the no-near-memory-accumulator way to merge a partial output):
        load the current value, spend an adder cycle, store it back."""
        self.load(addr, cls, tag)
        self.alu_op(1)
        self.store(addr, cls, tag, allocate=True)

    def stream(self, nbytes: int, tag: str) -> None:
        """Consume ``nbytes`` of an SMQ-prefetched sequential stream.

        Charges DRAM bandwidth; throttles the frontend only if the
        stream falls more than one SMQ buffer behind the consumption
        point.
        """
        end = self.dram.stream_read(self.issue_t, nbytes, tag)
        throttled = end - self._stream_slack
        if throttled > self.issue_t:
            self.issue_t = throttled

    # ------------------------------------------------------------------
    def drain(self) -> float:
        """Finish in-flight work; returns the final cycle of this engine."""
        return max(self.issue_t, self.write_t, self.exec_t)

    # ------------------------------------------------------------------
    # State snapshot / restore (trace replay)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """JSON-able snapshot of all engine timing state.

        Every value is a dyadic-rational float (built from the start
        cycle by ``max`` and additions of on-grid quantities), so JSON
        round-trips it exactly; the store map is captured in insertion
        order so the forwarding-window FIFO trim replays identically.
        """
        return {
            "issue_t": self.issue_t,
            "write_t": self.write_t,
            "exec_t": self.exec_t,
            "ring": list(self._ring),
            "k": self._k,
            "store_map": [[addr, ready] for addr, ready in self._store_map.items()],
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Rebuild engine timing state from :meth:`snapshot_state`."""
        self.issue_t = float(state["issue_t"])  # type: ignore[arg-type]
        self.write_t = float(state["write_t"])  # type: ignore[arg-type]
        self.exec_t = float(state["exec_t"])  # type: ignore[arg-type]
        ring = state["ring"]
        self._ring[:] = [float(v) for v in ring]  # type: ignore[union-attr]
        self._k = int(state["k"])  # type: ignore[call-overload]
        self._store_map.clear()
        for addr, ready in state["store_map"]:  # type: ignore[union-attr]
            self._store_map[int(addr)] = float(ready)

    def _record_store(self, addr: int, ready: float) -> None:
        if not self.forwarding:
            return
        self._store_map[addr] = ready
        self._store_map.move_to_end(addr)
        while len(self._store_map) > self.lsq_depth:
            self._store_map.popitem(last=False)

    def _track_partial_peak(self) -> None:
        """PE-merge footprint tracking: distinct partial lines resident
        plus those spilled, mirroring the near-memory accumulator's
        bookkeeping (the split organisation routes partials to its
        output half)."""
        target = getattr(self.buffer, "output_buffer", self.buffer)
        footprint = (
            target.resident_lines(CLASS_PARTIAL) + len(target._spilled_partials)
        ) * target.line_bytes
        if footprint > self.stats.partial_peak_bytes:
            self.stats.partial_peak_bytes = footprint

    # ------------------------------------------------------------------
    # Batch primitives (reference implementations)
    #
    # Kernels always issue whole address batches.  These loops over the
    # scalar primitives *define* the semantics; the batched engine
    # subclass replaces them with inlined fast paths that must stay
    # cycle- and stats-exact (the equivalence property tests compare
    # full ``SimStats`` between the two paths).
    # ------------------------------------------------------------------
    def mac_load_batch(self, addrs: np.ndarray, cls: str, tag: str) -> None:
        """One :meth:`mac_load` per address, in array order."""
        t0 = self.drain()
        mac_load = self.mac_load
        for addr in addrs.tolist():
            mac_load(addr, cls, tag)
        tracer = self.tracer
        if tracer.enabled and len(addrs):
            tracer.span(
                "mac_load_batch", t0, self.drain(), "engine",
                {"n": int(len(addrs)), "cls": cls, "tag": tag},
            )

    def load_batch(self, addrs: np.ndarray, cls: str, tag: str) -> None:
        """One :meth:`load` per address, in array order."""
        t0 = self.drain()
        load = self.load
        for addr in addrs.tolist():
            load(addr, cls, tag)
        tracer = self.tracer
        if tracer.enabled and len(addrs):
            tracer.span(
                "load_batch", t0, self.drain(), "engine",
                {"n": int(len(addrs)), "cls": cls, "tag": tag},
            )

    def mac_stream_load_batch(self, addrs: np.ndarray, cls: str, tag: str) -> None:
        """One :meth:`mac_stream_load` per address, in array order."""
        t0 = self.drain()
        mac_stream_load = self.mac_stream_load
        for addr in addrs.tolist():
            mac_stream_load(addr, cls, tag)
        tracer = self.tracer
        if tracer.enabled and len(addrs):
            tracer.span(
                "mac_stream_load_batch", t0, self.drain(), "engine",
                {"n": int(len(addrs)), "cls": cls, "tag": tag},
            )

    def store_batch(
        self, addrs: np.ndarray, cls: str, tag: str, allocate: bool = True
    ) -> None:
        """One :meth:`store` per address, in array order."""
        t0 = self.drain()
        store = self.store
        for addr in addrs.tolist():
            store(addr, cls, tag, allocate=allocate)
        tracer = self.tracer
        if tracer.enabled and len(addrs):
            tracer.span(
                "store_batch", t0, self.drain(), "engine",
                {"n": int(len(addrs)), "cls": cls, "tag": tag},
            )

    def accumulate_store_batch(self, addrs: np.ndarray, tag: str = "partial") -> None:
        """One :meth:`accumulate_store` per address, in array order."""
        t0 = self.drain()
        accumulate_store = self.accumulate_store
        for addr in addrs.tolist():
            accumulate_store(addr, tag)
        tracer = self.tracer
        if tracer.enabled and len(addrs):
            tracer.span(
                "accumulate_store_batch", t0, self.drain(), "engine",
                {"n": int(len(addrs)), "tag": tag},
            )

    def merge_rmw_batch(
        self,
        addrs: np.ndarray,
        cls: str,
        tag: str,
        touched: Set[int],
        track_peak: bool = False,
    ) -> None:
        """Merge one partial output per address through the PE array.

        The no-near-memory-accumulator merge path: the first touch of a
        line write-allocates (nothing to read yet); later touches are a
        read-modify-write.  ``touched`` is the caller's cross-batch set
        of first-touched addresses; ``track_peak`` additionally mirrors
        the accumulator's partial-footprint peak tracking (kernels track
        it, the CWP baseline's PE-local pool does not)."""
        t0 = self.drain()
        stats = self.stats
        for addr in addrs.tolist():
            stats.partials_produced += 1
            if addr in touched:
                self.rmw(addr, cls, tag)
            else:
                touched.add(addr)
                self.store(addr, cls, tag)
            if track_peak:
                self._track_partial_peak()
        tracer = self.tracer
        if tracer.enabled and len(addrs):
            tracer.span(
                "merge_rmw_batch", t0, self.drain(), "engine",
                {"n": int(len(addrs)), "cls": cls, "tag": tag},
            )


class BatchedAccessExecuteEngine(AccessExecuteEngine):
    """Vectorized batch-issue fast path of the decoupled pipeline.

    Overrides every batch primitive with a single Python loop that
    inlines the per-address hot path -- LSQ ring slot, store-to-load
    forwarding probe, slot-arena residency probe, one-splice intrusive
    LRU touch and the three-timeline arithmetic -- and batches the
    stats-counter updates.  Both load primitives share one loop
    (:meth:`_load_batch`); a per-batch ``step`` carries the one cycle a
    MAC adds to the backend.  Misses run through the buffer's
    single-frame :meth:`repro.sim.buffer.CacheBuffer._read_miss` /
    ``_insert``, so the MSHR/DRAM/eviction machinery has exactly one
    implementation, shared with the scalar engine.  The forwarding
    window likewise has one implementation, :meth:`_record_store` and
    :meth:`_record_stores`: the only writers of the store map and its
    per-space counts.  Store and accumulate batches, whose stores all
    forward one ``exec_t`` and whose loads never probe, record the
    whole batch once at its end; merges probe inside the batch and
    record each store as it happens.

    On top of the flat loops, each load, accumulate and merge batch
    makes *lazy* attempts at one hit-side shape at the cursor -- no
    pre-classification pass over the batch.  Loads try the numpy
    all-hit lane (:meth:`_all_hit_lane`): when a run is entirely
    resident, ready in time, and outside the forwarding window, the
    uniform-latency timeline recurrence is computed elementwise in
    closed form and the LRU touches applied as one run of C-level list
    splices.  Accumulates try the accumulate-hit run
    (:meth:`_hit_run_epoch`), merges the read-modify-write hit run
    (:meth:`_merge_hit_epoch`); both replay the flat loop's float
    recurrence and commit the run's slot state in bulk.  Store batches
    take one flat pass: no measured workload issues a store batch long
    enough to attempt a hit run.  Each shape verifies its own run and
    declines in O(1) probes, so an attempt is nearly free; the lane
    additionally only engages when an exactness gate proves the closed
    form bit-identical to the sequential loop (all operands on a dyadic
    grid, see ``_LANE_MAG``).  Everything
    else, misses included, takes the flat loop, which performs the
    *same scalar operations in the same order* as the reference engine.
    Either way every cycle value is bit-identical to the scalar engine
    -- the equivalence contract ``docs/performance.md`` documents and
    ``tests/sim/test_engine_equivalence.py`` enforces.  Each shape
    stays because an interleaved A/B against the flat loop measured it
    paying; miss-side shapes did not and are gone (same document).
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Live count of forwarding-window addresses per address-space
        # prefix (``addr >> _SPACE_BITS``), kept in sync by the window
        # methods below; see :meth:`_forward_active`.
        self._store_spaces: Dict[int, int] = {}
        # Cached [0, 1, ..., lsq_depth) for the vector lane's prefix-max
        # recurrence (sliced per call, never reallocated).
        self._lane_idx = np.arange(self.lsq_depth, dtype=np.float64)
        # Whole-simulation grid proof for the vector lane.  Every cycle
        # value any engine produces is built from the start cycle by
        # max() and by adding 1.0, integer latencies, or DRAM transfer
        # costs ``nbytes / bytes_per_cycle``.  When bytes_per_cycle is a
        # power of two <= 2^16, every such cost is an exact multiple of
        # 2^-16; with a nonnegative on-grid start cycle the induction
        # gives *every* timeline/ring/ready/forwarding value nonnegative
        # and on the 2^-16 grid, so the lane's per-array grid gate is
        # provably redundant and only magnitude checks remain.
        bpc = self.dram.config.bytes_per_cycle
        self._lane_grid_exact = (
            bpc > 0.0
            and math.frexp(bpc)[0] == 0.5
            and bpc <= 65536.0
            and self.issue_t >= 0.0
            and (self.issue_t * 65536.0).is_integer()
            and (self._stream_slack * 65536.0).is_integer()
        )

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore timing state and rebuild the space-prefix index the
        batched forwarding filter keys on (derived from the store map,
        so it is not part of the snapshot wire format)."""
        super().restore_state(state)
        spaces = self._store_spaces
        spaces.clear()
        for a in self._store_map:
            sp = a >> _SPACE_BITS
            spaces[sp] = spaces.get(sp, 0) + 1

    # ------------------------------------------------------------------
    # Forwarding window: the store map plus its per-space counts.  These
    # two methods are the only writers of either.
    # ------------------------------------------------------------------
    def _record_store(self, addr: int, ready: float) -> None:
        """One store, trimmed at once: for callers whose later loads
        probe the window before the batch ends.  The window holds at
        most ``lsq_depth`` entries between calls, so the trim is at
        most one pop."""
        if not self.forwarding:
            return
        store_map = self._store_map
        if addr in store_map:
            store_map[addr] = ready
            store_map.move_to_end(addr)
            return
        store_map[addr] = ready
        spaces = self._store_spaces
        sp = addr >> _SPACE_BITS
        spaces[sp] = spaces.get(sp, 0) + 1
        if len(store_map) > self.lsq_depth:
            a, _ = store_map.popitem(last=False)
            sp = a >> _SPACE_BITS
            c = spaces[sp] - 1
            if c:
                spaces[sp] = c
            else:
                del spaces[sp]

    def _record_stores(self, run: List[int], readies: List[float]) -> None:
        """A run of stores, ``readies`` parallel to ``run``, then the trim.

        Leaves the window the per-store sequence leaves: every store
        moves its address to the most-recent end with its value.  One
        C-level ``update`` appends the run's new addresses in order and
        gives every address its last value; only a run that meets the
        window or repeats an address then needs the moves.  When the
        run's last ``lsq_depth`` stores are distinct they are the whole
        window after the trim, so only they are recorded.  A run of one
        (the usual store batch) costs less as one :meth:`_record_store`.
        The caller checks ``forwarding``."""
        if len(run) == 1:
            self._record_store(run[0], readies[0])
            return
        depth = self.lsq_depth
        if len(run) > depth and len(set(run[-depth:])) == depth:
            run = run[-depth:]
            readies = readies[-depth:]
        store_map = self._store_map
        size = len(store_map)
        store_map.update(zip(run, readies))
        new = len(store_map) - size
        if new:
            spaces = self._store_spaces
            sp = run[0] >> _SPACE_BITS
            if sp == run[-1] >> _SPACE_BITS:
                # One space, by the monotone-batch invariant (see
                # _forward_active).
                spaces[sp] = spaces.get(sp, 0) + new
            else:
                # The new addresses are the last ``new`` entries.
                for a in islice(reversed(store_map), new):
                    sp = a >> _SPACE_BITS
                    spaces[sp] = spaces.get(sp, 0) + 1
        if new != len(run):
            move = store_map.move_to_end
            for a in run:
                move(a)
        over = len(store_map) - depth
        if over <= 0:
            return
        # Trimming once at the end leaves the same window as trimming
        # after every store: both keep the last ``lsq_depth`` distinct
        # addresses in last-store order.
        spaces = self._store_spaces
        pop = store_map.popitem
        if len(spaces) == 1:
            # One space holds the whole window, so its count after the
            # trim is the window size itself.
            for _ in repeat(None, over):
                pop(last=False)
            for sp in spaces:
                spaces[sp] = depth
            return
        for _ in repeat(None, over):
            a, _ = pop(last=False)
            sp = a >> _SPACE_BITS
            c = spaces[sp] - 1
            if c:
                spaces[sp] = c
            else:
                del spaces[sp]

    def _forward_active(self, addr_list: List[int]) -> bool:
        """Whether the forwarding window could match *any* address of
        the batch.

        Kernels emit monotone address batches, so equal first/last
        space prefixes mean the whole batch lives in one (space, layer)
        region and a single ``_store_spaces`` lookup settles it; a
        batch spanning regions conservatively probes per address.
        """
        if not self.forwarding or not self._store_map:
            return False
        sp = addr_list[0] >> _SPACE_BITS
        if sp != (addr_list[-1] >> _SPACE_BITS):
            return True
        return sp in self._store_spaces

    # ------------------------------------------------------------------
    # All-hit vector lane
    # ------------------------------------------------------------------
    def _all_hit_lane(
        self, buf: CacheBuffer, addr_list: List[int], step: float
    ) -> int:
        """Vectorize the longest all-hit prefix of a load batch.

        Preconditions (checked here; any failure returns 0 or a shorter
        prefix and the caller's flat loop handles the rest):

        * every prefix address resident in ``buf`` (hits never allocate
          or evict, so residency is invariant across the prefix);
        * every hit line ready by its issue floor
          (``line.ready <= issue_t + 1 + hit_latency``), so each
          per-element ready is exactly ``issue + hit_latency``;
        * the caller established the forwarding window cannot match
          (space filter empty), so no per-address store-map probe;
        * ``issue_t``/``exec_t`` and every consumed LSQ ring value on
          the 2^-16 grid with magnitude < 2^35, so the closed-form
          recurrences below are exact real arithmetic -- the same
          per-element operations as the flat loop, just elementwise.

        With ``S_j`` the pre-lane ring values (``j < depth``), the
        sequential all-hit recurrences

        ``issue_i = max(issue_(i-1) + 1, ring_slot_i)``
        ``ready_i = issue_i + hit_latency``
        ``exec_i  = max(exec_(i-1) + step, ready_i)``

        (``step`` is 1.0 for a MAC load, 0.0 for a plain one) unroll to
        ``issue_i = i + base_i`` and
        ``exec_i = max(base_i + hit_latency + i, exec_t + step * (i + 1))``
        with
        ``base_i = max(issue_t + 1, max_{j<=min(i, depth-1)}(S_j - j))``
        -- a prefix maximum over *at most lsq_depth* values, because
        ring slots consumed beyond ``depth`` were written by this lane
        and provably never bind: the exec timeline leads the issue
        timeline by at most ``C = max(exec_t - issue_t, hit_latency)``
        throughout an all-hit run, so the slot-reuse constraint
        ``exec_(i-depth) <= issue_(i-1) + 1`` holds whenever
        ``C <= depth`` (checked; the lane truncates to ``depth``
        elements otherwise).  Past ``depth`` everything is affine in
        ``i``, so the whole lane costs O(lsq_depth) numpy work no
        matter how long the batch.

        The per-element ready check itself is usually free: the
        buffer's ``_max_ready`` watermark bounds every resident line's
        ready time, so when it sits at or below the first issue floor
        no gather is needed at all.

        LRU touches are applied afterwards in batch order -- each one
        C-level intrusive-list splice, duplicates re-splicing exactly
        like the sequential per-hit touches.

        Returns the number of prefix elements consumed (0 if the lane
        did not engage); updates ``issue_t``/``exec_t``/ring/``_k`` and
        the LRU lists for exactly that prefix.
        """
        slot_of = buf._slot_of
        if not slot_of or addr_list[0] not in slot_of:
            return 0
        issue_t = self.issue_t
        exec_t = self.exec_t
        if self._lane_grid_exact:
            # On-grid and nonnegative by construction; bound magnitude.
            if issue_t >= _LANE_MAG or exec_t >= _LANE_MAG:
                return 0
        elif not (_lane_scalar_ok(issue_t) and _lane_scalar_ok(exec_t)):
            return 0
        n = len(addr_list)
        try:
            slot_list = list(map(slot_of.__getitem__, addr_list))
            m = n
        except KeyError:
            # Some later address is non-resident: find the resident
            # prefix by direct probing -- the raised KeyError guarantees
            # the loop stops before the end, so a short prefix costs
            # O(prefix) probes, never a full-tail residency pass.
            m = 1
            while addr_list[m] in slot_of:
                m += 1
            if m < _LANE_MIN:
                return 0
            slot_list = list(map(slot_of.__getitem__, addr_list[:m]))
        hit_lat = buf.hit_latency
        floor0 = issue_t + 1.0 + hit_lat
        if buf._max_ready > floor0:
            ready_list = list(map(buf._slot_ready.__getitem__, slot_list))
            if max(ready_list) > floor0:
                ready_arr = np.fromiter(ready_list, np.float64, count=m)
                m = int(np.argmin(ready_arr <= floor0))
                if m < _LANE_MIN:
                    return 0
                slot_list = slot_list[:m]
        depth = self.lsq_depth
        if m > depth and exec_t - issue_t > depth:
            # The ring-feedback no-bind bound needs C <= depth; consume
            # only pre-lane ring slots instead.
            m = depth
            slot_list = slot_list[:m]
        ring = self._ring
        k0 = self._k % depth
        w = m if m < depth else depth
        if k0 + w <= depth:
            S = np.array(ring[k0 : k0 + w], dtype=np.float64)
        else:
            cut = depth - k0
            S = np.empty(w, dtype=np.float64)
            S[:cut] = ring[k0:]
            S[cut:] = ring[: w - cut]
        idx = self._lane_idx[:w]
        if self._lane_grid_exact:
            # Ring values are on-grid and nonnegative by construction
            # (see ``__init__``); compute the prefix max in place and
            # bound the magnitude afterwards -- ``bl + depth`` bounds
            # every consumed ring value, so one scalar comparison
            # replaces the per-array gate.  (An over-bound value makes
            # ``bl`` huge even under rounding, so the check is safe.)
            np.subtract(S, idx, out=S)
            np.maximum.accumulate(S, out=S)
            base = np.maximum(S, issue_t + 1.0, out=S)
            bl = float(base[w - 1])
            if bl + depth >= _LANE_MAG:
                return 0
        else:
            # Exactness gate on the consumed pre-lane ring values
            # (values the lane writes are grid sums of grid values,
            # still exact).
            scaled = S * 65536.0
            if not (
                (np.abs(S) < _LANE_MAG).all()
                and (scaled == np.floor(scaled)).all()
            ):
                return 0
            base = np.maximum(issue_t + 1.0, np.maximum.accumulate(S - idx))
            bl = float(base[w - 1])
        # exec_i = max(base_i + h + i, exec_t + step * (i + 1)): exact
        # on the grid, so the same values the flat loop computes.
        h = float(hit_lat)
        np.add(base, h, out=base)
        np.add(base, idx, out=base)
        e_head = np.maximum(base, idx * step + (exec_t + step), out=base).tolist()
        if m <= depth:
            if k0 + m <= depth:
                ring[k0 : k0 + m] = e_head
            else:
                cut = depth - k0
                ring[k0:] = e_head[:cut]
                ring[: m - cut] = e_head[cut:]
            exec_last = e_head[-1]
        else:
            # The final ring state is E_i for the last `depth` elements;
            # past i = depth the base is the constant `bl`, so those
            # values are affine in i.
            lo = m - depth
            start_i = depth if lo < depth else lo
            ar = np.arange(start_i, m, dtype=np.float64)
            aff = np.maximum(ar + (bl + h), ar * step + (exec_t + step)).tolist()
            tail_vals = (e_head[lo:] + aff) if lo < depth else aff
            p0 = (k0 + lo) % depth
            cut = depth - p0
            ring[p0:] = tail_vals[:cut]
            ring[:p0] = tail_vals[cut:]
            exec_last = tail_vals[-1]
        self.issue_t = (m - 1) + max(issue_t + 1.0, bl)
        self.exec_t = exec_last
        self._k += m
        if buf.lru:
            # Bulk LRU touch in batch order: per-slot C-level list
            # splices; a duplicate slot re-splices to the tail exactly
            # like the sequential per-hit touches would.
            ods = buf._lru_mte
            cls_arr = buf._slot_cls
            for s in slot_list:
                ods[cls_arr[s]](s)
        return m

    # ------------------------------------------------------------------
    # Accumulate- and merge-hit runs
    # ------------------------------------------------------------------
    def _hit_run_epoch(
        self, buf: CacheBuffer, addr_list: List[int], i: int
    ) -> int:
        """Process a run of near-memory accumulate hits as one epoch.

        The steady-state accumulate shape: a run of consecutive
        *distinct resident* addresses, each an accumulate hit.  The
        exactness cut is residency: within such a run nothing inserts,
        evicts or spills, so no element's processing can change the
        classification of the ones after it, the partial footprint is
        constant, and the only state the run touches is the run's own
        slots -- distinct, so the dirty/ready/LRU mutations commute
        into the bulk :meth:`CacheBuffer._commit_hit_epoch`.  The
        write-timeline
        recurrence runs flat-in-locals with the exact float op order of
        the flat hit branch (LSQ slot floor, constant exec floor); the
        run ends at the first duplicate or non-resident address, where
        the flat path's insert/refetch machinery takes over.

        The run reproduces the per-hit footprint bookkeeping against
        the stats object at the constant footprint -- the caller syncs
        ``partials_produced`` / ``partial_peak_bytes`` around the call,
        exactly as around the flat spilled-refetch branch.  Returns
        addresses consumed (0 if below ``_HIT_RUN_MIN``); the caller
        owns the hit counter.

        On grid-exact configurations the whole write recurrence takes
        a closed form, the write-side analogue of :meth:`_all_hit_lane`:
        for the first ``w = min(m, depth)`` frames the slot floors are
        the pre-epoch ring values ``S_j``, so
        ``b_f = max(b_(f-1) + 1, S_f)`` unrolls to the prefix maximum
        ``b_f = (f-1) + max(write_t + 1, max_(j<=f)(S_j - (j-1)))``;
        past ``depth``
        every slot floor was written by this run
        (``ring = max(b_(f-depth) + 1, exec_t)``) and
        ``b_(f-1) + 1 >= b_(f-depth) + 1`` by monotonicity, so the
        recurrence collapses to ``b_f = max(b_(f-1) + 1, exec_t)`` --
        one comparison decides the whole tail: either it never binds
        (``b_w + 1 >= exec_t``, pure ``+1`` per frame) or it binds once
        and then advances by 1.  On the 2^-16 dyadic grid with
        magnitudes below ``_LANE_MAG`` (gated before any mutation)
        every op is exact real arithmetic, so the numpy evaluation is
        bit-identical to the flat loop.
        """
        slot_of = buf._slot_of
        if addr_list[i] not in slot_of:
            # Fast decline before any allocation: the caller attempts
            # lazily, so a non-resident cursor is the common case.
            return 0
        n = len(addr_list)
        tail = addr_list[i:] if i else addr_list
        try:
            # C-level gather, same trick as _all_hit_lane: the raised
            # KeyError finds the resident prefix without a Python loop.
            slots = list(map(slot_of.__getitem__, tail))
            run = tail
            m = n - i
        except KeyError:
            j = i + 1
            while j < n and addr_list[j] in slot_of:
                j += 1
            m = j - i
            if m < _HIT_RUN_MIN:
                return 0
            run = addr_list[i:j]
            slots = list(map(slot_of.__getitem__, run))
        if len(set(run)) != m:
            # A duplicate cuts the run: rescan for the first repeat.
            seen: Set[int] = set()
            seen_add = seen.add
            m = 0
            for a in run:
                if a in seen:
                    break
                seen_add(a)
                m += 1
            if m < _HIT_RUN_MIN:
                return 0
            run = run[:m]
            slots = slots[:m]
        if m < _HIT_RUN_MIN:
            return 0
        hit_lat = buf.hit_latency
        ring = self._ring
        depth = self.lsq_depth
        k = self._k % depth
        write_t = self.write_t
        # Accumulates never advance the backend: constant exec floor,
        # like the flat accumulate loop.
        exec_t = self.exec_t
        readies: Optional[List[float]] = None
        if self._lane_grid_exact and m >= 64:
            # 64, not _HIT_RUN_MIN: below that the ~10 numpy dispatches
            # of the closed form cost more than the flat-in-locals
            # loop they replace (measured on the hymm/op-tiled
            # accumulate distributions, which cluster at m = 8..48).
            # Closed form (see docstring).  Prefix-max over the at most
            # ``depth`` pre-epoch ring values the run can observe:
            w = m if m < depth else depth
            if k + w <= depth:
                S = np.array(ring[k : k + w], dtype=np.float64)
            else:
                cut = depth - k
                S = np.empty(w, dtype=np.float64)
                S[:cut] = ring[k:]
                S[cut:] = ring[: w - cut]
            idx = self._lane_idx[:w]
            np.subtract(S, idx, out=S)
            np.maximum.accumulate(S, out=S)
            np.maximum(S, write_t + 1.0, out=S)
            np.add(S, idx, out=S)  # b_f for f = 1..w
            r = m - w
            if r:
                bw = float(S[w - 1])
                if bw + 1.0 >= exec_t:
                    tail = np.arange(r, dtype=np.float64) + (bw + 1.0)
                else:
                    tail = np.arange(r, dtype=np.float64) + exec_t
                b_all = np.concatenate([S, tail])
            else:
                b_all = S
            b_last = float(b_all[m - 1])
            if b_last + 1.0 + hit_lat < _LANE_MAG:
                # Magnitude gate passed: commit.  Only the last
                # min(m, depth) ring writes survive; their positions
                # form at most two contiguous ring segments, so the
                # fill is two C-level slice assignments.
                readies = (b_all + float(hit_lat)).tolist()
                f0 = m - depth + 1 if m > depth else 1
                wvals = b_all[f0 - 1 :] + 1.0
                np.maximum(wvals, exec_t, out=wvals)
                wl = wvals.tolist()
                c = len(wl)
                start = (k + f0 - 1) % depth
                seg = depth - start
                if c <= seg:
                    ring[start : start + c] = wl
                else:
                    ring[start:] = wl[:seg]
                    ring[: c - seg] = wl[seg:]
                k = (k + m) % depth
                write_t = b_last
        if readies is None:
            readies = []
            rd_append = readies.append
            for _ in range(m):
                rk = ring[k]
                b = write_t + 1.0
                if rk > b:
                    b = rk
                write_t = b
                rd_append(b + hit_lat)
                r2 = b + 1.0
                if exec_t > r2:
                    r2 = exec_t
                ring[k] = r2
                k += 1
                if k == depth:
                    k = 0
        self.write_t = write_t
        self._k += m
        # Hits never change the partial footprint, so every per-hit
        # peak check and strided timeline sample in the run sees the
        # same value.
        stats = self.stats
        footprint = (
            buf._class_count[_PARTIAL_IDX] + len(buf._spilled_partials)
        ) * buf.line_bytes
        if footprint > stats.partial_peak_bytes:
            stats.partial_peak_bytes = footprint
        stride = stats.PARTIAL_TIMELINE_STRIDE
        timeline = stats.partial_timeline
        pp0 = stats.partials_produced
        first = pp0 + 1
        for p in range(first + (-first) % stride, pp0 + m + 1, stride):
            timeline.append((p, footprint))
        stats.partials_produced = pp0 + m
        buf._commit_hit_epoch(slots, readies)
        return m

    def _merge_hit_epoch(
        self, buf: CacheBuffer, addr_list: List[int], i: int,
        touched: Set[int],
    ) -> Tuple[int, int]:
        """Process a run of read-modify-write hits as one epoch.

        The steady-state merge shape: a run of consecutive *distinct
        resident already-touched* addresses, each one load + adder
        cycle + store-back.  Residency is again the cut (nothing in the
        run inserts or evicts, so classification and footprint are
        frozen) and distinctness makes the slot mutations commute into
        :meth:`CacheBuffer._commit_hit_epoch` -- the load leg's ready
        floors are pre-gathered (an earlier frame's store-back only
        writes its *own* slot, never a later frame's), and the net LRU
        effect of a frame's load-touch + store-touch of the same slot
        is one splice.  The coupled issue/write/exec recurrence runs
        flat-in-locals with the exact float op order of the flat rmw
        path.

        The forwarding window resolves without declining.  The final
        window is the run recorded in bulk (:meth:`_record_stores`),
        which is the window the per-store sequence leaves.  Only the
        in-run probes need care.  When the window holds *none* of the run's
        addresses at entry, no load in the run can ever forward --
        in-run stores only add run addresses, each distinct from every
        later load, and trims only remove entries -- so the per-frame
        probe disappears.

        An *overlapping* run keeps the per-frame probe.  A load
        forwards iff its address sits in the pre-run window and has not
        been trimmed yet (in-run stores never serve in-run loads -- the
        run's addresses are distinct), and its forwarded value is the
        pre-run entry's, untouched; the frame's store then *refreshes*
        that entry while a non-forwarding frame's store *inserts* and,
        past ``lsq_depth``, trims the oldest unconsumed pre-run entry.
        Trims never reach in-run entries: ``inserts + refreshes = m <=
        lsq_depth`` while pops number at most ``inserts``, so
        unconsumed pre-run entries always suffice.  A ``gone`` set over
        the (unmutated) pre-run snapshot therefore resolves every probe
        and pop exactly.  Timing stays on the flat loop's exact float
        op order either way.

        Returns ``(consumed, forwards)``; the caller owns every stat
        counter (the tuple shape mirrors the flat path's accounting:
        each frame's store-back hits, each unforwarded load hits,
        forwarded loads count as forwards).
        """
        slot_of = buf._slot_of
        a = addr_list[i]
        if a not in slot_of or a not in touched:
            # Fast decline before any allocation; see _hit_run_epoch.
            return 0, 0
        slot_ready = buf._slot_ready
        n = len(addr_list)
        # Cap the gather at lsq_depth frames per attempt: a long run
        # then costs O(depth) per attempt instead of O(remaining
        # batch) -- re-attempts after each consumed chunk would
        # otherwise go quadratic -- and the window trim-resolution
        # argument (docstring) needs ``m <= lsq_depth``.
        stop = i + self.lsq_depth
        if stop > n:
            stop = n
        tail = addr_list[i:stop] if (i or stop < n) else addr_list
        try:
            # C-level gather, same trick as _all_hit_lane.
            slots = list(map(slot_of.__getitem__, tail))
            run = tail
            m = stop - i
        except KeyError:
            j = i + 1
            while j < stop and addr_list[j] in slot_of:
                j += 1
            m = j - i
            if m < _MERGE_HIT_MIN:
                return 0, 0
            run = addr_list[i:j]
            slots = list(map(slot_of.__getitem__, run))
        if not touched.issuperset(run):
            # First untouched address cuts the run.
            mm = 1
            while mm < m and run[mm] in touched:
                mm += 1
            if mm < _MERGE_HIT_MIN:
                return 0, 0
            m = mm
            run = run[:m]
            slots = slots[:m]
        if len(set(run)) != m:
            # A duplicate cuts the run: rescan for the first repeat.
            seen: Set[int] = set()
            seen_add = seen.add
            mm = 0
            for a in run:
                if a in seen:
                    break
                seen_add(a)
                mm += 1
            if mm < _MERGE_HIT_MIN:
                return 0, 0
            m = mm
            run = run[:m]
            slots = slots[:m]
        if m < _MERGE_HIT_MIN:
            return 0, 0
        fwd = self.forwarding
        store_map = self._store_map
        overlap = (
            fwd
            and bool(store_map)
            and not store_map.keys().isdisjoint(run)
        )
        if overlap and len(store_map) > self.lsq_depth:
            # The trim-resolution argument needs the window at or
            # below lsq_depth on entry (every in-tree caller keeps it
            # there): decline to the flat loop.
            return 0, 0
        floors = list(map(slot_ready.__getitem__, slots))
        hit_lat = buf.hit_latency
        ring = self._ring
        depth = self.lsq_depth
        k = self._k % depth
        issue_t = self.issue_t
        write_t = self.write_t
        exec_t = self.exec_t
        readies: List[float] = []
        rd_append = readies.append
        wvals: List[float] = []
        wv_append = wvals.append
        nfw = 0
        if overlap:
            # Per-frame window resolution against the pre-run snapshot
            # (see docstring).
            gone: Set[int] = set()
            gone_add = gone.add
            sm_get = store_map.get
            order_it = None
            size = len(store_map)
            for a, f in zip(run, floors):
                # Load leg (rmw = load + alu_op(1) + store).
                rk = ring[k]
                b = issue_t + 1.0
                if rk > b:
                    b = rk
                v = sm_get(a)
                if v is not None and a not in gone:
                    # Forwarded from the pre-run entry; the store leg
                    # below refreshes it (no size change).
                    ready = v
                    if b > ready:
                        ready = b
                    gone_add(a)
                    nfw += 1
                else:
                    ready = b + hit_lat
                    if f > ready:
                        ready = f
                    size += 1
                    if size > depth:
                        # Trim the oldest unconsumed pre-run entry.
                        if order_it is None:
                            order_it = iter(tuple(store_map))
                        for a2 in order_it:
                            if a2 not in gone:
                                gone_add(a2)
                                size -= 1
                                break
                issue_t = b
                if ready > exec_t:
                    exec_t = ready
                ring[k] = exec_t
                k += 1
                if k == depth:
                    k = 0
                exec_t += 1.0
                # Store leg.
                rk = ring[k]
                b2 = write_t + 1.0
                if rk > b2:
                    b2 = rk
                write_t = b2
                rd_append(b2 + hit_lat)
                r2 = b2 + 1.0
                if exec_t > r2:
                    r2 = exec_t
                ring[k] = r2
                k += 1
                if k == depth:
                    k = 0
                wv_append(exec_t)
        else:
            for f in floors:
                # Load leg (rmw = load + alu_op(1) + store).
                rk = ring[k]
                b = issue_t + 1.0
                if rk > b:
                    b = rk
                ready = b + hit_lat
                if f > ready:
                    ready = f
                issue_t = b
                if ready > exec_t:
                    exec_t = ready
                ring[k] = exec_t
                k += 1
                if k == depth:
                    k = 0
                exec_t += 1.0
                # Store leg.
                rk = ring[k]
                b2 = write_t + 1.0
                if rk > b2:
                    b2 = rk
                write_t = b2
                rd_append(b2 + hit_lat)
                r2 = b2 + 1.0
                if exec_t > r2:
                    r2 = exec_t
                ring[k] = r2
                k += 1
                if k == depth:
                    k = 0
                wv_append(exec_t)
        self.issue_t = issue_t
        self.write_t = write_t
        self.exec_t = exec_t
        self._k += 2 * m
        if fwd:
            self._record_stores(run, wvals)
        buf._commit_hit_epoch(slots, readies)
        return m, nfw

    # ------------------------------------------------------------------
    # Batch primitives (inlined fast paths)
    # ------------------------------------------------------------------
    def mac_load_batch(self, addrs: np.ndarray, cls: str, tag: str) -> None:
        self._load_batch(addrs, cls, tag, True)

    def load_batch(self, addrs: np.ndarray, cls: str, tag: str) -> None:
        self._load_batch(addrs, cls, tag, False)

    def _load_batch(self, addrs: np.ndarray, cls: str, tag: str, mac: bool) -> None:
        """The one flat load loop behind both load primitives.  A MAC
        load advances the backend one cycle past the previous op; a
        plain fetch only waits for its data.  ``step`` carries that
        difference as a per-batch constant: cycle values are
        nonnegative, so ``exec_t + 0.0`` is ``exec_t`` exactly."""
        n = len(addrs)
        if n == 0:
            return
        tracer = self.tracer
        t0 = self.drain()
        stats = self.stats
        buf = self.buffer.route(cls)
        addr_list = addrs.tolist()
        fwd = self._forward_active(addr_list)
        slot_of = buf._slot_of
        slot_ready = buf._slot_ready
        ods = buf._lru_mte
        cls_arr = buf._slot_cls
        outstanding = buf._outstanding
        read_miss = buf._read_miss
        lru = buf.lru
        hit_lat = buf.hit_latency
        store_map = self._store_map
        ring = self._ring
        depth = self.lsq_depth
        step = 1.0 if mac else 0.0
        hits = 0
        misses = 0
        fetches = 0
        forwards = 0
        i = 0
        # Lane attempts are *lazy* -- no pre-classification pass over
        # the batch.  The lane verifies its own run and declines in
        # O(1) probes when the run at the cursor is short, so an
        # all-hit batch costs exactly one lane pass.  After a decline
        # the flat loop processes just the residency run at the cursor
        # and the lane retries; the retry budget (restored by every
        # consumed run) bounds declined-probe overhead on fragmented
        # batches, beyond which the remainder takes one flat pass.
        rounds = 0 if fwd else 2
        while i < n:
            target = n
            if rounds and n - i >= _LANE_MIN:
                consumed = self._all_hit_lane(
                    buf, addr_list[i:] if i else addr_list, step
                )
                if consumed:
                    hits += consumed
                    i += consumed
                    rounds = 2
                    continue
                rounds -= 1
                if rounds:
                    target = _residency_run_end(slot_of, addr_list, i)
            k = self._k % depth
            issue_t = self.issue_t
            exec_t = self.exec_t
            for addr in addr_list[i:target]:
                slot = ring[k]
                issue = issue_t + 1.0
                if slot > issue:
                    issue = slot
                if fwd and addr in store_map:
                    ready = store_map[addr]
                    if issue > ready:
                        ready = issue
                    forwards += 1
                else:
                    s = slot_of.get(addr)
                    if s is not None:
                        if lru:
                            ods[cls_arr[s]](s)
                        hits += 1
                        ready = issue + hit_lat
                        sr = slot_ready[s]
                        if sr > ready:
                            ready = sr
                    else:
                        misses += 1
                        pending = outstanding.get(addr)
                        if pending is not None:
                            # Secondary miss: merged into the pending MSHR.
                            ready = issue + hit_lat
                            if pending > ready:
                                ready = pending
                        else:
                            fetches += 1
                            ready, issue = read_miss(issue, addr, cls, tag)
                issue_t = issue
                e = exec_t + step
                if ready > e:
                    e = ready
                exec_t = e
                ring[k] = e
                k += 1
                if k == depth:
                    k = 0
            self.issue_t = issue_t
            self.exec_t = exec_t
            self._k += target - i
            i = target
        stats.requests_issued += n
        if mac:
            stats.busy_cycles += n
        if hits:
            stats.buffer_hits[tag] += hits
        if misses:
            stats.buffer_misses[tag] += misses
        if fetches:
            stats.dram_read_bytes[tag] += fetches * buf.line_bytes
        if forwards:
            stats.lsq_forwards += forwards
        if tracer.enabled:
            tracer.span(
                "mac_load_batch" if mac else "load_batch",
                t0, self.drain(), "engine", {"n": n, "cls": cls, "tag": tag},
            )

    def mac_stream_load_batch(self, addrs: np.ndarray, cls: str, tag: str) -> None:
        n = len(addrs)
        if n == 0:
            return
        tracer = self.tracer
        t0 = self.drain()
        top = self.buffer
        buf = top.route(cls)
        addr_list = addrs.tolist()
        # One residency pass against the routed half only (straight
        # into a list -- the per-address loop below consumes it
        # elementwise, so a numpy mask would just round-trip); the
        # scalar reference consults top-level contains(), but the two
        # agree whenever no address is resident in the *other* half.
        slot_of = buf._slot_of
        res_list = list(map(slot_of.__contains__, addr_list))
        if buf is not top:
            other = (
                top.output_buffer
                if buf is top.input_buffer
                else top.input_buffer
            )
            # Split organisation: an address resident in the other half
            # hits the top-level contains() but would miss (and
            # allocate) in the routed half, changing residency mid-batch
            # and invalidating the plan -- replay exactly, one scalar
            # primitive at a time.
            oth_of = other._slot_of
            if oth_of and any(
                o and not r
                for o, r in zip(map(oth_of.__contains__, addr_list), res_list)
            ):
                AccessExecuteEngine.mac_stream_load_batch(self, addrs, cls, tag)
                return
        # Residency is invariant across the batch: hits never allocate
        # and streamed lines are never inserted, so the mask stays true.
        stats = self.stats
        slot_ready = buf._slot_ready
        ods = buf._lru_mte
        cls_arr = buf._slot_cls
        lru = buf.lru
        hit_lat = buf.hit_latency
        store_map = self._store_map
        ring = self._ring
        depth = self.lsq_depth
        k = self._k % depth
        issue_t = self.issue_t
        exec_t = self.exec_t
        dram = self.dram
        line_bytes = buf.line_bytes
        line_cost = buf._line_cost
        slack = self._stream_slack
        hits = 0
        misses = 0
        forwards = 0
        nk = 0
        fwd = self._forward_active(addr_list)
        for addr, resident in zip(addr_list, res_list):
            if resident:
                slot = ring[k]
                issue = issue_t + 1.0
                if slot > issue:
                    issue = slot
                if fwd and addr in store_map:
                    ready = store_map[addr]
                    if issue > ready:
                        ready = issue
                    forwards += 1
                else:
                    s = slot_of[addr]
                    if lru:
                        ods[cls_arr[s]](s)
                    hits += 1
                    ready = issue + hit_lat
                    sr = slot_ready[s]
                    if sr > ready:
                        ready = sr
                issue_t = issue
                e = exec_t + 1.0
                if ready > e:
                    e = ready
                exec_t = e
                ring[k] = e
                k += 1
                if k == depth:
                    k = 0
                nk += 1
            else:
                # Stream miss: bandwidth only (DRAM.stream_read,
                # inlined; the byte counter is batched below).
                misses += 1
                issue_t += 1.0
                start = dram.next_free
                if issue_t > start:
                    start = issue_t
                end = start + line_cost
                dram.next_free = end
                throttled = end - slack
                if throttled > issue_t:
                    issue_t = throttled
                e = exec_t + 1.0
                if issue_t > e:
                    e = issue_t
                exec_t = e
        self.issue_t = issue_t
        self.exec_t = exec_t
        self._k += nk
        stats.requests_issued += n
        stats.busy_cycles += n
        if hits:
            stats.buffer_hits[tag] += hits
        if misses:
            stats.buffer_misses[tag] += misses
            stats.dram_read_bytes[tag] += misses * line_bytes
        if forwards:
            stats.lsq_forwards += forwards
        if tracer.enabled:
            tracer.span(
                "mac_stream_load_batch", t0, self.drain(), "engine",
                {"n": n, "cls": cls, "tag": tag},
            )

    def store_batch(
        self, addrs: np.ndarray, cls: str, tag: str, allocate: bool = True
    ) -> None:
        n = len(addrs)
        if n == 0:
            return
        tracer = self.tracer
        t0 = self.drain()
        stats = self.stats
        buf = self.buffer.route(cls)
        slot_of = buf._slot_of
        slot_ready = buf._slot_ready
        slot_dirty = buf._slot_dirty
        ods = buf._lru_mte
        cls_arr = buf._slot_cls
        mr = buf._max_ready
        insert = buf._insert
        dram = buf.dram
        line_cost = buf._line_cost
        lru = buf.lru
        hit_lat = buf.hit_latency
        ring = self._ring
        depth = self.lsq_depth
        addr_list = addrs.tolist()
        # Stores never advance the backend, so the forwarded ready value
        # (scalar: ``_record_store(addr, self.exec_t)``) is constant.
        exec_t = self.exec_t
        hits = 0
        misses = 0
        posted = 0
        k = self._k % depth
        write_t = self.write_t
        for addr in addr_list:
            slot = ring[k]
            issue = write_t + 1.0
            if slot > issue:
                issue = slot
            s = slot_of.get(addr)
            if s is not None:
                hits += 1
                slot_dirty[s] = True
                r = issue + hit_lat
                if r > slot_ready[s]:
                    slot_ready[s] = r
                    if r > mr:
                        mr = r
                if lru:
                    ods[cls_arr[s]](s)
            elif allocate:
                misses += 1
                insert(issue, addr, cls, True, issue + hit_lat)
            else:
                # Write-through/no-allocate: DRAM.write, inlined; the
                # byte counter is batched below.
                misses += 1
                posted += 1
                start = dram.next_free
                if issue > start:
                    start = issue
                dram.next_free = start + line_cost
            write_t = issue
            r2 = issue + 1.0
            if exec_t > r2:
                r2 = exec_t
            ring[k] = r2
            k += 1
            if k == depth:
                k = 0
        self.write_t = write_t
        self._k += n
        if self.forwarding:
            # No load probes the window inside a store batch, and every
            # store in it forwards the same ``exec_t``: record the whole
            # batch at its end.
            self._record_stores(addr_list, [exec_t] * n)
        if mr > buf._max_ready:
            buf._max_ready = mr
        stats.requests_issued += n
        if hits:
            stats.buffer_hits[tag] += hits
        if misses:
            stats.buffer_misses[tag] += misses
        if posted:
            stats.dram_write_bytes[tag] += posted * buf.line_bytes
        if tracer.enabled:
            tracer.span(
                "store_batch", t0, self.drain(), "engine",
                {"n": n, "cls": cls, "tag": tag},
            )

    def accumulate_store_batch(self, addrs: np.ndarray, tag: str = "partial") -> None:
        n = len(addrs)
        if n == 0:
            return
        tracer = self.tracer
        t0 = self.drain()
        stats = self.stats
        buf = getattr(self.buffer, "output_buffer", self.buffer)
        slot_of = buf._slot_of
        slot_ready = buf._slot_ready
        slot_dirty = buf._slot_dirty
        ods = buf._lru_mte
        cls_arr = buf._slot_cls
        mr = buf._max_ready
        insert = buf._insert
        lru = buf.lru
        hit_lat = buf.hit_latency
        counts = buf._class_count
        spilled = buf._spilled_partials
        line_bytes = buf.line_bytes
        stride = stats.PARTIAL_TIMELINE_STRIDE
        timeline = stats.partial_timeline
        ring = self._ring
        depth = self.lsq_depth
        addr_list = addrs.tolist()
        exec_t = self.exec_t
        hits = 0
        misses = 0
        pp = stats.partials_produced
        peak = stats.partial_peak_bytes
        # The partial footprint only changes when a line is inserted,
        # evicted or refetched -- all inside the miss branches below --
        # so it is recomputed there and cached across the hits.
        footprint = (counts[_PARTIAL_IDX] + len(spilled)) * line_bytes
        i = 0
        # Lazy hit-run attempts with a decline budget; see
        # :meth:`_load_batch`.
        rounds = 2
        while i < n:
            target = n
            if rounds and n - i >= _HIT_RUN_MIN:
                # The hit run reproduces the per-hit footprint/timeline
                # bookkeeping against the stats object at the constant
                # footprint -- sync the locals around it, like the flat
                # spilled-refetch branch does.
                stats.partials_produced = pp
                stats.partial_peak_bytes = peak
                consumed = self._hit_run_epoch(buf, addr_list, i)
                if consumed:
                    hits += consumed
                    pp = stats.partials_produced
                    peak = stats.partial_peak_bytes
                    i += consumed
                    rounds = 2
                    continue
                rounds -= 1
                if rounds:
                    target = _residency_run_end(slot_of, addr_list, i)
            k = self._k % depth
            write_t = self.write_t
            for addr in addr_list[i:target]:
                slot = ring[k]
                issue = write_t + 1.0
                if slot > issue:
                    issue = slot
                pp += 1
                s = slot_of.get(addr)
                if s is not None:
                    hits += 1
                    slot_dirty[s] = True
                    r = issue + hit_lat
                    if r > slot_ready[s]:
                        slot_ready[s] = r
                        if r > mr:
                            mr = r
                    if lru:
                        ods[cls_arr[s]](s)
                    if footprint > peak:
                        peak = footprint
                    if pp % stride == 0:
                        timeline.append((pp, footprint))
                elif addr in spilled:
                    # Spilled partial: demand refetch + re-merge.  The
                    # scalar accumulate bumps partials_produced and reads/
                    # updates the peak itself: sync the locals around it.
                    stats.partials_produced = pp - 1
                    stats.partial_peak_bytes = peak
                    buf.accumulate(issue, addr, tag)
                    peak = stats.partial_peak_bytes
                    footprint = (counts[_PARTIAL_IDX] + len(spilled)) * line_bytes
                else:
                    misses += 1
                    insert(issue, addr, CLASS_PARTIAL, True, issue + hit_lat)
                    footprint = (counts[_PARTIAL_IDX] + len(spilled)) * line_bytes
                    if footprint > peak:
                        peak = footprint
                    if pp % stride == 0:
                        timeline.append((pp, footprint))
                write_t = issue
                r2 = issue + 1.0
                if exec_t > r2:
                    r2 = exec_t
                ring[k] = r2
                k += 1
                if k == depth:
                    k = 0
            self.write_t = write_t
            self._k += target - i
            i = target
        if self.forwarding:
            self._record_stores(addr_list, [exec_t] * n)
        if mr > buf._max_ready:
            buf._max_ready = mr
        stats.partials_produced = pp
        stats.partial_peak_bytes = peak
        stats.requests_issued += n
        if hits:
            stats.buffer_hits[tag] += hits
        if misses:
            stats.buffer_misses[tag] += misses
        if tracer.enabled:
            tracer.span(
                "accumulate_store_batch", t0, self.drain(), "engine",
                {"n": n, "tag": tag},
            )

    def merge_rmw_batch(
        self,
        addrs: np.ndarray,
        cls: str,
        tag: str,
        touched: Set[int],
        track_peak: bool = False,
    ) -> None:
        n = len(addrs)
        if n == 0:
            return
        tracer = self.tracer
        t0 = self.drain()
        stats = self.stats
        buf = self.buffer.route(cls)
        slot_of = buf._slot_of
        slot_ready = buf._slot_ready
        slot_dirty = buf._slot_dirty
        ods = buf._lru_mte
        cls_arr = buf._slot_cls
        mr = buf._max_ready
        insert = buf._insert
        outstanding = buf._outstanding
        read_miss = buf._read_miss
        lru = buf.lru
        hit_lat = buf.hit_latency
        fwd = self.forwarding
        store_map = self._store_map
        record = self._record_store
        ring = self._ring
        depth = self.lsq_depth
        out_buf = getattr(self.buffer, "output_buffer", self.buffer)
        target_counts = out_buf._class_count
        target_spilled = out_buf._spilled_partials
        target_line_bytes = out_buf.line_bytes
        addr_list = addrs.tolist()
        requests = 0
        busy = 0
        hits = 0
        misses = 0
        fetches = 0
        forwards = 0
        pp = stats.partials_produced
        peak = stats.partial_peak_bytes
        # Cached like in accumulate_store_batch: only the miss branches
        # change the partial footprint.
        footprint = (
            target_counts[_PARTIAL_IDX] + len(target_spilled)
        ) * target_line_bytes
        i = 0
        # Lazy merge-hit attempts with a decline budget; see
        # :meth:`_load_batch`.
        rounds = 2
        while i < n:
            target = n
            if rounds and n - i >= _MERGE_HIT_MIN:
                consumed, fw = self._merge_hit_epoch(buf, addr_list, i, touched)
                if consumed:
                    requests += 2 * consumed
                    busy += consumed
                    hits += 2 * consumed - fw
                    forwards += fw
                    pp += consumed
                    # A hit run neither inserts nor evicts, so every
                    # per-frame peak check inside it sees this footprint.
                    if track_peak and footprint > peak:
                        peak = footprint
                    i += consumed
                    rounds = 2
                    continue
                rounds -= 1
                if rounds:
                    # Flat-chunk to the next frame-shape flip (first
                    # touch vs rmw, resident vs not) before retrying.
                    a0 = addr_list[i]
                    t_flag = a0 in touched
                    r_flag = a0 in slot_of
                    j = i + 1
                    while j < n:
                        a = addr_list[j]
                        if (a in touched) != t_flag or (a in slot_of) != r_flag:
                            break
                        j += 1
                    target = j
            k = self._k % depth
            issue_t = self.issue_t
            write_t = self.write_t
            exec_t = self.exec_t
            nk = 0
            for addr in addr_list[i:target]:
                pp += 1
                if addr in touched:
                    # rmw = load + alu_op(1) + store.
                    requests += 1
                    slot = ring[k]
                    issue = issue_t + 1.0
                    if slot > issue:
                        issue = slot
                    if fwd and addr in store_map:
                        ready = store_map[addr]
                        if issue > ready:
                            ready = issue
                        forwards += 1
                        probe = True
                        s = None
                    else:
                        probe = False
                        s = slot_of.get(addr)
                        if s is not None:
                            if lru:
                                ods[cls_arr[s]](s)
                            hits += 1
                            ready = issue + hit_lat
                            sr = slot_ready[s]
                            if sr > ready:
                                ready = sr
                        else:
                            misses += 1
                            pending = outstanding.get(addr)
                            if pending is not None:
                                # Secondary miss: merged into the pending
                                # MSHR (the line was evicted while still in
                                # flight, so it is genuinely absent and the
                                # store leg write-allocates).
                                ready = issue + hit_lat
                                if pending > ready:
                                    ready = pending
                            else:
                                fetches += 1
                                ready, issue = read_miss(issue, addr, cls, tag)
                                footprint = (
                                    target_counts[_PARTIAL_IDX] + len(target_spilled)
                                ) * target_line_bytes
                                # The read just allocated the line; the
                                # store leg below reuses it.
                                s = slot_of[addr]
                    issue_t = issue
                    if ready > exec_t:
                        exec_t = ready
                    ring[k] = exec_t
                    k += 1
                    if k == depth:
                        k = 0
                    nk += 1
                    exec_t += 1.0
                    busy += 1
                else:
                    touched.add(addr)
                    probe = True
                    s = None
                # The (write-allocating) store leg, shared by both
                # branches; nothing between the load leg's probe and here
                # can evict, so a line it found (or allocated) is reused.
                requests += 1
                slot = ring[k]
                issue = write_t + 1.0
                if slot > issue:
                    issue = slot
                if probe:
                    s = slot_of.get(addr)
                if s is not None:
                    hits += 1
                    slot_dirty[s] = True
                    r = issue + hit_lat
                    if r > slot_ready[s]:
                        slot_ready[s] = r
                        if r > mr:
                            mr = r
                    if lru:
                        ods[cls_arr[s]](s)
                else:
                    misses += 1
                    insert(issue, addr, cls, True, issue + hit_lat)
                    footprint = (
                        target_counts[_PARTIAL_IDX] + len(target_spilled)
                    ) * target_line_bytes
                write_t = issue
                r2 = issue + 1.0
                if exec_t > r2:
                    r2 = exec_t
                ring[k] = r2
                k += 1
                if k == depth:
                    k = 0
                nk += 1
                if fwd:
                    # Loads probe the window inside this batch, so the
                    # trim must happen per store.
                    record(addr, exec_t)
                if track_peak and footprint > peak:
                    peak = footprint
            self.issue_t = issue_t
            self.write_t = write_t
            self.exec_t = exec_t
            self._k += nk
            i = target
        if mr > buf._max_ready:
            buf._max_ready = mr
        stats.partials_produced = pp
        stats.requests_issued += requests
        stats.busy_cycles += busy
        if hits:
            stats.buffer_hits[tag] += hits
        if misses:
            stats.buffer_misses[tag] += misses
        if fetches:
            stats.dram_read_bytes[tag] += fetches * buf.line_bytes
        if forwards:
            stats.lsq_forwards += forwards
        if track_peak and peak > stats.partial_peak_bytes:
            stats.partial_peak_bytes = peak
        if tracer.enabled:
            tracer.span(
                "merge_rmw_batch", t0, self.drain(), "engine",
                {"n": n, "cls": cls, "tag": tag},
            )


def make_engine(
    kind: str,
    buffer: CacheBuffer,
    dram: DRAM,
    stats: SimStats,
    **kwargs,
) -> AccessExecuteEngine:
    """Build the engine implementation ``kind`` names.

    ``"scalar"`` is the reference model (one Python call per access);
    ``"batched"`` is the cycle-exact vectorized fast path and the
    default of :class:`repro.hymm.config.HyMMConfig`.
    """
    if kind == "scalar":
        return AccessExecuteEngine(buffer, dram, stats, **kwargs)
    if kind == "batched":
        return BatchedAccessExecuteEngine(buffer, dram, stats, **kwargs)
    raise ValueError(f"unknown engine kind {kind!r}; expected one of {ENGINE_KINDS}")
