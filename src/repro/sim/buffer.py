"""On-chip buffer model (the DMB's buffer memory, Section IV-D).

A set of 64-byte lines managed with:

* **class-aware priority eviction** -- every resident line belongs to a
  traffic class (``W`` weights, ``XW`` combination results, ``AXW``
  final outputs, ``partial`` partial outputs).  On capacity pressure the
  victim comes from the lowest-priority non-empty class, LRU within the
  class: the paper's "evicted to the off-chip memory in the order of W
  and then XW, ensuring that partial outputs are retained ... the buffer
  employs a least recently used (LRU) eviction policy";
* **MSHRs** -- duplicate outstanding misses merge; when all MSHRs are
  busy the requesting frontend stalls until the earliest miss returns;
* a **near-memory accumulator** (:meth:`CacheBuffer.accumulate`) --
  partial outputs of the same index merge in place without occupying the
  PE array; partial lines evicted to DRAM are re-fetched and re-merged
  if touched again, and the partial-output footprint (resident +
  spilled) is tracked for the paper's Figure 10.

Internally the buffer is a **preallocated slot arena**: every per-line
attribute lives in a parallel Python list indexed by an integer slot
(``_slot_cls`` / ``_slot_dirty`` / ``_slot_ready`` / ``_slot_addr``)
and a single ``_slot_of`` dict maps addr -> slot, so no per-line object
is ever allocated on the hot path.  LRU order is one intrusive
doubly-linked list of slots per class, realized as a slot-keyed
``OrderedDict`` (CPython's OrderedDict *is* a C-level intrusive linked
list over its keys): a touch is one ``move_to_end`` on a small-int key,
eviction is one ``popitem(last=False)``, both O(1) with no per-entry
allocation and no scanning.  The MSHR file is a plain FIFO deque
rather than a heap: miss ready-times are strictly monotone in
acquisition order (each miss occupies the DRAM channel after the
previous one, and the per-line transfer cost is positive), so FIFO pop
order *is* earliest-ready order, exactly.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import repeat
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.memory import DRAM
from repro.sim.stats import SimStats

CLASS_W = "W"
CLASS_XW = "XW"
CLASS_OUT = "AXW"
CLASS_PARTIAL = "partial"

#: Every line class the buffer knows about.
ALL_CLASSES = (CLASS_W, CLASS_XW, CLASS_OUT, CLASS_PARTIAL)

#: Dense class indices used by the slot arena (and the batched engine's
#: inlined hit paths).
CLASS_INDEX: Dict[str, int] = {cls: i for i, cls in enumerate(ALL_CLASSES)}

_N_CLASSES = len(ALL_CLASSES)
_PARTIAL_IDX = CLASS_INDEX[CLASS_PARTIAL]

#: Paper eviction order: weights first, then combination results; final
#: outputs and partial outputs are retained as long as possible.
DEFAULT_EVICT_PRIORITY = (CLASS_W, CLASS_XW, CLASS_OUT, CLASS_PARTIAL)

#: Sink that exhausts a ``map`` without building a list -- the hit-run
#: commit uses it to run C-level ``list.__setitem__`` sweeps over
#: the arena's parallel arrays with no per-element bytecode.
_drain = deque(maxlen=0).extend


class CacheBuffer:
    """Unified on-chip buffer with priority-LRU eviction and MSHRs.

    Slot-arena layout (all lists preallocated in ``__init__``):

    ``_slot_of``
        addr -> slot, the single residency probe shared by the scalar
        ``read`` path and the batched engine's inlined hit loops.
    ``_slot_cls`` / ``_slot_dirty`` / ``_slot_ready`` / ``_slot_addr``
        per-slot line state, ``_slot_cls`` holding dense
        :data:`CLASS_INDEX` values.
    ``_lru_ods``
        one intrusive LRU list of slots per class, as a slot-keyed
        ``OrderedDict`` (front = LRU, back = MRU).  Touch =
        ``move_to_end``, evict = ``popitem(last=False)``, both O(1)
        C-level linked-list splices on small-int keys.  ``_lru_mte``
        holds each list's bound ``move_to_end``.
    ``_free_slots``
        stack of unused slot indices.
    ``_max_ready``
        watermark over every ready time ever handed to a resident line
        -- lets the batched engine's all-hit lane skip the per-element
        ready check when no fetch can still be in flight.

    Every line insertion, and with it every capacity eviction, from
    either engine goes through the single-frame :meth:`_insert`
    (reached via :meth:`_read_miss` on a primary read miss).  The batched engine's flat loops update hit
    state in place, and its store- and merge-hit runs commit in bulk
    through :meth:`_commit_hit_epoch`.
    """

    def __init__(
        self,
        capacity_lines: int,
        line_bytes: int,
        dram: DRAM,
        stats: SimStats,
        hit_latency: int = 1,
        mshr_entries: int = 16,
        evict_priority: Tuple[str, ...] = DEFAULT_EVICT_PRIORITY,
        lru: bool = True,
    ) -> None:
        if capacity_lines <= 0:
            raise ValueError("capacity_lines must be positive")
        if line_bytes <= 0:
            raise ValueError("line_bytes must be positive")
        if mshr_entries <= 0:
            raise ValueError("mshr_entries must be positive")
        self.capacity_lines = capacity_lines
        self.line_bytes = line_bytes
        self.dram = dram
        self.stats = stats
        self.hit_latency = hit_latency
        self.mshr_entries = mshr_entries
        self.lru = lru
        #: Simulated-time event sink (disabled NULL_TRACER by default).
        #: Only *cold* paths emit -- flush/invalidate/reclassify and the
        #: spilled-partial refetch; the per-access hit/miss machinery is
        #: covered by the engine's batch spans and stays untouched.
        self.tracer: Tracer = NULL_TRACER
        cap = capacity_lines
        self._slot_cls: List[int] = [0] * cap
        self._slot_dirty: List[bool] = [False] * cap
        self._slot_ready: List[float] = [0.0] * cap
        self._slot_addr: List[int] = [0] * cap
        self._lru_ods: List["OrderedDict[int, None]"] = [
            OrderedDict() for _ in range(_N_CLASSES)
        ]
        # Bound move_to_end per class, hoisting the attribute lookup
        # out of every LRU touch (the ODs are created once and only
        # ever mutated in place, so the bindings stay valid).
        self._lru_mte = [od.move_to_end for od in self._lru_ods]
        self._free_slots: List[int] = list(range(cap - 1, -1, -1))
        self._class_count: List[int] = [0] * _N_CLASSES
        self._slot_of: Dict[int, int] = {}
        self._evict_priority: Tuple[str, ...] = ()
        self._evict_order: Tuple[int, ...] = ()
        self.evict_priority = evict_priority
        self._size = 0
        self._max_ready = 0.0
        # MSHRs: addr -> ready cycle, plus the FIFO of (ready, addr) in
        # acquisition order.  Readies are strictly increasing along the
        # FIFO (see module docstring), so the front is always the
        # earliest outstanding miss -- heap semantics without the heap.
        self._outstanding: Dict[int, float] = {}
        self._mshr_fifo: Deque[Tuple[float, int]] = deque()
        # Partial lines evicted to DRAM whose value is a partial sum.
        self._spilled_partials: Set[int] = set()
        # Precomputed DRAM constants, so the single-frame miss path
        # below evolves ``dram.next_free`` with arithmetic bit-identical
        # to DRAM.read/write without walking the call chain per miss.
        self._line_cost = dram.config.cycles_for(line_bytes)
        self._read_latency = dram.config.latency_cycles
        # Everything the eviction scan needs, bound once: unpacking one
        # tuple is cheaper than a dozen attribute loads per evicting
        # insert (the outer lists are never rebound, only mutated in
        # place, so the bindings stay valid).
        self._evict_ctx = (
            stats,
            dram,
            line_bytes,
            self._line_cost,
            capacity_lines,
            self._slot_addr,
            self._slot_dirty,
            self._lru_ods,
        )

    # ------------------------------------------------------------------
    # Introspection / configuration
    # ------------------------------------------------------------------
    @property
    def evict_priority(self) -> Tuple[str, ...]:
        """Current victim-class order (first = evicted first).

        Settable between phases: the unified DMB "can manage the space
        for input and output data dynamically" (Section III), so the
        hybrid scheduler biases eviction toward the class the current
        dataflow will not reuse.
        """
        return self._evict_priority

    @evict_priority.setter
    def evict_priority(self, order: Iterable[str]) -> None:
        order = tuple(order)
        if sorted(order) != sorted(ALL_CLASSES):
            raise ValueError(
                f"evict_priority must be a permutation of {ALL_CLASSES}, got {order}"
            )
        self._evict_priority = order
        self._evict_order = tuple(CLASS_INDEX[c] for c in order)

    @property
    def size_lines(self) -> int:
        """Lines currently resident."""
        return self._size

    def contains(self, addr: int) -> bool:
        """Whether the address is resident (no LRU side effects)."""
        return addr in self._slot_of

    def route(self, cls: str) -> "CacheBuffer":
        """The physical buffer requests of class ``cls`` land in.

        The unified DMB is one buffer, so this is ``self``; the split
        organisation overrides it.  The batched engine resolves the
        route once per address batch instead of once per address.
        """
        return self

    def set_tracer(self, tracer: Tracer) -> None:
        """Attach a tracer to this buffer's cold-path events."""
        self.tracer = tracer

    def resident_lines(self, cls: str) -> int:
        """Resident line count of one class."""
        return self._class_count[CLASS_INDEX[cls]]

    def occupancy_by_class(self) -> Dict[str, int]:
        """Lines held per class -- the Section III "dynamic space
        management" observable: during RWP phases the buffer fills with
        XW, during OP phases with partial outputs."""
        return {cls: self._class_count[CLASS_INDEX[cls]] for cls in ALL_CLASSES}

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def read(self, cycle: float, addr: int, cls: str, tag: str) -> Tuple[float, float]:
        """Demand read of one line.

        Returns ``(ready_cycle, issue_cycle)``; ``issue_cycle >= cycle``
        when the request had to stall for a free MSHR.
        """
        slot = self._slot_of.get(addr)
        if slot is not None:
            if self.lru:
                self._lru_ods[self._slot_cls[slot]].move_to_end(slot)
            self.stats.buffer_hits[tag] += 1
            return max(cycle + self.hit_latency, self._slot_ready[slot]), cycle
        self.stats.buffer_misses[tag] += 1
        pending = self._outstanding.get(addr)
        if pending is not None:
            # Secondary miss: merged into the pending MSHR, no new DRAM
            # traffic, but the data was not on-chip -> counts as a miss.
            return max(cycle + self.hit_latency, pending), cycle
        self.stats.dram_read_bytes[tag] += self.line_bytes
        return self._read_miss(cycle, addr, cls, tag)

    def _read_miss(
        self, cycle: float, addr: int, cls: str, tag: str
    ) -> Tuple[float, float]:
        """Primary-miss machinery in a single frame: MSHR acquire, DRAM
        fetch, miss registration, line insertion (with any evictions the
        insertion needs, via :meth:`_insert`'s flat victim scan).

        Equivalent to ``_acquire_mshr`` + ``DRAM.read`` + ``_insert``
        minus the hit/miss/byte counters, which are the caller's (the
        batched engine folds them into one update per address batch;
        :meth:`read` pays them up front).
        """
        outstanding = self._outstanding
        fifo = self._mshr_fifo
        issue = float(cycle)
        # Retire completed misses.  FIFO order == ready order: each
        # registered miss has ready strictly greater than its
        # predecessor's, so popping the front is popping the minimum.
        while fifo and fifo[0][0] <= issue:
            _, a = fifo.popleft()
            del outstanding[a]
        limit = self.mshr_entries
        while len(outstanding) >= limit:
            ready, a = fifo.popleft()
            del outstanding[a]
            if ready > issue:
                issue = ready
        dram = self.dram
        start = dram.next_free
        if issue > start:
            start = issue
        end = start + self._line_cost
        dram.next_free = end
        ready = end + self._read_latency
        outstanding[addr] = ready
        fifo.append((ready, addr))
        self._insert(issue, addr, cls, dirty=False, ready=ready)
        return ready, issue

    def write(
        self, cycle: float, addr: int, cls: str, tag: str, allocate: bool = True
    ) -> float:
        """Full-line write (no fetch needed).

        ``allocate=False`` is write-through/no-allocate: the line goes
        straight to DRAM, which is how streaming outputs (RWP final
        results) avoid polluting the buffer.
        """
        slot = self._slot_of.get(addr)
        if slot is not None:
            self.stats.buffer_hits[tag] += 1
            self._slot_dirty[slot] = True
            ready = cycle + self.hit_latency
            if ready > self._slot_ready[slot]:
                self._slot_ready[slot] = ready
                if ready > self._max_ready:
                    self._max_ready = ready
            if self.lru:
                self._lru_ods[self._slot_cls[slot]].move_to_end(slot)
            return cycle + self.hit_latency
        self.stats.buffer_misses[tag] += 1
        if allocate:
            self._insert(cycle, addr, cls, dirty=True, ready=cycle + self.hit_latency)
            return cycle + self.hit_latency
        self.dram.write(cycle, self.line_bytes, tag)
        return cycle + self.hit_latency

    def accumulate(self, cycle: float, addr: int, tag: str = CLASS_PARTIAL) -> float:
        """Merge one partial output into the buffer (near-memory adder).

        If the line was previously spilled, its DRAM copy is fetched and
        re-merged (demand read).  Footprint tracking feeds Fig. 10.
        """
        self.stats.partials_produced += 1
        slot = self._slot_of.get(addr)
        if slot is not None:
            self.stats.buffer_hits[tag] += 1
            self._slot_dirty[slot] = True
            ready = cycle + self.hit_latency
            if ready > self._slot_ready[slot]:
                self._slot_ready[slot] = ready
                if ready > self._max_ready:
                    self._max_ready = ready
            if self.lru:
                self._lru_ods[self._slot_cls[slot]].move_to_end(slot)
            self._update_partial_peak()
            return cycle + self.hit_latency
        self.stats.buffer_misses[tag] += 1
        if addr in self._spilled_partials:
            issue = self._acquire_mshr(cycle)
            ready = self.dram.read(issue, self.line_bytes, tag)
            self._spilled_partials.discard(addr)
            self._insert(issue, addr, CLASS_PARTIAL, dirty=True, ready=ready)
            self._update_partial_peak()
            if self.tracer.enabled:
                self.tracer.instant(
                    "partial.refetch", issue, "buffer", {"addr": addr}
                )
            return ready
        self._insert(cycle, addr, CLASS_PARTIAL, dirty=True, ready=cycle + self.hit_latency)
        self._update_partial_peak()
        return cycle + self.hit_latency

    def flush(self, cycle: float, cls: Optional[str] = None, tag: Optional[str] = None) -> float:
        """Write back and drop lines (all classes, or one).

        Returns the cycle the last writeback finishes transferring.
        Clean lines are dropped silently.  Lines retire in LRU order
        within each class (the class list's front-to-back order -- the
        order the legacy per-class map iterated).
        """
        end = float(cycle)
        size_before = self._size
        classes = [cls] if cls is not None else list(self.evict_priority)
        slot_of = self._slot_of
        slot_addr = self._slot_addr
        slot_dirty = self._slot_dirty
        free = self._free_slots
        for c in classes:
            ci = CLASS_INDEX[c]
            if not self._class_count[ci]:
                continue
            od = self._lru_ods[ci]
            write_tag = tag or c
            is_partial = ci == _PARTIAL_IDX
            for slot in od:
                addr = slot_addr[slot]
                if slot_dirty[slot]:
                    end = self.dram.write(end, self.line_bytes, write_tag)
                    if is_partial:
                        self._spilled_partials.add(addr)
                del slot_of[addr]
                free.append(slot)
            od.clear()
            self._size -= self._class_count[ci]
            self._class_count[ci] = 0
        if self.tracer.enabled:
            self.tracer.span(
                "buffer.flush", cycle, end, "buffer",
                {"cls": cls or "all", "lines": size_before - self._size},
            )
        return end

    def invalidate(self, cls: str) -> int:
        """Drop all lines of a class *without* writeback.

        Used between phases/layers for data that is dead (e.g. XW after
        the aggregation that consumed it).  Returns lines dropped.
        """
        ci = CLASS_INDEX[cls]
        n = self._class_count[ci]
        if not n:
            return 0
        slot_of = self._slot_of
        slot_addr = self._slot_addr
        free = self._free_slots
        od = self._lru_ods[ci]
        for slot in od:
            del slot_of[slot_addr[slot]]
            free.append(slot)
        od.clear()
        self._class_count[ci] = 0
        self._size -= n
        if self.tracer.enabled:
            # invalidate() takes no cycle; DRAM's next-free slot is the
            # closest monotone proxy for "now" the buffer can see.
            self.tracer.instant(
                "buffer.invalidate", self.dram.next_free, "buffer",
                {"cls": cls, "lines": n},
            )
        return n

    def reclassify(self, from_cls: str, to_cls: str, cycle: float = 0.0) -> int:
        """Relabel all lines of one class as another, preserving LRU order.

        Used when partial outputs become final values (e.g. XW built by
        an outer-product combination): the data stays resident but now
        follows the destination class's eviction priority.  ``cycle`` is
        unused here but kept for interface parity with the split-buffer
        organisation, where reclassification costs writebacks.  The
        relabelled lines land at the destination's MRU end in source
        LRU order -- exactly the legacy "append the source map onto the
        destination map" splice.
        """
        src_ci = CLASS_INDEX[from_cls]
        dst_ci = CLASS_INDEX[to_cls]
        n = self._class_count[src_ci]
        if n == 0 or src_ci == dst_ci:
            return n
        slot_cls = self._slot_cls
        src_od = self._lru_ods[src_ci]
        dst_od = self._lru_ods[dst_ci]
        for slot in src_od:
            slot_cls[slot] = dst_ci
            dst_od[slot] = None
        src_od.clear()
        self._class_count[dst_ci] += n
        self._class_count[src_ci] = 0
        if self.tracer.enabled:
            self.tracer.instant(
                "buffer.reclassify", cycle, "buffer",
                {"from": from_cls, "to": to_cls, "lines": n},
            )
        return n

    def drop_spilled_partials(self) -> int:
        """Forget spill bookkeeping between phases; returns count dropped."""
        n = len(self._spilled_partials)
        self._spilled_partials.clear()
        return n

    # ------------------------------------------------------------------
    # State snapshot / restore (trace replay)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """JSON-able snapshot of all timing-relevant buffer state.

        Captures, per class, the resident lines in LRU order (front =
        LRU) as ``[addr, dirty, ready]`` triples, plus the spilled
        partial set, the MSHR file in acquisition order, the ready
        watermark, and the current eviction priority.  Slot *numbers*
        are deliberately not captured: they never influence timing or
        stats, only which arena row a line happens to occupy, so
        :meth:`restore_state` is free to repack the arena.  All floats
        in play are dyadic rationals (sums of powers of two), so JSON
        round-trips them exactly.
        """
        slot_addr = self._slot_addr
        slot_dirty = self._slot_dirty
        slot_ready = self._slot_ready
        lines = {
            cls: [
                [slot_addr[s], slot_dirty[s], slot_ready[s]]
                for s in self._lru_ods[CLASS_INDEX[cls]]
            ]
            for cls in ALL_CLASSES
        }
        return {
            "lines": lines,
            "spilled_partials": sorted(self._spilled_partials),
            "mshr_fifo": [[ready, addr] for ready, addr in self._mshr_fifo],
            "max_ready": self._max_ready,
            "evict_priority": list(self._evict_priority),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Rebuild the buffer from a :meth:`snapshot_state` snapshot.

        The arena is repacked from scratch (slot numbering is not part
        of the snapshot; see there), every list mutated in place so the
        bindings captured by ``_evict_ctx`` -- and any hoisted by the
        batched engine between calls -- stay valid.
        """
        self._slot_of.clear()
        for od in self._lru_ods:
            od.clear()
        self._free_slots[:] = range(self.capacity_lines - 1, -1, -1)
        self._class_count[:] = [0] * _N_CLASSES
        self._size = 0
        free = self._free_slots
        slot_cls = self._slot_cls
        slot_dirty = self._slot_dirty
        slot_ready = self._slot_ready
        slot_addr = self._slot_addr
        lines: Dict[str, List[List[object]]] = state["lines"]  # type: ignore[assignment]
        for cls, entries in lines.items():
            ci = CLASS_INDEX[cls]
            od = self._lru_ods[ci]
            for addr, dirty, ready in entries:
                slot = free.pop()
                slot_cls[slot] = ci
                slot_dirty[slot] = bool(dirty)
                slot_ready[slot] = float(ready)  # type: ignore[arg-type]
                slot_addr[slot] = int(addr)  # type: ignore[call-overload]
                od[slot] = None
                self._slot_of[int(addr)] = slot  # type: ignore[call-overload]
            self._class_count[ci] = len(entries)
            self._size += len(entries)
        self._spilled_partials.clear()
        self._spilled_partials.update(
            int(a) for a in state["spilled_partials"]  # type: ignore[union-attr]
        )
        self._outstanding.clear()
        self._mshr_fifo.clear()
        for ready, addr in state["mshr_fifo"]:  # type: ignore[union-attr]
            r, a = float(ready), int(addr)
            self._outstanding[a] = r
            self._mshr_fifo.append((r, a))
        self._max_ready = float(state["max_ready"])  # type: ignore[arg-type]
        self.evict_priority = tuple(state["evict_priority"])  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _touch_slot(self, slot: int) -> None:
        """Mark a resident slot most-recently-used (one list splice)."""
        self._lru_ods[self._slot_cls[slot]].move_to_end(slot)

    def _acquire_mshr(self, cycle: float) -> float:
        """Wait for a free MSHR; returns the (possibly delayed) issue cycle."""
        issue = float(cycle)
        fifo = self._mshr_fifo
        outstanding = self._outstanding
        # Retire completed misses (FIFO front is the earliest ready).
        while fifo and fifo[0][0] <= issue:
            _, addr = fifo.popleft()
            del outstanding[addr]
        while len(outstanding) >= self.mshr_entries:
            ready, addr = fifo.popleft()
            del outstanding[addr]
            if ready > issue:
                issue = ready
        return issue

    def _insert(self, cycle: float, addr: int, cls: str, dirty: bool, ready: float) -> None:
        """Allocate one line, evicting until there is room.

        Victims come from the lowest-priority non-empty class, LRU
        within: one ``popitem(last=False)`` off the class list -- O(1),
        no scanning.  The whole pop/evict/insert sequence runs in this
        one frame -- the writeback arithmetic is bit-identical to
        ``DRAM.write`` via the precomputed ``_line_cost``.
        """
        try:
            ci = CLASS_INDEX[cls]
        except KeyError:
            raise ValueError(f"unknown line class {cls!r}") from None
        slot_of = self._slot_of
        free = self._free_slots
        counts = self._class_count
        ods = self._lru_ods
        size = self._size
        if size >= self.capacity_lines:
            (
                stats,
                dram,
                nbytes,
                line_cost,
                capacity,
                slot_addr,
                slot_dirty,
                _,
            ) = self._evict_ctx
            while size >= capacity:
                for vc in self._evict_order:
                    if counts[vc]:
                        victim, _ = ods[vc].popitem(last=False)
                        a = slot_addr[victim]
                        del slot_of[a]
                        counts[vc] -= 1
                        size -= 1
                        free.append(victim)
                        if slot_dirty[victim]:
                            c = ALL_CLASSES[vc]
                            stats.dram_write_bytes[c] += nbytes
                            start = dram.next_free
                            if cycle > start:
                                start = cycle
                            dram.next_free = start + line_cost
                            if vc == _PARTIAL_IDX:
                                self._spilled_partials.add(a)
                                stats.partial_spill_bytes += nbytes
                        break
                else:
                    raise RuntimeError("evict called on an empty buffer")
        slot = free.pop()
        self._slot_cls[slot] = ci
        self._slot_dirty[slot] = dirty
        self._slot_ready[slot] = ready
        self._slot_addr[slot] = addr
        ods[ci][slot] = None
        slot_of[addr] = slot
        counts[ci] += 1
        self._size = size + 1
        if ready > self._max_ready:
            self._max_ready = ready

    def _commit_hit_epoch(self, slots: List[int], readies: List[float]) -> None:
        """Bulk-apply one store-hit run to the arena.

        ``slots``/``readies`` are the (distinct) resident slots a hit
        epoch wrote and their store-ready times in run order.  The
        per-hit mutations commute into three bulk sweeps: every slot is
        marked dirty, its ready is raised to ``max(old, store_ready)``
        (a write never lowers a ready), and each slot takes one LRU
        splice in run order -- the same final recency order as the
        sequential per-hit touches, because a run's slots are distinct
        and each ends at the MRU tail of its class the moment its frame
        completes.  ``readies`` is monotone (the write timeline only
        moves forward), so the watermark update needs only the last
        element: any epoch ready above the old watermark was
        necessarily written (old slot readies never exceed it).
        """
        slot_ready = self._slot_ready
        _drain(map(self._slot_dirty.__setitem__, slots, repeat(True)))
        mr = self._max_ready
        if mr <= readies[0]:
            # Every pre-epoch slot ready is bounded by the watermark,
            # which the whole monotone readies run dominates -- the
            # per-slot max is always the new value, one C-level sweep.
            _drain(map(slot_ready.__setitem__, slots, readies))
        else:
            _drain(
                map(
                    slot_ready.__setitem__,
                    slots,
                    map(max, map(slot_ready.__getitem__, slots), readies),
                )
            )
        if self.lru:
            cls_arr = self._slot_cls
            c0 = cls_arr[slots[0]]
            if self._class_count[c0] == self._size:
                # One class owns every resident line, so every run slot
                # is that class: one C-level sweep of splices.
                _drain(map(self._lru_mte[c0], slots))
            else:
                mtes = self._lru_mte
                for s in slots:
                    mtes[cls_arr[s]](s)
        last = readies[-1]
        if last > mr:
            self._max_ready = last

    def _update_partial_peak(self) -> None:
        footprint = (
            self._class_count[_PARTIAL_IDX] + len(self._spilled_partials)
        ) * self.line_bytes
        if footprint > self.stats.partial_peak_bytes:
            self.stats.partial_peak_bytes = footprint
        self.stats.sample_partial_footprint(footprint)
