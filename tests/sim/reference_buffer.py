"""Test-only reference copy of the legacy dict-based buffer core.

This is the pre-arena ``CacheBuffer`` implementation (per-line ``_Line``
objects in per-class ``OrderedDict`` LRU maps, a ``heapq`` MSHR file),
preserved verbatim as the oracle for the differential fuzz test in
``test_buffer_fuzz.py``.  The production arena core in
``repro.sim.buffer`` must match its public-API return values and its
``SimStats`` bit-for-bit on any operation sequence.

Do not import this outside the test suite.
"""


from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.sim.memory import DRAM
from repro.sim.stats import SimStats

CLASS_W = "W"
CLASS_XW = "XW"
CLASS_OUT = "AXW"
CLASS_PARTIAL = "partial"

#: Every line class the buffer knows about.
ALL_CLASSES = (CLASS_W, CLASS_XW, CLASS_OUT, CLASS_PARTIAL)

#: Paper eviction order: weights first, then combination results; final
#: outputs and partial outputs are retained as long as possible.
DEFAULT_EVICT_PRIORITY = (CLASS_W, CLASS_XW, CLASS_OUT, CLASS_PARTIAL)


class _Line:
    """One resident line.

    A ``__slots__`` class rather than a dataclass: the engines touch
    these attributes once per simulated access.  ``owner`` is the
    per-class LRU ``OrderedDict`` the line currently lives in (kept in
    sync by ``_insert``/``reclassify``), so a hit can LRU-touch without
    re-deriving ``self._sets[line.cls]``.
    """

    __slots__ = ("cls", "dirty", "ready", "owner")

    def __init__(
        self,
        cls: str,
        dirty: bool,
        ready: float,
        owner: "OrderedDict[int, _Line]",
    ) -> None:
        self.cls = cls
        self.dirty = dirty
        #: Cycle at which the line's data is valid on-chip.
        self.ready = ready
        self.owner = owner


class _ReferenceBuffer:
    """The legacy dict/heap CacheBuffer, kept verbatim as the fuzz oracle."""

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
        # Per-class LRU maps: addr -> _Line, insertion/MRU order at the end.
        self._sets: Dict[str, "OrderedDict[int, _Line]"] = {
            cls: OrderedDict() for cls in ALL_CLASSES
        }
        # Unified residency index (addr -> _Line across all classes):
        # the single-probe tag lookup both the scalar `read` path and
        # the batched engine's inlined hit path share.  Kept in sync by
        # _insert/_evict/flush/invalidate; `reclassify` only relabels
        # the line object, which the index aliases.
        self._index: Dict[int, _Line] = {}
        self._evict_priority: Tuple[str, ...] = ()
        self.evict_priority = evict_priority
        self._size = 0
        # MSHRs: addr -> ready cycle, plus a heap for capacity stalls.
        self._outstanding: Dict[int, float] = {}
        self._mshr_heap: List[Tuple[float, int]] = []
        # Partial lines evicted to DRAM whose value is a partial sum.
        self._spilled_partials: Set[int] = set()
        # Precomputed DRAM constants, so the single-frame miss path
        # below evolves ``dram.next_free`` with arithmetic bit-identical
        # to DRAM.read/write without walking the call chain per miss.
        self._line_cost = dram.config.cycles_for(line_bytes)
        self._read_latency = dram.config.latency_cycles

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

    @property
    def size_lines(self) -> int:
        """Lines currently resident."""
        return self._size

    def contains(self, addr: int) -> bool:
        """Whether the address is resident (no LRU side effects)."""
        return addr in self._index

    def route(self, cls: str) -> "CacheBuffer":
        """The physical buffer requests of class ``cls`` land in.

        The unified DMB is one buffer, so this is ``self``; the split
        organisation overrides it.  The batched engine resolves the
        route once per address batch instead of once per address.
        """
        return self

    def resident_lines(self, cls: str) -> int:
        """Resident line count of one class."""
        return len(self._sets[cls])

    def occupancy_by_class(self) -> Dict[str, int]:
        """Lines held per class -- the Section III "dynamic space
        management" observable: during RWP phases the buffer fills with
        XW, during OP phases with partial outputs."""
        return {cls: len(lines) for cls, lines in self._sets.items()}

    # ------------------------------------------------------------------
    # Accesses
    # ------------------------------------------------------------------
    def read(self, cycle: float, addr: int, cls: str, tag: str) -> Tuple[float, float]:
        """Demand read of one line.

        Returns ``(ready_cycle, issue_cycle)``; ``issue_cycle >= cycle``
        when the request had to stall for a free MSHR.
        """
        line = self._index.get(addr)
        if line is not None:
            self._touch(addr, line.cls)
            self.stats.buffer_hits[tag] += 1
            return max(cycle + self.hit_latency, line.ready), cycle
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
        fetch, miss registration, line insertion.

        Equivalent to ``_acquire_mshr`` + ``DRAM.read`` + ``_insert``
        minus the hit/miss/byte counters, which are the caller's (the
        batched engine folds them into one update per address batch;
        :meth:`read` pays them up front).
        """
        outstanding = self._outstanding
        heap = self._mshr_heap
        issue = float(cycle)
        # Retire completed misses.
        while heap and heap[0][0] <= issue:
            ready, a = heapq.heappop(heap)
            if outstanding.get(a) == ready:
                del outstanding[a]
        limit = self.mshr_entries
        while len(outstanding) >= limit:
            ready, a = heapq.heappop(heap)
            if outstanding.get(a) == ready:
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
        heapq.heappush(heap, (ready, addr))
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
        line = self._find(addr)
        if line is not None:
            self.stats.buffer_hits[tag] += 1
            line.dirty = True
            line.ready = max(line.ready, cycle + self.hit_latency)
            self._touch(addr, line.cls)
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
        line = self._find(addr)
        if line is not None:
            self.stats.buffer_hits[tag] += 1
            line.dirty = True
            line.ready = max(line.ready, cycle + self.hit_latency)
            self._touch(addr, line.cls)
            self._update_partial_peak()
            return cycle + self.hit_latency
        self.stats.buffer_misses[tag] += 1
        if addr in self._spilled_partials:
            issue = self._acquire_mshr(cycle)
            ready = self.dram.read(issue, self.line_bytes, tag)
            self._spilled_partials.discard(addr)
            self._insert(issue, addr, CLASS_PARTIAL, dirty=True, ready=ready)
            self._update_partial_peak()
            return ready
        self._insert(cycle, addr, CLASS_PARTIAL, dirty=True, ready=cycle + self.hit_latency)
        self._update_partial_peak()
        return cycle + self.hit_latency

    def flush(self, cycle: float, cls: Optional[str] = None, tag: Optional[str] = None) -> float:
        """Write back and drop lines (all classes, or one).

        Returns the cycle the last writeback finishes transferring.
        Clean lines are dropped silently.
        """
        end = float(cycle)
        classes = [cls] if cls is not None else list(self.evict_priority)
        for c in classes:
            lines = self._sets[c]
            for addr, line in list(lines.items()):
                if line.dirty:
                    end = self.dram.write(end, self.line_bytes, tag or c)
                    if c == CLASS_PARTIAL:
                        self._spilled_partials.add(addr)
                del lines[addr]
                del self._index[addr]
                self._size -= 1
        return end

    def invalidate(self, cls: str) -> int:
        """Drop all lines of a class *without* writeback.

        Used between phases/layers for data that is dead (e.g. XW after
        the aggregation that consumed it).  Returns lines dropped.
        """
        lines = self._sets[cls]
        n = len(lines)
        for addr in lines:
            del self._index[addr]
        lines.clear()
        self._size -= n
        return n

    def reclassify(self, from_cls: str, to_cls: str, cycle: float = 0.0) -> int:
        """Relabel all lines of one class as another, preserving LRU order.

        Used when partial outputs become final values (e.g. XW built by
        an outer-product combination): the data stays resident but now
        follows the destination class's eviction priority.  ``cycle`` is
        unused here but kept for interface parity with the split-buffer
        organisation, where reclassification costs writebacks.
        """
        src = self._sets[from_cls]
        dst = self._sets[to_cls]
        n = len(src)
        for addr, line in src.items():
            line.cls = to_cls
            line.owner = dst
            dst[addr] = line
        src.clear()
        return n

    def drop_spilled_partials(self) -> int:
        """Forget spill bookkeeping between phases; returns count dropped."""
        n = len(self._spilled_partials)
        self._spilled_partials.clear()
        return n

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _find(self, addr: int) -> Optional[_Line]:
        return self._index.get(addr)

    def _touch(self, addr: int, cls: str) -> None:
        if self.lru:
            self._sets[cls].move_to_end(addr)

    def _acquire_mshr(self, cycle: float) -> float:
        """Wait for a free MSHR; returns the (possibly delayed) issue cycle."""
        issue = float(cycle)
        # Retire completed misses.
        while self._mshr_heap and self._mshr_heap[0][0] <= issue:
            ready, addr = heapq.heappop(self._mshr_heap)
            if self._outstanding.get(addr) == ready:
                del self._outstanding[addr]
        while len(self._outstanding) >= self.mshr_entries:
            ready, addr = heapq.heappop(self._mshr_heap)
            if self._outstanding.get(addr) == ready:
                del self._outstanding[addr]
            issue = max(issue, ready)
        return issue

    def _insert(self, cycle: float, addr: int, cls: str, dirty: bool, ready: float) -> None:
        """Allocate one line, evicting until there is room.

        Victims come from the lowest-priority non-empty class, LRU
        within (front of the ordered dict is LRU when hits re-append
        and plain FIFO when they do not); the eviction loop is inlined
        into this frame -- the writeback arithmetic is bit-identical to
        ``DRAM.write`` via the precomputed ``_line_cost``.
        """
        sets = self._sets
        lines = sets.get(cls)
        if lines is None:
            raise ValueError(f"unknown line class {cls!r}")
        index = self._index
        size = self._size
        if size >= self.capacity_lines:
            stats = self.stats
            dram = self.dram
            nbytes = self.line_bytes
            line_cost = self._line_cost
            capacity = self.capacity_lines
            while size >= capacity:
                for c in self._evict_priority:
                    victims = sets[c]
                    if victims:
                        a, victim = victims.popitem(last=False)
                        del index[a]
                        size -= 1
                        if victim.dirty:
                            stats.dram_write_bytes[c] += nbytes
                            start = dram.next_free
                            if cycle > start:
                                start = cycle
                            dram.next_free = start + line_cost
                            if c == CLASS_PARTIAL:
                                self._spilled_partials.add(a)
                                stats.partial_spill_bytes += nbytes
                        break
                else:
                    raise RuntimeError("evict called on an empty buffer")
        line = _Line(cls, dirty, ready, lines)
        lines[addr] = line
        index[addr] = line
        self._size = size + 1

    def _update_partial_peak(self) -> None:
        footprint = (
            len(self._sets[CLASS_PARTIAL]) + len(self._spilled_partials)
        ) * self.line_bytes
        if footprint > self.stats.partial_peak_bytes:
            self.stats.partial_peak_bytes = footprint
        self.stats.sample_partial_footprint(footprint)
