"""Differential fuzz: arena ``CacheBuffer`` vs the legacy dict buffer.

The slot-arena rewrite of :class:`repro.sim.buffer.CacheBuffer` is a
pure representation change -- every public-API return value and every
``SimStats`` counter must match the pre-arena implementation
bit-for-bit on *any* operation sequence, not just the ones the
equivalence suite happens to exercise.  This test drives both cores
through identical randomized streams of
``read``/``write``/``accumulate``/``flush``/``reclassify``/
``invalidate``/``evict_priority`` operations with adversarial class
pressure (address pool >> capacity, skewed class choice) and MSHR
saturation (few MSHR entries, bursts of distinct-miss reads), checking
return values after every operation and the full stats dict plus all
residency observables at the end.

The oracle is ``tests/sim/reference_buffer._ReferenceBuffer`` -- the
legacy per-line ``_Line``-object / ``heapq``-MSHR implementation,
preserved verbatim.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest

from repro.sim.buffer import ALL_CLASSES, CLASS_OUT, CLASS_PARTIAL, CacheBuffer
from repro.sim.engine import _SPACE_BITS
from repro.sim.memory import DRAM, DRAMConfig
from repro.sim.stats import SimStats

from tests.sim.reference_buffer import _ReferenceBuffer

#: Randomized operations per seed (the acceptance floor is 1000).
N_OPS = 1200
SEEDS = (0, 1, 2, 3, 4)

#: Small geometry so the stream constantly evicts and stalls:
#: pool of 96 addresses over 24 lines, 4 MSHRs.
CAPACITY_LINES = 24
LINE_BYTES = 64
MSHR_ENTRIES = 4
N_ADDRS = 96


def _make_pair():
    """One (reference, arena) pair over independent but identically
    configured memory systems."""
    pair = []
    for factory in (_ReferenceBuffer, CacheBuffer):
        stats = SimStats()
        dram = DRAM(DRAMConfig(), stats)
        buf = factory(
            capacity_lines=CAPACITY_LINES,
            line_bytes=LINE_BYTES,
            dram=dram,
            stats=stats,
            mshr_entries=MSHR_ENTRIES,
        )
        pair.append((buf, dram, stats))
    return pair


def _observables(buf) -> dict:
    return {
        "size": buf.size_lines,
        "occupancy": buf.occupancy_by_class(),
        "per_class": {c: buf.resident_lines(c) for c in ALL_CLASSES},
        "priority": buf.evict_priority,
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_fuzz(seed):
    rng = random.Random(seed)
    (ref, ref_dram, ref_stats), (arena, arena_dram, arena_stats) = _make_pair()
    addrs = [0x1000 + i * LINE_BYTES for i in range(N_ADDRS)]
    cycle = 0.0

    for step in range(N_OPS):
        # Nondecreasing cycle on the DRAM's 1/64 grid (the same grid
        # real engine timelines live on).
        cycle += rng.randrange(0, 256) / 64.0
        op = rng.randrange(100)
        # Skew toward reads/writes with occasional structural ops, plus
        # miss bursts that saturate the 4 MSHRs with distinct addresses.
        if op < 40:
            burst = rng.randrange(1, 8) if op < 8 else 1
            for _ in range(burst):
                addr = rng.choice(addrs)
                cls = rng.choice(ALL_CLASSES)
                tag = rng.choice(("adj", "feat", cls))
                assert ref.read(cycle, addr, cls, tag) == arena.read(
                    cycle, addr, cls, tag
                ), f"read mismatch at step {step}"
        elif op < 65:
            addr = rng.choice(addrs)
            cls = rng.choice(ALL_CLASSES)
            allocate = rng.random() < 0.8
            assert ref.write(cycle, addr, cls, cls, allocate=allocate) == arena.write(
                cycle, addr, cls, cls, allocate=allocate
            ), f"write mismatch at step {step}"
        elif op < 85:
            addr = rng.choice(addrs)
            assert ref.accumulate(cycle, addr) == arena.accumulate(
                cycle, addr
            ), f"accumulate mismatch at step {step}"
        elif op < 90:
            cls = rng.choice((None,) + ALL_CLASSES)
            assert ref.flush(cycle, cls) == arena.flush(
                cycle, cls
            ), f"flush mismatch at step {step}"
        elif op < 93:
            cls = rng.choice(ALL_CLASSES)
            assert ref.invalidate(cls) == arena.invalidate(
                cls
            ), f"invalidate mismatch at step {step}"
        elif op < 96:
            src, dst = rng.sample(ALL_CLASSES, 2)
            assert ref.reclassify(src, dst) == arena.reclassify(
                src, dst
            ), f"reclassify mismatch at step {step}"
        elif op < 98:
            order = list(ALL_CLASSES)
            rng.shuffle(order)
            ref.evict_priority = tuple(order)
            arena.evict_priority = tuple(order)
        else:
            assert ref.drop_spilled_partials() == arena.drop_spilled_partials()

        if step % 64 == 0:
            # Residency probes are side-effect-free and must agree.
            a = rng.choice(addrs)
            assert ref.contains(a) == arena.contains(a)
            assert _observables(ref) == _observables(arena), f"step {step}"

    # Full end-state equality: stats bit-for-bit, residency, DRAM clock.
    assert ref_stats.to_dict() == arena_stats.to_dict()
    assert _observables(ref) == _observables(arena)
    assert ref_dram.next_free == arena_dram.next_free
    assert [ref.contains(a) for a in addrs] == [arena.contains(a) for a in addrs]


def _make_engine_pair(
    mshr_entries=MSHR_ENTRIES,
    capacity_lines=CAPACITY_LINES,
    lsq_depth=16,
    forwarding=True,
):
    """(scalar engine over the legacy reference buffer, batched engine
    over the arena buffer) with identical geometry -- the full
    cross-implementation differential: the batched engine's flat loops
    and hit shapes against the scalar loops over the legacy core."""
    from repro.sim.engine import make_engine

    out = []
    for factory, engine_kind in ((_ReferenceBuffer, "scalar"), (CacheBuffer, "batched")):
        stats = SimStats()
        dram = DRAM(DRAMConfig(), stats)
        buf = factory(
            capacity_lines=capacity_lines,
            line_bytes=LINE_BYTES,
            dram=dram,
            stats=stats,
            mshr_entries=mshr_entries,
        )
        engine = make_engine(
            engine_kind, buf, dram, stats,
            lsq_depth=lsq_depth, forwarding=forwarding,
        )
        out.append((engine, buf, dram, stats))
    return out


def _assert_engines_agree(pair, context=""):
    (se, sb, sd, ss), (be, bb, bd, bs) = pair
    assert ss.to_dict() == bs.to_dict(), f"stats diverge {context}"
    assert (se.issue_t, se.write_t, se.exec_t) == (
        be.issue_t, be.write_t, be.exec_t
    ), f"timelines diverge {context}"
    assert sd.next_free == bd.next_free, f"DRAM clock diverges {context}"
    assert _observables(sb) == _observables(bb), f"residency diverges {context}"
    # LSQ ring, ``k`` and the ordered forwarding window: a diverging
    # window would otherwise show only once a later load forwards.
    assert se.snapshot_state() == be.snapshot_state(), (
        f"engine state diverges {context}"
    )
    assert be._store_spaces == Counter(
        a >> _SPACE_BITS for a in be._store_map
    ), f"forwarding space counts diverge {context}"


class TestEpochEngineDifferential:
    """Drive the batched engine -- flat loops plus the hit shapes
    (``_all_hit_lane``, ``_hit_run_epoch``, ``_merge_hit_epoch``) over
    the arena -- against the scalar reference loops over the legacy
    buffer.

    The miss bursts below -- duplicates inside a run, residency
    feedback from in-batch fills, MSHR capacity stalls, capacity
    overflow, dirty victims, spilled partials -- run through the flat
    loops' shared ``_read_miss``/``_insert`` frames; the refeeds and
    steady-state passes after them engage the hit shapes, whose run
    cuts are where bulk bookkeeping is most likely to diverge from the
    sequential truth.  :meth:`test_hit_shape_engages` pins that each
    shape really runs on some case here.
    """

    # Two disjoint address spaces (bit 40 apart, like AddressMap's
    # operand spacing) keep loads off the store-forwarding window, so
    # load batches reach the all-hit lane under forwarding=True too.
    LOAD_BASE = 0x100_0000_0000
    STORE_BASE = 0x200_0000_0000

    def _laddr(self, i):
        return self.LOAD_BASE + i * LINE_BYTES

    def _saddr(self, i):
        return self.STORE_BASE + i * LINE_BYTES

    def _both(self, pair, method, *args):
        for engine, _, _, _ in pair:
            getattr(engine, method)(*args)

    def test_miss_burst_then_refeed(self):
        """A fresh distinct-address burst followed by the same
        addresses again: the refeed rides the all-hit lane over the
        burst's own fills (long enough for ``_LANE_MIN``)."""
        pair = _make_engine_pair(capacity_lines=64)
        burst = np.asarray([self._laddr(i) for i in range(64)], dtype=np.int64)
        self._both(pair, "mac_load_batch", burst, "W", "adj")
        _assert_engines_agree(pair, "after burst")
        self._both(pair, "mac_load_batch", burst, "W", "adj")
        _assert_engines_agree(pair, "after refeed")

    def test_load_burst_then_refeed(self):
        """:meth:`test_miss_burst_then_refeed` through plain loads: the
        refeed rides the all-hit lane with no backend step per load."""
        pair = _make_engine_pair(capacity_lines=64)
        burst = np.asarray([self._laddr(i) for i in range(64)], dtype=np.int64)
        self._both(pair, "load_batch", burst, "XW", "feat")
        _assert_engines_agree(pair, "after burst")
        self._both(pair, "load_batch", burst, "XW", "feat")
        _assert_engines_agree(pair, "after refeed")

    def test_duplicate_inside_miss_run(self):
        """A duplicate inside a miss burst: the second occurrence must
        see the first's fill."""
        pair = _make_engine_pair()
        idx = [0, 1, 2, 3, 4, 5, 6, 7, 8, 3, 9, 10, 11, 12, 13, 14]
        addrs = np.asarray([self._laddr(i) for i in idx], dtype=np.int64)
        self._both(pair, "load_batch", addrs, "XW", "feat")
        _assert_engines_agree(pair)

    def test_mshr_saturation_inside_epoch(self):
        """More distinct misses in one batch than MSHR entries: the
        batched loop's capacity stalls must match the scalar retire
        loop exactly."""
        pair = _make_engine_pair(mshr_entries=2)
        addrs = np.asarray([self._laddr(i) for i in range(20)], dtype=np.int64)
        self._both(pair, "mac_load_batch", addrs, "W", "adj")
        _assert_engines_agree(pair)

    def test_capacity_chunking_and_victim_exhaustion(self):
        """A miss run larger than the whole buffer: the batch evicts
        its own earlier fills, in the scalar path's order."""
        pair = _make_engine_pair(capacity_lines=12)
        addrs = np.asarray([self._laddr(i) for i in range(40)], dtype=np.int64)
        self._both(pair, "mac_load_batch", addrs, "W", "adj")
        _assert_engines_agree(pair, "after overflow burst")
        # Second pass: everything was evicted or is LRU-fragile.
        self._both(pair, "load_batch", addrs, "W", "adj")
        _assert_engines_agree(pair, "after second pass")

    def test_store_epoch_with_dirty_victims(self):
        """Store bursts that evict dirty lines (writeback channel bumps
        must serialize like the scalar path), then a re-store of the
        resident lines (the flat loop's hit branch)."""
        pair = _make_engine_pair(capacity_lines=24)
        first = np.asarray([self._saddr(i) for i in range(24)], dtype=np.int64)
        second = np.asarray(
            [self._saddr(i) for i in range(24, 54)], dtype=np.int64
        )
        self._both(pair, "store_batch", first, CLASS_OUT, "out")
        self._both(pair, "store_batch", second, CLASS_OUT, "out")
        _assert_engines_agree(pair, "after dirty-victim bursts")
        self._both(pair, "store_batch", second[-24:], CLASS_OUT, "out")
        _assert_engines_agree(pair, "after resident re-store")

    def test_accumulate_epoch_partial_spill(self):
        """Partial-accumulate bursts past capacity: spilled-partial
        bookkeeping, footprint peak and timeline must match."""
        pair = _make_engine_pair(capacity_lines=10)
        addrs = np.asarray([self._saddr(i) for i in range(32)], dtype=np.int64)
        self._both(pair, "accumulate_store_batch", addrs, "partial")
        _assert_engines_agree(pair, "after spill burst")
        # Re-accumulate into a mix of resident, evicted and spilled
        # lines -- spilled addresses take the refetch path.
        self._both(pair, "accumulate_store_batch", addrs[:20], "partial")
        _assert_engines_agree(pair, "after re-accumulate")

    def test_store_runs_forward_to_loads(self):
        """Store and accumulate batches under forwarding that repeat
        addresses and hold more distinct addresses than ``lsq_depth``,
        each followed by loads over the same addresses.  The window a
        batch leaves -- which addresses, in which order, with which
        ready values -- decides which of those loads forward."""
        pair = _make_engine_pair(capacity_lines=96)
        n = 40  # distinct addresses per batch, past lsq_depth (16)
        repeats = [3, n - 2, 7, n - 1, n - 1, 5]
        for method, base, extra in (
            ("store_batch", 0, (CLASS_OUT, "out")),
            ("accumulate_store_batch", 0x4000, ("partial",)),
        ):
            idx = list(range(n)) + repeats
            addrs = np.asarray(
                [self._saddr(base + i) for i in idx], dtype=np.int64
            )
            # First pass misses (flat loop); the second re-stores
            # resident lines (for accumulates, a hit run that overlaps
            # the window).
            for rnd in ("miss", "hit"):
                self._both(pair, method, addrs, *extra)
                _assert_engines_agree(pair, f"{method} {rnd}")
                loads = np.asarray(
                    [self._saddr(base + i) for i in range(n)], dtype=np.int64
                )
                self._both(pair, "load_batch", loads, "XW", "feat")
                _assert_engines_agree(pair, f"loads after {method} {rnd}")
        # New addresses in two spaces at once, fewer than lsq_depth so
        # all of them stay in the window: each space's count moves.
        mixed = np.asarray(
            [self._laddr(i) for i in range(6)]
            + [self._saddr(0x8000 + i) for i in range(6)],
            dtype=np.int64,
        )
        self._both(pair, "store_batch", mixed, CLASS_OUT, "out")
        _assert_engines_agree(pair, "after mixed-space stores")
        self._both(pair, "load_batch", mixed, "XW", "feat")
        _assert_engines_agree(pair, "loads after mixed-space stores")
        assert pair[1][3].lsq_forwards > 0

    def test_one_address_store_batches(self):
        """One-address store batches record through the single-store
        path.  Fill the window from one space, then store a second
        space one address at a time until every entry of the first is
        popped and its count is gone; loads over both spaces follow."""
        pair = _make_engine_pair(capacity_lines=96)
        first = [self._laddr(i) for i in range(20)]  # past lsq_depth (16)
        second = [self._saddr(i) for i in range(20)]
        for addr in first + second[:4] + first[-2:] + second[4:]:
            one = np.asarray([addr], dtype=np.int64)
            self._both(pair, "store_batch", one, CLASS_OUT, "out")
            _assert_engines_agree(pair, f"store {addr:#x}")
        batched = pair[1][0]
        assert set(batched._store_spaces) == {second[0] >> _SPACE_BITS}
        loads = np.asarray(first + second, dtype=np.int64)
        self._both(pair, "load_batch", loads, "XW", "feat")
        _assert_engines_agree(pair, "loads after one-address stores")
        assert pair[1][3].lsq_forwards > 0

    def test_forwarding_disabled_epochs(self):
        """With forwarding off no load can forward, so loads into the
        space stores just wrote skip the window entirely."""
        pair = _make_engine_pair(forwarding=False)
        stores = np.asarray([self._laddr(i) for i in range(10)], dtype=np.int64)
        loads = np.asarray([self._laddr(i) for i in range(4, 24)], dtype=np.int64)
        self._both(pair, "store_batch", stores, CLASS_OUT, "out")
        self._both(pair, "mac_load_batch", loads, "W", "adj")
        _assert_engines_agree(pair)

    # ------------------------------------------------------------------
    # Merge/RMW hit runs (``_merge_hit_epoch``): runs of >= 64
    # (``_MERGE_HIT_MIN``) distinct resident already-touched addresses
    # take the one-commit steady-state path; everything else is flat.
    # ------------------------------------------------------------------

    #: Comfortably past ``_MERGE_HIT_MIN`` so cut runs stay eligible.
    MERGE_N = 160

    def _merge_pair(self, capacity_lines=256, lsq_depth=128, **kw):
        """Engine pair plus one ``touched`` set per engine (the caller-
        owned cross-batch first-touch set; separate objects because the
        engines mutate it, identical contents by construction).  The
        hit-epoch gather is capped at ``lsq_depth`` frames per attempt,
        so the production depth (128 >= ``_MERGE_HIT_MIN``) is the
        default here -- the suite-wide 16 would never engage it."""
        pair = _make_engine_pair(
            capacity_lines=capacity_lines, lsq_depth=lsq_depth, **kw
        )
        return pair, [set(), set()]

    def _merge_both(self, pair, touched, addrs, track_peak=True):
        for (engine, _, _, _), t in zip(pair, touched):
            engine.merge_rmw_batch(addrs, CLASS_PARTIAL, "partial", t, track_peak)

    def test_merge_first_touch_then_steady_state(self):
        """First pass write-allocates every line (flat loop); the next
        two passes are pure RMW-hit runs (merge-hit run, then again
        with the LRU order the first run left behind)."""
        pair, touched = self._merge_pair()
        addrs = np.asarray(
            [self._saddr(i) for i in range(self.MERGE_N)], dtype=np.int64
        )
        self._merge_both(pair, touched, addrs)
        _assert_engines_agree(pair, "after first touch")
        self._merge_both(pair, touched, addrs)
        _assert_engines_agree(pair, "after steady-state pass")
        self._merge_both(pair, touched, addrs)
        _assert_engines_agree(pair, "after second steady-state pass")

    def test_merge_duplicate_cuts_hit_run(self):
        """A duplicate inside a would-be merge-hit run: past the
        threshold the run is cut at the repeat (second occurrence must
        see the first frame's store-back); before the threshold the
        epoch declines entirely to the flat rmw loop."""
        for dup_at in (80, 10):
            pair, touched = self._merge_pair()
            idx = list(range(self.MERGE_N))
            idx.insert(dup_at, 5)
            addrs = np.asarray([self._saddr(i) for i in idx], dtype=np.int64)
            self._merge_both(pair, touched, addrs)
            _assert_engines_agree(pair, f"first touch dup@{dup_at}")
            self._merge_both(pair, touched, addrs)
            _assert_engines_agree(pair, f"steady state dup@{dup_at}")

    def test_merge_untouched_address_cuts_run(self):
        """An untouched address mid-run cuts the hit run there: the
        first 100 addresses RMW as one epoch, the rest first-touch."""
        pair, touched = self._merge_pair()
        warm = np.asarray([self._saddr(i) for i in range(100)], dtype=np.int64)
        self._merge_both(pair, touched, warm)
        _assert_engines_agree(pair, "after warmup")
        full = np.asarray(
            [self._saddr(i) for i in range(self.MERGE_N)], dtype=np.int64
        )
        self._merge_both(pair, touched, full)
        _assert_engines_agree(pair, "after cut run")

    def test_merge_forwarding_window_overlap_resolves(self):
        """The forwarding window still holds the tail of the previous
        pass's store-backs when the next pass starts: the overlap must
        resolve (in-run stores never serve in-run loads -- distinct
        addresses) rather than decline, and match the scalar engine's
        forwarding accounting exactly."""
        pair, touched = self._merge_pair()
        addrs = np.asarray(
            [self._saddr(i) for i in range(self.MERGE_N)], dtype=np.int64
        )
        self._merge_both(pair, touched, addrs)
        # Immediately re-merge: the window overlaps the run's tail.
        self._merge_both(pair, touched, addrs)
        _assert_engines_agree(pair, "after overlapping steady-state pass")
        # And a third pass starting *at* the windowed tail.
        self._merge_both(pair, touched, addrs[-self.MERGE_N // 2:])
        _assert_engines_agree(pair, "after tail pass")

    def test_merge_mixed_space_overlap_resolves(self):
        """A monotone run spanning two address spaces while the window
        overlaps it: the epoch's bulk window update must keep each
        space's count exact."""
        pair, touched = self._merge_pair()
        lo = [self._laddr(i) for i in range(80)]
        hi = [self._saddr(i) for i in range(80)]
        addrs = np.asarray(lo + hi, dtype=np.int64)
        self._merge_both(pair, touched, addrs)
        _assert_engines_agree(pair, "after mixed-space first touch")
        self._merge_both(pair, touched, addrs)
        _assert_engines_agree(pair, "after mixed-space steady state")

    def test_merge_eviction_pressure(self):
        """Runs far past capacity: touched-but-evicted lines RMW-miss,
        hit runs cut at residency boundaries, and the footprint peak
        tracking must match through the evictions."""
        pair, touched = self._merge_pair(capacity_lines=24)
        addrs = np.asarray(
            [self._saddr(i) for i in range(self.MERGE_N)], dtype=np.int64
        )
        self._merge_both(pair, touched, addrs)
        _assert_engines_agree(pair, "after overflow merge")
        self._merge_both(pair, touched, addrs)
        _assert_engines_agree(pair, "after second overflow merge")

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_adversarial_merge_fuzz(self, seed):
        """Randomized merge traffic against the scalar truth: long
        distinct runs re-merged at varying offsets, duplicates and
        untouched addresses salted in, interleaved loads sharing the
        buffer, invalidates that turn touched lines into RMW misses."""
        rng = random.Random(seed)
        pair, touched = self._merge_pair(capacity_lines=128)
        for step in range(40):
            kind = rng.randrange(10)
            if kind < 6:  # merge runs, mostly long, sometimes offset
                base = rng.randrange(0, 60)
                n = rng.randrange(48, 200)
                idx = list(range(base, base + n))
                if rng.random() < 0.4:  # salt a duplicate
                    idx.insert(rng.randrange(len(idx)), rng.choice(idx))
                addrs = np.asarray(
                    [self._saddr(i) for i in idx], dtype=np.int64
                )
                self._merge_both(pair, touched, addrs, rng.random() < 0.7)
            elif kind < 8:  # loads sharing the buffer halves
                base = rng.randrange(0, 200)
                addrs = np.asarray(
                    [self._laddr(base + i) for i in range(rng.randrange(8, 40))],
                    dtype=np.int64,
                )
                self._both(pair, "mac_load_batch", addrs, "W", "adj")
            elif kind < 9:  # invalidate: touched lines now RMW-miss
                for _, buf, _, _ in pair:
                    buf.invalidate(CLASS_PARTIAL)
            else:  # partial-output flush boundary, then spill cleanup
                for _, buf, _, _ in pair:
                    buf.flush(float(step), CLASS_PARTIAL)
                if rng.random() < 0.5:
                    for _, buf, _, _ in pair:
                        buf.drop_spilled_partials()
            _assert_engines_agree(pair, f"seed {seed} step {step}")

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_adversarial_epoch_fuzz(self, seed):
        """Randomized batch streams skewed toward run-shaped work:
        long distinct runs, partial overlaps with recent fills,
        duplicates, store/accumulate pressure, occasional invalidates.
        Stats, timelines, DRAM clock and residency compared after every
        batch."""
        rng = random.Random(seed)
        pair = _make_engine_pair(mshr_entries=4, capacity_lines=24)
        hot: list = []
        for step in range(60):
            kind = rng.randrange(10)
            n = rng.randrange(8, 40)
            if kind < 4:  # loads: fresh run, maybe salted with hot addrs
                base = rng.randrange(0, 400)
                idx = list(range(base, base + n))
                if hot and rng.random() < 0.5:
                    for _ in range(rng.randrange(1, 5)):
                        idx.insert(
                            rng.randrange(len(idx)), rng.choice(hot)
                        )
                addrs = np.asarray(
                    [self._laddr(i) for i in idx], dtype=np.int64
                )
                method = "mac_load_batch" if kind < 2 else "load_batch"
                cls = rng.choice(("W", "XW"))
                self._both(pair, method, addrs, cls, "adj")
                hot = idx[-12:]
            elif kind < 7:  # stores
                base = rng.randrange(0, 200)
                addrs = np.asarray(
                    [self._saddr(base + i) for i in range(n)], dtype=np.int64
                )
                allocate = rng.random() < 0.8
                self._both(pair, "store_batch", addrs, CLASS_OUT, "out", allocate)
            elif kind < 9:  # partial accumulates
                base = rng.randrange(0, 100)
                addrs = np.asarray(
                    [self._saddr(0x4000 + base + i) for i in range(n)],
                    dtype=np.int64,
                )
                self._both(pair, "accumulate_store_batch", addrs, "partial")
            else:  # structural ops between batches
                cls = rng.choice(ALL_CLASSES)
                for _, buf, _, _ in pair:
                    buf.invalidate(cls)
                if rng.random() < 0.5:
                    for _, buf, _, _ in pair:
                        buf.drop_spilled_partials()
            _assert_engines_agree(pair, f"seed {seed} step {step}")

    @pytest.mark.parametrize(
        "shape, case",
        [
            ("_all_hit_lane", "test_miss_burst_then_refeed"),
            ("_all_hit_lane", "test_load_burst_then_refeed"),
            ("_hit_run_epoch", "test_store_runs_forward_to_loads"),
            ("_merge_hit_epoch", "test_merge_first_touch_then_steady_state"),
        ],
    )
    def test_hit_shape_engages(self, monkeypatch, shape, case):
        """Each kept hit shape consumes runs on at least one case above.

        The flat loop is exact on its own, so a shape that declined
        forever would pass every differential here; this counts the
        runs the shape consumes on the batched engine of the case."""
        runs = []
        make_pair = _make_engine_pair

        def counting_pair(*args, **kwargs):
            pair = make_pair(*args, **kwargs)
            engine = pair[1][0]
            original = getattr(engine, shape)

            def counted(*a, **kw):
                out = original(*a, **kw)
                consumed = out[0] if isinstance(out, tuple) else out
                if consumed:
                    runs.append(consumed)
                return out

            setattr(engine, shape, counted)
            return pair

        monkeypatch.setitem(globals(), "_make_engine_pair", counting_pair)
        getattr(self, case)()
        assert runs, f"{shape} consumed no run in {case}"


def test_mshr_saturation_ordering():
    """A pure distinct-address miss storm: with 4 MSHRs every fifth
    miss stalls, and the stall/retire order the FIFO ring produces must
    match the reference heap exactly (monotone ready-times make them
    order-equivalent; this pins the proof down with returns)."""
    (ref, _, ref_stats), (arena, _, arena_stats) = _make_pair()
    for i in range(4 * MSHR_ENTRIES + 3):
        addr = 0x9000 + i * LINE_BYTES
        assert ref.read(0.0, addr, "W", "storm") == arena.read(
            0.0, addr, "W", "storm"
        ), f"miss {i}"
    assert ref_stats.to_dict() == arena_stats.to_dict()
