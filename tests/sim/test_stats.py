"""SimStats counters and derived metrics."""

import pytest

from repro.sim import SimStats


@pytest.fixture
def populated():
    s = SimStats()
    s.cycles = 1000
    s.busy_cycles = 600
    s.dram_read_bytes.update({"A": 100, "XW": 300})
    s.dram_write_bytes.update({"AXW": 200})
    s.buffer_hits.update({"XW": 80})
    s.buffer_misses.update({"XW": 20})
    s.lsq_forwards = 10
    s.partials_produced = 50
    s.partial_peak_bytes = 640
    return s


class TestDerived:
    def test_alu_utilization(self, populated):
        assert populated.alu_utilization() == pytest.approx(0.6)

    def test_alu_utilization_zero_cycles(self):
        assert SimStats().alu_utilization() == 0.0

    def test_hit_rate_includes_forwards(self, populated):
        assert populated.hit_rate() == pytest.approx((80 + 10) / 110)

    def test_hit_rate_empty(self):
        assert SimStats().hit_rate() == 0.0

    def test_hit_rate_for_tag(self, populated):
        assert populated.hit_rate_for("XW") == pytest.approx(0.8)

    def test_hit_rate_for_unknown_tag_raises(self, populated):
        with pytest.raises(ValueError, match="nope"):
            populated.hit_rate_for("nope")

    def test_hit_rate_for_declared_but_unused_tag(self, populated):
        # Declared in TRAFFIC_TAGS but absent from this run: legal, 0.0.
        assert populated.hit_rate_for("H") == 0.0

    def test_dram_total(self, populated):
        assert populated.dram_total_bytes() == 600

    def test_breakdown_merges_reads_writes(self, populated):
        bd = populated.dram_breakdown()
        assert bd == {"A": 100, "AXW": 200, "XW": 300}

    def test_partial_reduction(self, populated):
        # naive = 50 partials x 64B = 3200; peak 640 -> 80% reduction.
        assert populated.partial_reduction() == pytest.approx(0.8)

    def test_partial_reduction_no_partials(self):
        assert SimStats().partial_reduction() == 0.0


class TestPartialTimeline:
    def test_strided_sampling(self):
        s = SimStats()
        for k in range(3 * SimStats.PARTIAL_TIMELINE_STRIDE):
            s.partials_produced += 1
            s.sample_partial_footprint(k * 64)
        assert len(s.partial_timeline) == 3

    def test_samples_carry_footprint(self):
        s = SimStats()
        s.partials_produced = SimStats.PARTIAL_TIMELINE_STRIDE
        s.sample_partial_footprint(12_345)
        assert s.partial_timeline == [(SimStats.PARTIAL_TIMELINE_STRIDE, 12_345)]

    def test_merge_extends_timeline(self, populated):
        other = SimStats()
        other.partial_timeline.append((64, 640))
        populated.merge(other)
        assert (64, 640) in populated.partial_timeline


class TestMerge:
    def test_merge_adds_counters(self, populated):
        other = SimStats()
        other.cycles = 500
        other.busy_cycles = 100
        other.dram_read_bytes.update({"A": 50})
        populated.merge(other)
        assert populated.cycles == 1500
        assert populated.busy_cycles == 700
        assert populated.dram_read_bytes["A"] == 150

    def test_merge_takes_peak_max(self, populated):
        other = SimStats()
        other.partial_peak_bytes = 10_000
        populated.merge(other)
        assert populated.partial_peak_bytes == 10_000

    def test_merge_rejects_unknown_tag(self, populated):
        other = SimStats()
        other.dram_read_bytes.update({"bogus": 1})
        with pytest.raises(ValueError, match="bogus"):
            populated.merge(other)


class TestPhaseAttribution:
    def test_copy_is_independent(self, populated):
        snap = populated.copy()
        populated.cycles += 1
        populated.dram_read_bytes.update({"A": 1})
        populated.partial_timeline.append((999, 999))
        assert snap.cycles == 1000
        assert snap.dram_read_bytes["A"] == 100
        assert (999, 999) not in snap.partial_timeline

    def test_delta_since_counts_only_growth(self, populated):
        base = populated.copy()
        populated.cycles += 250
        populated.busy_cycles += 40
        populated.dram_read_bytes.update({"A": 64})
        populated.buffer_hits.update({"XW": 5})
        delta = populated.delta_since(base)
        assert delta.cycles == 250
        assert delta.busy_cycles == 40
        assert delta.dram_read_bytes == {"A": 64}
        assert delta.buffer_hits == {"XW": 5}
        # Untouched counters stay empty -- no resurrected zero keys.
        assert delta.dram_write_bytes == {}

    def test_delta_fold_reconstructs_whole(self, populated):
        base = populated.copy()
        populated.cycles += 100
        populated.dram_write_bytes.update({"AXW": 32})
        delta = populated.delta_since(base)
        base.merge(delta)
        assert base.to_dict() == populated.to_dict()
