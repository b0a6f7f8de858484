"""HyMMAccelerator end-to-end behaviour and RunResult contents."""

import numpy as np
import pytest

from repro.gcn import GCNModel, reference_inference
from repro.hymm import HyMMAccelerator, HyMMConfig


@pytest.fixture
def result(tiny_model):
    return HyMMAccelerator().run_inference(tiny_model)


class TestRunResult:
    def test_identity(self, result, tiny_model):
        assert result.accelerator == "hymm"
        assert result.dataset == "tiny"

    def test_cycles_positive(self, result):
        assert result.stats.cycles > 0
        assert result.cycles == result.stats.cycles

    def test_output_per_layer(self, result, tiny_model):
        assert len(result.outputs) == tiny_model.n_layers

    def test_phase_cycles_cover_both_phases(self, result):
        assert "layer0.combination" in result.phase_snapshots
        assert "layer0.aggregation" in result.phase_snapshots
        assert all(s.cycles >= 0 for s in result.phase_snapshots.values())

    def test_sort_cost_recorded(self, result):
        assert result.sort_ms > 0

    def test_wall_clock_recorded(self, result):
        assert result.wall_seconds > 0

    def test_extra_carries_plan(self, result):
        assert "plan" in result.extra
        assert result.extra["plan"].threshold > 0

    def test_runtime_ms(self, result):
        assert result.runtime_ms == pytest.approx(result.stats.cycles / 1e6)

    def test_speedup_over(self, result):
        other = result  # same run: speedup exactly 1
        assert result.speedup_over(other) == pytest.approx(1.0)


class TestCorrectness:
    def test_matches_reference_single_layer(self, tiny_model, tiny_dataset):
        result = HyMMAccelerator().run_inference(tiny_model)
        ref = reference_inference(tiny_dataset, tiny_model.weight_list)
        np.testing.assert_allclose(result.outputs[-1], ref[-1], rtol=1e-2, atol=1e-3)

    def test_matches_reference_two_layers(self, tiny_dataset):
        model = GCNModel(tiny_dataset, n_layers=2, seed=31)
        result = HyMMAccelerator().run_inference(model)
        ref = reference_inference(tiny_dataset, model.weight_list)
        for ours, theirs in zip(result.outputs, ref):
            np.testing.assert_allclose(ours, theirs, rtol=1e-2, atol=1e-3)

    def test_outputs_in_original_node_order(self, tiny_model, tiny_dataset):
        """The degree-sort permutation must be undone in the outputs."""
        result = HyMMAccelerator().run_inference(tiny_model)
        ref = reference_inference(tiny_dataset, tiny_model.weight_list)
        # A wrong permutation would misalign nearly every row.
        row_errors = np.abs(result.outputs[-1] - ref[-1]).max(axis=1)
        assert (row_errors < 1e-2).all()

    def test_deterministic(self, tiny_model):
        a = HyMMAccelerator().run_inference(tiny_model)
        b = HyMMAccelerator().run_inference(tiny_model)
        assert a.stats.cycles == b.stats.cycles
        assert a.stats.dram_total_bytes() == b.stats.dram_total_bytes()


class TestConfigVariants:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"near_memory_accumulator": False},
            {"op_first": False},
            {"unified_buffer": False},
            {"forwarding": False},
            {"lru": False},
            {"dmb_bytes": 8 * 1024},
            {"threshold_fraction": 0.5},
        ],
    )
    def test_all_ablations_stay_correct(self, tiny_model, tiny_dataset, overrides):
        config = HyMMConfig(**overrides)
        result = HyMMAccelerator(config).run_inference(tiny_model)
        ref = reference_inference(tiny_dataset, tiny_model.weight_list)
        np.testing.assert_allclose(result.outputs[-1], ref[-1], rtol=1e-2, atol=1e-3)

    @pytest.mark.parametrize("mode", ["degree", "random", "none"])
    def test_sort_modes_stay_correct(self, mode, tiny_model, tiny_dataset):
        result = HyMMAccelerator(sort_mode=mode).run_inference(tiny_model)
        ref = reference_inference(tiny_dataset, tiny_model.weight_list)
        np.testing.assert_allclose(result.outputs[-1], ref[-1], rtol=1e-2, atol=1e-3)

    def test_sort_mode_validated(self):
        with pytest.raises(ValueError, match="sort_mode"):
            HyMMAccelerator(sort_mode="alphabetical")

    def test_sort_mode_names(self):
        assert HyMMAccelerator(sort_mode="none").name == "hymm-nosort"
        assert HyMMAccelerator(sort_mode="random").name == "hymm-randomsort"

    def test_nosort_reports_zero_cost(self, tiny_model):
        result = HyMMAccelerator(sort_mode="none").run_inference(tiny_model)
        assert result.sort_ms == 0.0

    def test_phase_stats_carry_occupancy(self, tiny_model):
        result = HyMMAccelerator().run_inference(tiny_model)
        assert set(result.phase_occupancy) == {
            phase for phase in result.phase_snapshots if phase != "drain"
        }
        for occupancy in result.phase_occupancy.values():
            assert sum(occupancy.values()) >= 0

    def test_narrow_pe_array_costs_cycles(self, tiny_model):
        """Halving the MAC count doubles compute passes per non-zero."""
        full = HyMMAccelerator(HyMMConfig(n_pes=16)).run_inference(tiny_model)
        half = HyMMAccelerator(HyMMConfig(n_pes=8)).run_inference(tiny_model)
        assert half.stats.busy_cycles > 1.5 * full.stats.busy_cycles

    def test_small_buffer_increases_traffic(self, tiny_model):
        big = HyMMAccelerator(HyMMConfig()).run_inference(tiny_model)
        small = HyMMAccelerator(HyMMConfig(dmb_bytes=2 * 1024)).run_inference(tiny_model)
        assert small.stats.dram_total_bytes() >= big.stats.dram_total_bytes()
