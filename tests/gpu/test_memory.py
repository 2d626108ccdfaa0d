"""DRAM model: efficiency, latency composition, queueing bounds."""

import numpy as np
import pytest

from repro.gpu import HardwareConfig, MemoryModel
from repro.gpu.memory import MAX_QUEUE_STRETCH, MIN_BANDWIDTH_EFFICIENCY


@pytest.fixture
def model():
    return MemoryModel(HardwareConfig(44, 1000.0, 1250.0))


class TestBandwidthEfficiency:
    def test_insensitive_kernel_keeps_efficiency(self, model):
        at_4 = model.bandwidth_efficiency(0.9, 0.0, 4)
        at_44 = model.bandwidth_efficiency(0.9, 0.0, 44)
        assert at_4 == at_44 == pytest.approx(0.9)

    def test_sensitive_kernel_loses_efficiency_with_cus(self, model):
        at_4 = model.bandwidth_efficiency(0.9, 1.0, 4)
        at_44 = model.bandwidth_efficiency(0.9, 1.0, 44)
        assert at_44 < at_4

    def test_efficiency_floor(self, model):
        value = model.bandwidth_efficiency(0.05, 1.0, 44)
        assert value >= MIN_BANDWIDTH_EFFICIENCY

    def test_efficiency_capped_at_one(self, model):
        assert model.bandwidth_efficiency(1.0, 0.0, 1) <= 1.0

    def test_batch_is_bit_exact_with_scalar(self, model):
        """Repeated and distinct (CU, sensitivity) pairs, including a
        zero exponent, evaluate exactly as the scalar method does."""
        rng = np.random.default_rng(7)
        sensitivity = np.concatenate(
            [[0.0, 1.0, 1.0], rng.uniform(0.0, 1.0, 9)]
        )
        coalescing = rng.uniform(0.05, 1.0, sensitivity.size)
        active = rng.integers(1, 45, (sensitivity.size, 11))
        batch = model.bandwidth_efficiency_batch(
            coalescing, sensitivity, active
        )
        scalar = [
            [
                model.bandwidth_efficiency(
                    coalescing[k], sensitivity[k], int(active[k, c])
                )
                for c in range(active.shape[1])
            ]
            for k in range(sensitivity.size)
        ]
        np.testing.assert_array_equal(batch, scalar)

    def test_rejects_zero_cus(self, model):
        with pytest.raises(ValueError):
            model.bandwidth_efficiency(0.9, 0.5, 0)


class TestLatency:
    def test_latency_has_fixed_component(self):
        """Maxing both clocks cannot shrink latency below the fixed
        controller/DRAM-core time — the plateau mechanism."""
        slow = MemoryModel(HardwareConfig(44, 200.0, 150.0))
        fast = MemoryModel(HardwareConfig(44, 1000.0, 1250.0))
        fixed_s = 150e-9
        assert fast.unloaded_miss_latency_s() > fixed_s
        ratio = slow.unloaded_miss_latency_s() / fast.unloaded_miss_latency_s()
        # Clock ranges are 5x/8.3x but latency shrinks far less.
        assert ratio < 4.0

    def test_latency_falls_with_engine_clock(self):
        slow = MemoryModel(HardwareConfig(44, 200.0, 1250.0))
        fast = MemoryModel(HardwareConfig(44, 1000.0, 1250.0))
        assert fast.unloaded_miss_latency_s() < slow.unloaded_miss_latency_s()

    def test_latency_falls_with_memory_clock(self):
        slow = MemoryModel(HardwareConfig(44, 1000.0, 150.0))
        fast = MemoryModel(HardwareConfig(44, 1000.0, 1250.0))
        assert fast.unloaded_miss_latency_s() < slow.unloaded_miss_latency_s()

    def test_loaded_latency_grows_with_utilisation(self, model):
        idle = model.loaded_miss_latency_s(0.0)
        busy = model.loaded_miss_latency_s(0.9)
        assert busy > idle

    def test_loaded_latency_bounded(self, model):
        base = model.unloaded_miss_latency_s()
        saturated = model.loaded_miss_latency_s(5.0)
        assert saturated <= base * MAX_QUEUE_STRETCH + 1e-12

    def test_loaded_rejects_negative_utilisation(self, model):
        with pytest.raises(ValueError):
            model.loaded_miss_latency_s(-0.1)


class TestState:
    def test_state_bundles_consistent_values(self, model):
        state = model.state(0.8, 0.0, 16)
        assert state.achieved_bytes_per_sec == pytest.approx(
            state.peak_bytes_per_sec * state.efficiency
        )
        assert state.peak_bytes_per_sec == pytest.approx(320e9)
