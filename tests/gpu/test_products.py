"""Product presets and simulator facade."""

import pytest

from repro.gpu import (
    APU_LIKE,
    EMBEDDED,
    GpuSimulator,
    PRODUCTS,
    W9100_LIKE,
    product,
    simulate,
)
from repro.kernels import compute_kernel


class TestProducts:
    def test_flagship_matches_w9100(self):
        assert W9100_LIKE.cu_count == 44
        assert W9100_LIKE.peak_dram_gb_per_sec == pytest.approx(320.0)

    def test_embedded_is_smallest_sweep_corner(self):
        assert EMBEDDED.cu_count == 4
        assert EMBEDDED.engine_mhz == 200.0
        assert EMBEDDED.memory_mhz == 150.0

    def test_products_ordered_by_capability(self):
        assert (
            EMBEDDED.peak_gflops
            < APU_LIKE.peak_gflops
            < W9100_LIKE.peak_gflops
        )

    def test_lookup_case_insensitive(self):
        assert product("W9100") is W9100_LIKE

    def test_lookup_unknown_raises_with_choices(self):
        with pytest.raises(KeyError, match="apu"):
            product("gtx980")

    def test_registry_complete(self):
        assert set(PRODUCTS) == {"w9100", "midrange", "apu", "embedded"}


class TestSimulatorFacade:
    def test_default_engine_is_interval(self):
        assert GpuSimulator().engine_name == "interval"

    def test_engines_return_comparable_results(self):
        kernel = compute_kernel("c", global_size=1 << 16)
        interval = simulate(kernel, W9100_LIKE, "interval")
        event = simulate(kernel, W9100_LIKE, "event")
        assert interval.time_s > 0 and event.time_s > 0
        # Same physics: within 3x of each other.
        ratio = interval.time_s / event.time_s
        assert 1 / 3 < ratio < 3

    def test_performance_and_time_consistent(self):
        kernel = compute_kernel("c")
        sim = GpuSimulator()
        assert sim.performance(kernel, W9100_LIKE) == pytest.approx(
            kernel.geometry.global_size / sim.time_s(kernel, W9100_LIKE)
        )
