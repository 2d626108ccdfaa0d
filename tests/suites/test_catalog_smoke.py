"""Catalog-wide smoke tests: every kernel runs everywhere.

The suite catalog is authored data; these tests guarantee that every
one of the 267 kernels is simulable at the extreme corners of the
configuration space with sane outputs — the property the full sweep
depends on.
"""

import math


from repro.gpu import GpuSimulator, HardwareConfig
from repro.power import EnergyModel

CORNERS = (
    HardwareConfig(4, 200.0, 150.0),
    HardwareConfig(44, 1000.0, 1250.0),
    HardwareConfig(4, 1000.0, 150.0),
    HardwareConfig(44, 200.0, 1250.0),
)


class TestEveryKernelSimulates:
    def test_interval_engine_all_corners(self, catalog_kernels):
        simulator = GpuSimulator("interval")
        for kernel in catalog_kernels:
            for config in CORNERS:
                time_s = simulator.time_s(kernel, config)
                assert math.isfinite(time_s) and time_s > 0, (
                    kernel.full_name,
                    config.label(),
                )

    def test_event_engine_sampled(self, catalog_kernels):
        simulator = GpuSimulator("event")
        for kernel in catalog_kernels[::10]:
            time_s = simulator.time_s(kernel, CORNERS[1])
            assert math.isfinite(time_s) and time_s > 0, kernel.full_name

    def test_flagship_never_slower_than_embedded(self, catalog_kernels):
        """Scaling can be non-monotone along single axes, but the full
        flagship must beat the smallest corner for every kernel (all
        three knobs at 5-11x cannot jointly lose)."""
        simulator = GpuSimulator("interval")
        for kernel in catalog_kernels:
            small = simulator.time_s(kernel, CORNERS[0])
            large = simulator.time_s(kernel, CORNERS[1])
            assert large < small, kernel.full_name

    def test_energy_model_all_kernels_at_flagship(self, catalog_kernels):
        model = EnergyModel()
        for kernel in catalog_kernels:
            result = model.evaluate(kernel, CORNERS[1])
            assert 20.0 < result.power_w < 350.0, kernel.full_name
            assert result.energy_j > 0


class TestCatalogDiversity:
    def test_each_suite_contributes_multiple_categories(
        self, paper_taxonomy
    ):
        for suite, counts in paper_taxonomy.by_suite().items():
            populated = [c for c, n in counts.items() if n > 0]
            assert len(populated) >= 3, suite

    def test_no_two_kernels_identical(self, catalog_kernels):
        """Catalog kernels must be genuinely distinct workloads, not
        copy-paste entries: (characteristics, geometry) pairs are
        unique across all 267."""
        signatures = {
            (kernel.characteristics, kernel.geometry)
            for kernel in catalog_kernels
        }
        # Allow the legitimately identical phase pairs (forward/inverse
        # DCT and FFT, the two NW diagonals, PolyBench's repeated
        # matrix-multiply phases...) but not wholesale duplication.
        assert len(signatures) >= len(catalog_kernels) - 12
