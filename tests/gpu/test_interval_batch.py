"""Batch interval engine vs. the scalar reference oracle.

The batch engine must reproduce the scalar :class:`IntervalModel` to
``rtol=1e-12`` at every point of the full 891-configuration grid — the
scalar path stays the oracle, and this file is the property test that
pins the CU-axis hoisting invariant (see DESIGN.md, "Engine
architecture").
"""

import numpy as np
import pytest

from repro.gpu import GpuSimulator, IntervalModel
from repro.gpu.families import APU_SPACE
from repro.gpu.interval_batch import BatchIntervalModel
from repro.kernels import (
    ARCHETYPE_BUILDERS,
    atomic_kernel,
    compute_kernel,
    latency_kernel,
    lds_kernel,
    limited_parallelism_kernel,
    streaming_kernel,
)
from repro.suites import all_kernels, all_suites
from repro.sweep import PAPER_SPACE, reduced_space

RTOL = 1e-12

SUITE_NAMES = [suite.name for suite in all_suites()]


def scalar_grid(kernel, space):
    """Full-grid times via one scalar ``simulate`` call per point."""
    model = IntervalModel()
    n_cu, n_eng, n_mem = space.shape
    time_s = np.empty(space.shape)
    for c in range(n_cu):
        for e in range(n_eng):
            for m in range(n_mem):
                time_s[c, e, m] = model.simulate(
                    kernel, space.config(c, e, m)
                ).time_s
    return time_s


def assert_grids_match(kernel, space):
    batch = BatchIntervalModel().simulate_grid(kernel, space)
    expected = scalar_grid(kernel, space)
    np.testing.assert_allclose(batch.time_s, expected, rtol=RTOL)
    np.testing.assert_allclose(
        batch.items_per_second,
        kernel.geometry.global_size / expected,
        rtol=RTOL,
    )


class TestSuiteEquivalence:
    """One representative kernel per suite, full 891-point grid."""

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_full_grid_matches_scalar(self, suite):
        assert_grids_match(all_kernels(suite)[0], PAPER_SPACE)

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_last_kernel_reduced_grid(self, suite):
        assert_grids_match(all_kernels(suite)[-1], reduced_space(2, 2, 2))


class TestArchetypeEquivalence:
    """Every archetype (all model mechanisms), reduced grid."""

    @pytest.mark.parametrize("kind", sorted(ARCHETYPE_BUILDERS))
    def test_archetype_matches_scalar(self, kind):
        kernel = ARCHETYPE_BUILDERS[kind](f"{kind}_probe", suite="probe")
        assert_grids_match(kernel, reduced_space(2, 2, 2))


class TestEdgeCases:
    def test_zero_lds(self):
        kernel = compute_kernel("zlds", suite="edge")
        assert kernel.characteristics.lds_bytes_per_item == 0.0
        assert_grids_match(kernel, PAPER_SPACE)

    def test_nonzero_lds(self):
        assert_grids_match(lds_kernel("lds", suite="edge"), PAPER_SPACE)

    def test_zero_atomic(self):
        kernel = streaming_kernel("zat", suite="edge")
        assert kernel.characteristics.atomic_ops_per_item == 0.0
        assert_grids_match(kernel, PAPER_SPACE)

    def test_atomic_with_contention(self):
        assert_grids_match(atomic_kernel("at", suite="edge"), PAPER_SPACE)

    def test_zero_dependent_access_fraction(self):
        kernel = streaming_kernel(
            "nodep", suite="edge",
            dependent_access_fraction=0.0,
        )
        assert kernel.characteristics.dependent_access_fraction == 0.0
        assert_grids_match(kernel, PAPER_SPACE)

    def test_latency_bound_two_pass_refinement(self):
        assert_grids_match(latency_kernel("lat", suite="edge"), PAPER_SPACE)

    def test_single_workgroup_tail_quantisation(self):
        kernel = limited_parallelism_kernel(
            "one_wg", suite="edge", num_workgroups=1
        )
        assert kernel.geometry.num_workgroups == 1
        assert_grids_match(kernel, PAPER_SPACE)

    def test_prime_workgroup_count_tail(self):
        kernel = limited_parallelism_kernel(
            "tail", suite="edge", num_workgroups=97
        )
        assert_grids_match(kernel, PAPER_SPACE)


class TestAlternativeUarch:
    """The hoist must hold for non-default microarchitectures too."""

    @pytest.mark.parametrize("suite", ["rodinia", "shoc"])
    def test_apu_space_matches_scalar(self, suite):
        assert_grids_match(all_kernels(suite)[0], APU_SPACE)


class TestGridResultContents:
    def test_breakdown_matches_scalar_breakdown(self):
        kernel = all_kernels("rodinia")[3]
        space = reduced_space(4, 4, 4)
        batch = BatchIntervalModel().simulate_grid(kernel, space)
        model = IntervalModel()
        grids = batch.breakdown.as_dict()
        n_cu, n_eng, n_mem = space.shape
        for c in range(n_cu):
            for e in range(n_eng):
                for m in range(n_mem):
                    result = model.simulate(kernel, space.config(c, e, m))
                    for name, value in result.breakdown.as_dict().items():
                        assert grids[name][c, e, m] == pytest.approx(
                            value, rel=RTOL
                        )

    def test_bottleneck_matches_scalar(self):
        kernel = all_kernels("polybench")[0]
        space = reduced_space(4, 4, 4)
        batch = BatchIntervalModel().simulate_grid(kernel, space)
        model = IntervalModel()
        names = batch.breakdown.bottleneck
        n_cu, n_eng, n_mem = space.shape
        for c in range(n_cu):
            for e in range(n_eng):
                for m in range(n_mem):
                    result = model.simulate(kernel, space.config(c, e, m))
                    assert names[c, e, m] == result.breakdown.bottleneck

    def test_cu_axis_vectors(self):
        kernel = all_kernels("shoc")[0]
        batch = BatchIntervalModel().simulate_grid(kernel, PAPER_SPACE)
        assert batch.l2_hit_rate.shape == (11,)
        assert batch.dram_bytes.shape == (11,)
        assert batch.time_s.shape == PAPER_SPACE.shape
        assert batch.global_size == kernel.geometry.global_size
        assert batch.kernel_name == kernel.full_name

    def test_simulator_grid_modes_agree(self):
        kernel = all_kernels("parboil")[0]
        space = reduced_space(2, 2, 2)
        sim = GpuSimulator()
        batch = sim.simulate_grid(kernel, space)
        scalar = sim.simulate_grid(kernel, space, mode="scalar")
        np.testing.assert_allclose(
            batch.time_s, scalar.time_s, rtol=RTOL
        )
        np.testing.assert_allclose(
            batch.breakdown.latency_s, scalar.breakdown.latency_s,
            rtol=RTOL,
        )
