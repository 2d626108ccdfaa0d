"""Property-based tests (hypothesis) on core invariants.

Strategy ranges mirror the physically meaningful domains of each
quantity; the model must behave for *any* kernel in that envelope, not
just the authored catalog.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coschedule import CoScheduleModel
from repro.gpu import (
    HAWAII_UARCH,
    BatchIntervalModel,
    CacheModel,
    GpuSimulator,
    HardwareConfig,
    IntervalModel,
    compute_occupancy,
    plan_dispatch,
)
from repro.gpu.families import APU_SPACE
from repro.gpu.uarch import list_families
from repro.kernels import (
    Kernel,
    KernelCharacteristics,
    KernelPack,
    LaunchGeometry,
    ResourceUsage,
)
from repro.suites import all_kernels
from repro.sweep.dataset import KernelRecord, ScalingDataset
from repro.sweep.space import PAPER_SPACE, ConfigurationSpace, reduced_space
from repro.sweep.views import Axis, AxisSlice
from repro.taxonomy import AxisBehaviour, classify_axis
from repro.taxonomy.features import axis_features_from_slice
from tests.gpu.test_study_engine import (
    assert_study_bit_exact,
    force_tile_rows,
)

MODEL = IntervalModel()

configs = st.builds(
    HardwareConfig,
    cu_count=st.integers(1, 64),
    engine_mhz=st.floats(100.0, 1500.0),
    memory_mhz=st.floats(100.0, 1500.0),
)

characteristics = st.builds(
    KernelCharacteristics,
    valu_ops_per_item=st.floats(1.0, 10_000.0),
    global_load_bytes_per_item=st.floats(0.0, 512.0),
    global_store_bytes_per_item=st.floats(0.0, 128.0),
    lds_bytes_per_item=st.floats(0.0, 256.0),
    l1_reuse=st.floats(0.0, 1.0),
    l2_reuse=st.floats(0.0, 1.0),
    footprint_bytes=st.floats(1024.0, 2.0**33),
    shared_footprint=st.floats(0.0, 1.0),
    coalescing_efficiency=st.floats(0.05, 1.0),
    row_locality_sensitivity=st.floats(0.0, 1.0),
    simd_efficiency=st.floats(0.05, 1.0),
    memory_parallelism=st.floats(1.0, 16.0),
    dependent_access_fraction=st.floats(0.0, 1.0),
    atomic_ops_per_item=st.floats(0.0, 4.0),
    atomic_contention=st.floats(0.0, 1.0),
    barriers_per_workgroup=st.floats(0.0, 32.0),
    launch_overhead_us=st.floats(0.0, 100.0),
)

geometries = st.builds(
    LaunchGeometry,
    global_size=st.integers(1, 1 << 24),
    workgroup_size=st.integers(1, 1024),
)

resources = st.builds(
    ResourceUsage,
    vgprs=st.integers(1, 256),
    sgprs=st.integers(1, 102),
    lds_bytes_per_workgroup=st.integers(0, 64 * 1024),
)

kernels = st.builds(
    Kernel,
    program=st.just("prop"),
    name=st.just("k"),
    suite=st.just("hyp"),
    characteristics=characteristics,
    geometry=geometries,
    resources=resources,
)


class TestHardwareConfigProperties:
    @given(configs)
    def test_peaks_positive(self, config):
        assert config.peak_gflops > 0
        assert config.peak_dram_bytes_per_sec > 0
        assert config.machine_balance_flops_per_byte > 0

    @given(configs, st.integers(1, 16))
    def test_peak_compute_monotone_in_cus(self, config, extra):
        larger = config.replace(cu_count=config.cu_count + extra)
        assert larger.peak_gflops > config.peak_gflops


class TestOccupancyProperties:
    @given(geometries, resources)
    def test_occupancy_within_architectural_bounds(self, geometry, usage):
        result = compute_occupancy(geometry, usage, HAWAII_UARCH)
        assert 1 <= result.workgroups_per_cu <= 16
        assert result.waves_per_cu == (
            result.workgroups_per_cu * geometry.waves_per_workgroup
        )

    @given(geometries, resources, st.integers(1, 64))
    def test_dispatch_invariants(self, geometry, usage, cu_count):
        occupancy = compute_occupancy(geometry, usage, HAWAII_UARCH)
        plan = plan_dispatch(geometry, occupancy, cu_count)
        assert 1 <= plan.active_cus <= cu_count
        assert plan.active_cus <= geometry.num_workgroups
        assert plan.quantisation_factor >= 1.0 - 1e-12
        assert (
            plan.batches * plan.resident_workgroups_total
            >= geometry.num_workgroups
        )


class TestCacheProperties:
    @given(kernels, st.integers(1, 44), st.integers(1, 16))
    def test_hit_rates_are_probabilities(self, kernel, cus, wgs):
        behaviour = CacheModel(HAWAII_UARCH).behaviour(kernel, cus, wgs)
        assert 0.0 <= behaviour.l1_hit_rate <= 1.0
        assert 0.0 <= behaviour.l2_hit_rate <= 1.0
        assert 0.0 <= behaviour.dram_fraction <= 1.0

    @given(kernels, st.integers(1, 16))
    def test_l2_hit_rate_non_increasing_in_cus(self, kernel, wgs):
        model = CacheModel(HAWAII_UARCH)
        rates = [
            model.l2_hit_rate(kernel, cus, wgs) for cus in (1, 4, 16, 44)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))


class TestIntervalModelProperties:
    @settings(max_examples=60)
    @given(kernels, configs)
    def test_time_positive_and_finite(self, kernel, config):
        result = MODEL.simulate(kernel, config)
        assert result.time_s > 0
        assert math.isfinite(result.time_s)
        assert result.items_per_second > 0

    @settings(max_examples=60)
    @given(kernels)
    def test_engine_clock_never_catastrophically_hurts(self, kernel):
        """Raising the engine clock may shift queueing slightly but can
        never cost more than a few percent."""
        slow = MODEL.simulate(kernel, HardwareConfig(16, 400.0, 800.0))
        fast = MODEL.simulate(kernel, HardwareConfig(16, 800.0, 800.0))
        assert fast.time_s <= slow.time_s * 1.05

    @settings(max_examples=60)
    @given(kernels)
    def test_memory_clock_never_catastrophically_hurts(self, kernel):
        slow = MODEL.simulate(kernel, HardwareConfig(16, 800.0, 400.0))
        fast = MODEL.simulate(kernel, HardwareConfig(16, 800.0, 800.0))
        assert fast.time_s <= slow.time_s * 1.05


#: How far raising the memory clock may raise ``time_s``, in units in
#: the last place of the slower configuration's time (DESIGN.md, "Known
#: limitation: memory-clock plateaus are flat to 2 ulp").
MEMORY_CLOCK_RISE_ULP = 2


class TestCatalogClockRises:
    """PAPER.md's plateaus on the catalog study over the paper grid:
    a clock rise never costs time. It holds exactly on the engine axis
    and to :data:`MEMORY_CLOCK_RISE_ULP` on the memory axis."""

    @pytest.fixture(scope="class")
    def time_s(self):
        assert list(PAPER_SPACE.engine_mhz) == sorted(PAPER_SPACE.engine_mhz)
        assert list(PAPER_SPACE.memory_mhz) == sorted(PAPER_SPACE.memory_mhz)
        return GpuSimulator().simulate_study(
            all_kernels(), PAPER_SPACE
        ).time_s

    def test_engine_clock_rise_never_costs_time(self, time_s):
        assert (np.diff(time_s, axis=2) <= 0.0).all()

    def test_memory_clock_rise_costs_at_most_two_ulp(self, time_s):
        slower, faster = time_s[..., :-1], time_s[..., 1:]
        rise = faster - slower
        assert (rise <= MEMORY_CLOCK_RISE_ULP * np.spacing(slower)).all()


class TestApuCatalogClockRises(TestCatalogClockRises):
    """The same clock-rise bounds on the Kaveri APU family's grid."""

    @pytest.fixture(scope="class")
    def time_s(self):
        assert list(APU_SPACE.engine_mhz) == sorted(APU_SPACE.engine_mhz)
        assert list(APU_SPACE.memory_mhz) == sorted(APU_SPACE.memory_mhz)
        return GpuSimulator().simulate_study(
            all_kernels(), APU_SPACE
        ).time_s


def _three_per_axis(space: ConfigurationSpace) -> ConfigurationSpace:
    """*space* cut to its two endpoints and middle value on each axis."""

    def cut(axis):
        return tuple(sorted({axis[0], axis[len(axis) // 2], axis[-1]}))

    return ConfigurationSpace(
        cu_counts=cut(space.cu_counts),
        engine_mhz=cut(space.engine_mhz),
        memory_mhz=cut(space.memory_mhz),
        uarch=space.uarch,
    )


class TestGeneratedKernelEngineAgreement:
    """Generated kernels on every registered family: the grid, study,
    one-kernel-per-tile study and idle-partner co-schedule paths
    evaluate the same model bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(kernels, min_size=1, max_size=3),
        st.sampled_from(list_families()),
    )
    def test_grid_study_and_idle_pair_agree(self, generated, family):
        named = [
            dataclasses.replace(kernel, name=f"k{i}")
            for i, kernel in enumerate(generated)
        ]
        space = _three_per_axis(family.space)
        engine = BatchIntervalModel()
        pack = KernelPack.from_kernels(named)
        study = engine.simulate_study(pack, space)
        with pytest.MonkeyPatch.context() as patch:
            force_tile_rows(patch, 1, space)
            tiled = engine.simulate_study(pack, space)
        assert_study_bit_exact(tiled, study)
        for i, kernel in enumerate(named):
            grid = engine.simulate_grid(kernel, space)
            assert np.array_equal(grid.time_s, study.time_s[i])
            pair = CoScheduleModel().pair_surface(kernel, None, space)
            assert np.array_equal(pair.time_a, grid.time_s)


class TestDatasetProperties:
    @settings(max_examples=25)
    @given(
        values=st.lists(
            st.floats(1e-3, 1e12),
            min_size=reduced_space(4, 4, 4).size,
            max_size=reduced_space(4, 4, 4).size,
        )
    )
    def test_save_load_round_trip(self, tmp_path_factory, values):
        space = reduced_space(4, 4, 4)
        perf = np.asarray(values).reshape((1,) + space.shape)
        dataset = ScalingDataset(
            space, [KernelRecord.from_full_name("s/p.k")], perf
        )
        path = tmp_path_factory.mktemp("ds") / "d.npz"
        restored = ScalingDataset.load(dataset.save(path))
        np.testing.assert_allclose(restored.perf, dataset.perf)


speedup_curves = st.lists(
    st.floats(0.05, 60.0), min_size=2, max_size=11
)


class TestTaxonomyProperties:
    @given(speedup_curves)
    def test_feature_extraction_total(self, curve):
        knobs = tuple(float(4 * (i + 1)) for i in range(len(curve)))
        slice_ = AxisSlice("h/x.y", Axis.CU, knobs, tuple(curve))
        features = axis_features_from_slice(slice_)
        assert 0.0 <= features.knee_position <= 1.0
        assert 0.0 <= features.drop_from_peak < 1.0
        assert math.isfinite(features.elasticity)

    @given(speedup_curves)
    def test_axis_classification_total(self, curve):
        knobs = tuple(float(4 * (i + 1)) for i in range(len(curve)))
        slice_ = AxisSlice("h/x.y", Axis.CU, knobs, tuple(curve))
        behaviour = classify_axis(axis_features_from_slice(slice_))
        assert isinstance(behaviour, AxisBehaviour)

    @given(speedup_curves)
    def test_monotone_rising_never_inverse(self, curve):
        rising = sorted(curve)
        knobs = tuple(float(4 * (i + 1)) for i in range(len(rising)))
        slice_ = AxisSlice("h/x.y", Axis.CU, knobs, tuple(rising))
        behaviour = classify_axis(axis_features_from_slice(slice_))
        assert behaviour is not AxisBehaviour.INVERSE


class TestPowerProperties:
    @given(configs)
    def test_power_positive_and_finite(self, config):
        from repro.power import DEFAULT_POWER_MODEL

        power = DEFAULT_POWER_MODEL.board_power_w(config)
        assert math.isfinite(power) and power > 0

    @given(configs, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_power_monotone_in_activity(self, config, low, high):
        from repro.power import DEFAULT_POWER_MODEL

        lo, hi = sorted((low, high))
        p_lo = DEFAULT_POWER_MODEL.board_power_w(config, lo, lo)
        p_hi = DEFAULT_POWER_MODEL.board_power_w(config, hi, hi)
        assert p_hi >= p_lo - 1e-12

    @settings(max_examples=40)
    @given(kernels, configs)
    def test_energy_accounting_consistent(self, kernel, config):
        from repro.power import EnergyModel

        result = EnergyModel().evaluate(kernel, config)
        assert result.energy_j == pytest.approx(
            result.time_s * result.power_w
        )
        assert result.power_w > 0
        assert 0.0 <= result.compute_activity <= 1.0
        assert 0.0 <= result.memory_activity <= 1.0


class TestInterpolationProperties:
    @settings(max_examples=30)
    @given(
        cu=st.integers(1, 64),
        engine=st.floats(150.0, 1100.0),
        memory=st.floats(150.0, 1250.0),
    )
    def test_interpolation_bounded_by_cube(
        self, archetype_dataset, cu, engine, memory
    ):
        from repro.predict import CubeInterpolator
        from repro.gpu import HardwareConfig

        name = archetype_dataset.kernel_names[0]
        model = CubeInterpolator(archetype_dataset, name)
        value = model.predict(HardwareConfig(cu, engine, memory))
        cube = archetype_dataset.kernel_cube(name)
        assert cube.min() * 0.999 <= value <= cube.max() * 1.001


class TestInputScalingProperties:
    @settings(max_examples=40)
    @given(kernels, st.floats(0.1, 1000.0))
    def test_scaled_kernel_remains_valid(self, kernel, factor):
        from repro.analysis import scale_input

        scaled = scale_input(kernel, factor)
        assert scaled.geometry.global_size >= 1
        assert scaled.characteristics.footprint_bytes > 0
        result = MODEL.simulate(
            scaled, HardwareConfig(16, 800.0, 800.0)
        )
        assert result.time_s > 0


class TestCounterProperties:
    @settings(max_examples=40)
    @given(kernels, configs)
    def test_counters_bounded_for_any_kernel(self, kernel, config):
        from repro.gpu.counters import collect_counters

        report = collect_counters(kernel, config)
        assert 0.0 <= report.valu_busy_fraction <= 1.0
        assert 0.0 <= report.dram_utilisation <= 1.0
        assert report.duration_us > 0
        assert report.achieved_gflops >= 0
        assert report.achieved_dram_gbps >= 0


class TestWhatIfProperties:
    @settings(max_examples=30)
    @given(kernels)
    def test_playbook_always_produces_valid_kernels(self, kernel):
        from repro.predict.what_if import STANDARD_SCENARIOS

        for scenario in STANDARD_SCENARIOS:
            optimised = scenario.apply(kernel)
            result = MODEL.simulate(
                optimised, HardwareConfig(16, 800.0, 800.0)
            )
            assert result.time_s > 0
            assert math.isfinite(result.time_s)
