"""Capability degradation through the sweep stack (satellite of the
engine-registry refactor).

A registry-registered *point-only* engine must flow through
:class:`SweepRunner` and :class:`ParallelSweepRunner` exactly like the
built-in fallback paths did pre-registry: grid requests degrade to the
point loop bit-identically to the scalar oracle, study requests degrade
to per-kernel grids, failures keep per-kernel quarantine attribution,
and checkpointed campaigns resume bit-exactly. A *grid-only* engine
(the ``grid_only_engine`` fixture) is refused point and study calls by
the facade, and a study request through the runner degrades to its
per-kernel grids.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.gpu.engine import (
    EngineCapabilities,
    EngineDescriptor,
    engine_registration,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.gpu.interval_model import IntervalModel
from repro.gpu.simulator import GpuSimulator
from repro.sweep.campaign import CampaignRunner
from repro.sweep.parallel import ParallelSweepRunner
from repro.sweep.runner import SweepRunner

POINT_ONLY = "test-point-only"
GRUDGE = "test-grudge"

#: The kernel the grudge engine refuses to simulate.
GRUDGE_TARGET = "probe/latency_probe.main"


class PointOnlyEngine:
    """The scalar oracle re-registered without any grid capability."""

    supports_point = True
    supports_grid = False
    supports_study = False

    def __init__(self):
        self._oracle = IntervalModel()

    def descriptor(self):
        return EngineDescriptor(name=POINT_ONLY, family=POINT_ONLY)

    def simulate(self, kernel, config):
        return self._oracle.simulate(kernel, config)


class GrudgeEngine(PointOnlyEngine):
    """Point-only engine that fails one specific kernel."""

    def descriptor(self):
        return EngineDescriptor(name=GRUDGE, family=GRUDGE)

    def simulate(self, kernel, config):
        if kernel.full_name == GRUDGE_TARGET:
            raise SimulationError(kernel.full_name, "holds a grudge")
        return super().simulate(kernel, config)


@pytest.fixture
def point_only_engine():
    register_engine(
        POINT_ONLY,
        PointOnlyEngine,
        capabilities=EngineCapabilities(point=True),
        summary="point-only oracle for degradation tests",
    )
    yield POINT_ONLY
    unregister_engine(POINT_ONLY)


@pytest.fixture
def grudge_engine():
    register_engine(
        GRUDGE,
        GrudgeEngine,
        capabilities=EngineCapabilities(point=True),
        summary="point-only engine failing one kernel",
    )
    yield GRUDGE
    unregister_engine(GRUDGE)


class TestPointLoopDegradation:
    def test_facade_degrades_grid_to_point_loop(
        self, point_only_engine, archetype_kernels, small_space
    ):
        degraded = GpuSimulator(point_only_engine).simulate_grid(
            archetype_kernels[0], small_space
        )
        oracle = GpuSimulator("interval").simulate_grid(
            archetype_kernels[0], small_space, mode="scalar"
        )
        np.testing.assert_array_equal(degraded.time_s, oracle.time_s)
        np.testing.assert_array_equal(
            degraded.items_per_second, oracle.items_per_second
        )

    def test_sweep_runner_matches_scalar_oracle_bitwise(
        self, point_only_engine, archetype_kernels, small_space
    ):
        degraded = SweepRunner(engine=point_only_engine).run(
            archetype_kernels, small_space
        )
        oracle = SweepRunner(engine="interval", grid_mode="scalar").run(
            archetype_kernels, small_space
        )
        np.testing.assert_array_equal(degraded.perf, oracle.perf)

    def test_study_mode_degrades_to_per_kernel_loop(
        self, point_only_engine, archetype_kernels, small_space
    ):
        study = SweepRunner(
            engine=point_only_engine, grid_mode="study"
        ).run(archetype_kernels, small_space)
        batch = SweepRunner().run(archetype_kernels, small_space)
        np.testing.assert_allclose(
            study.perf, batch.perf, rtol=1e-12, atol=0
        )


class TestGridOnlyCapability:
    def test_facade_refuses_point_and_study(
        self, grid_only_engine, archetype_kernels, flagship
    ):
        simulator = GpuSimulator(grid_only_engine)
        with pytest.raises(ConfigurationError):
            simulator.simulate(archetype_kernels[0], flagship)
        with pytest.raises(ConfigurationError):
            simulator.simulate_study(archetype_kernels, None)

    def test_study_mode_degrades_through_runner(
        self, grid_only_engine, archetype_kernels, small_space
    ):
        # No study capability anywhere in the grid-only family: the
        # runner falls back to per-kernel grids transparently.
        study = SweepRunner(engine=grid_only_engine, grid_mode="study").run(
            archetype_kernels, small_space
        )
        batch = SweepRunner(engine=grid_only_engine).run(
            archetype_kernels, small_space
        )
        np.testing.assert_array_equal(study.perf, batch.perf)
        assert not study.quarantined

    def test_registered_grid_only(self, grid_only_engine):
        entry = engine_registration(grid_only_engine)
        assert entry.capabilities.as_dict() == {
            "point": False, "grid": True, "study": False,
        }
        assert entry.descriptor.family == grid_only_engine

    def test_factory_builds_engine(self, grid_only_engine):
        engine = get_engine(grid_only_engine)
        assert engine.supports_grid and not engine.supports_point
        assert engine.descriptor().name == grid_only_engine

    def test_facade_grid_matches_batch_engine_bitwise(
        self, grid_only_engine, archetype_kernels, small_space
    ):
        grid = GpuSimulator(grid_only_engine).simulate_grid(
            archetype_kernels[0], small_space
        )
        batch = GpuSimulator("interval-batch").simulate_grid(
            archetype_kernels[0], small_space
        )
        np.testing.assert_array_equal(
            grid.items_per_second, batch.items_per_second
        )

    def test_sweep_runner_collects_grid_only_dataset(
        self, grid_only_engine, archetype_kernels, small_space
    ):
        dataset = SweepRunner(engine=grid_only_engine).run(
            archetype_kernels, small_space
        )
        assert dataset.perf.shape == (
            (len(archetype_kernels),) + small_space.shape
        )
        assert np.isfinite(dataset.perf).all()
        assert (dataset.perf > 0).all()
        batch = SweepRunner(engine="interval-batch").run(
            archetype_kernels, small_space
        )
        np.testing.assert_array_equal(dataset.perf, batch.perf)

    def test_campaign_resume_is_bit_exact(
        self, grid_only_engine, archetype_kernels, small_space, tmp_path
    ):
        runner = CampaignRunner(
            tmp_path / "journal",
            runner=SweepRunner(engine=grid_only_engine),
            chunk_size=4,
        )
        first, _ = runner.run(archetype_kernels, small_space)
        resumed, report = runner.run(
            archetype_kernels, small_space, resume=True
        )
        assert report.resumed_chunks == report.total_chunks
        assert report.executed_chunks == 0
        np.testing.assert_array_equal(first.perf, resumed.perf)


class TestQuarantineAttribution:
    def test_point_only_failure_quarantines_one_kernel(
        self, grudge_engine, archetype_kernels, small_space
    ):
        dataset = SweepRunner(engine=grudge_engine).run(
            archetype_kernels, small_space, strict=False
        )
        assert set(dataset.quarantined) == {GRUDGE_TARGET}
        assert "grudge" in dataset.quarantined[GRUDGE_TARGET]
        row = dataset.kernel_cube(GRUDGE_TARGET)
        assert np.isnan(row).all()
        healthy = dataset.healthy()
        assert np.isfinite(healthy.perf).all()

    def test_strict_failure_names_the_kernel(
        self, grudge_engine, archetype_kernels, small_space
    ):
        with pytest.raises(SimulationError) as excinfo:
            SweepRunner(engine=grudge_engine).run(
                archetype_kernels, small_space, strict=True
            )
        assert excinfo.value.kernel_name == GRUDGE_TARGET


class TestParallelDegradation:
    def test_parallel_runner_matches_serial_bitwise(
        self, point_only_engine, archetype_kernels, small_space
    ):
        parallel = ParallelSweepRunner(
            engine=point_only_engine, workers=2, chunk_timeout_s=120.0
        ).run(archetype_kernels, small_space)
        serial = SweepRunner(engine=point_only_engine).run(
            archetype_kernels, small_space
        )
        np.testing.assert_array_equal(parallel.perf, serial.perf)

    def test_parallel_quarantine_attribution_survives_workers(
        self, grudge_engine, archetype_kernels, small_space
    ):
        dataset = ParallelSweepRunner(
            engine=grudge_engine, workers=2, chunk_timeout_s=120.0
        ).run(archetype_kernels, small_space, strict=False)
        assert set(dataset.quarantined) == {GRUDGE_TARGET}


class TestCampaignDegradation:
    def test_campaign_resume_is_bit_exact(
        self, point_only_engine, archetype_kernels, small_space, tmp_path
    ):
        journal = tmp_path / "journal"
        runner = CampaignRunner(
            journal,
            runner=SweepRunner(engine=point_only_engine),
            chunk_size=4,
        )
        first, report = runner.run(archetype_kernels, small_space)
        assert report.executed_chunks == report.total_chunks

        resumed, resume_report = runner.run(
            archetype_kernels, small_space, resume=True
        )
        assert resume_report.resumed_chunks == report.total_chunks
        assert resume_report.executed_chunks == 0
        np.testing.assert_array_equal(first.perf, resumed.perf)

    def test_campaign_resume_preserves_quarantine(
        self, grudge_engine, archetype_kernels, small_space, tmp_path
    ):
        journal = tmp_path / "journal"
        runner = CampaignRunner(
            journal,
            runner=SweepRunner(engine=grudge_engine),
            chunk_size=4,
            strict=False,
        )
        first, _ = runner.run(archetype_kernels, small_space)
        resumed, report = runner.run(
            archetype_kernels, small_space, resume=True
        )
        assert report.resumed_chunks == report.total_chunks
        assert set(resumed.quarantined) == {GRUDGE_TARGET}
        np.testing.assert_array_equal(
            np.nan_to_num(first.perf), np.nan_to_num(resumed.perf)
        )
