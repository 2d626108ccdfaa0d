"""Whole-study kernel-axis batching vs. the per-kernel oracles.

Grid mode ``"study"`` evaluates the entire catalog in one
``(kernel, cu, eng, mem)`` broadcast. Its contract is strict: slicing
the study tensor at any kernel must be *bitwise identical* to the
per-kernel batch path, and within ``rtol=1e-12`` of the scalar
reference oracle — the same invariant chain the batch engine pins
against the scalar model in ``test_interval_batch.py``, extended one
axis. The engine evaluates the lattice in kernel-axis tiles of
``STUDY_TILE_POINTS`` points; the tiling tests force tile boundaries
inside small packs and hold every tile shape to the same contract. This
file also pins the per-microarchitecture state hoist: cache and memory
derived state is built once per uarch, never per call.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.gpu import GpuSimulator
from repro.gpu.engine import engine_calls
from repro.gpu.families import APU_SPACE
from repro.gpu.interval_batch import BatchIntervalModel
import repro.gpu.interval_batch as interval_batch
from repro.gpu.caches import CacheModel
from repro.kernels import ARCHETYPE_BUILDERS, KernelPack
from repro.suites import all_kernels, all_suites
from repro.sweep import (
    FaultKind,
    FaultSpec,
    FaultyEngine,
    PAPER_SPACE,
    SweepRunner,
    reduced_space,
)
from repro.sweep.space import ConfigurationSpace

RTOL = 1e-12


def assert_study_bit_exact(actual, expected):
    """Every field of the study result, compared to the last bit."""
    assert actual.kernel_names == expected.kernel_names
    np.testing.assert_array_equal(actual.time_s, expected.time_s)
    np.testing.assert_array_equal(
        actual.items_per_second, expected.items_per_second
    )
    np.testing.assert_array_equal(
        actual.l2_hit_rate, expected.l2_hit_rate
    )
    np.testing.assert_array_equal(actual.dram_bytes, expected.dram_bytes)
    np.testing.assert_array_equal(
        actual.global_size, expected.global_size
    )
    np.testing.assert_array_equal(
        actual.occupancy.waves_per_cu, expected.occupancy.waves_per_cu
    )
    np.testing.assert_array_equal(
        actual.occupancy.workgroups_per_cu,
        expected.occupancy.workgroups_per_cu,
    )
    assert actual.occupancy.limiters == expected.occupancy.limiters


def batch_rows(kernels, space):
    """Per-kernel batch grids, stacked along the kernel axis."""
    model = BatchIntervalModel()
    return np.stack(
        [model.simulate_grid(k, space).time_s for k in kernels]
    )


class TestStudyVsBatchBitExact:
    """The study path must reproduce the batch path to the last bit."""

    def test_full_catalog_reduced_space(self):
        kernels = all_kernels()
        space = reduced_space(2, 2, 2)
        study = GpuSimulator().simulate_study(kernels, space)
        np.testing.assert_array_equal(
            study.time_s, batch_rows(kernels, space)
        )

    def test_full_catalog_paper_space(self):
        kernels = all_kernels()
        study = GpuSimulator().simulate_study(kernels, PAPER_SPACE)
        np.testing.assert_array_equal(
            study.time_s, batch_rows(kernels, PAPER_SPACE)
        )

    @pytest.mark.parametrize(
        "suite", [suite.name for suite in all_suites()]
    )
    def test_each_suite_paper_space(self, suite):
        kernels = all_kernels(suite)
        study = GpuSimulator().simulate_study(kernels, PAPER_SPACE)
        np.testing.assert_array_equal(
            study.time_s, batch_rows(kernels, PAPER_SPACE)
        )


class TestStudyVsScalarOracle:
    """And stay within the batch engine's tolerance of the scalar."""

    def test_full_catalog_vs_scalar(self):
        kernels = all_kernels()
        space = reduced_space(4, 4, 4)
        study = GpuSimulator().simulate_study(kernels, space)
        sim = GpuSimulator()
        for i, kernel in enumerate(kernels):
            scalar = sim.simulate_grid(
                kernel, space, mode="scalar"
            )
            np.testing.assert_allclose(
                study.time_s[i], scalar.time_s, rtol=RTOL
            )

    @pytest.mark.parametrize("kind", sorted(ARCHETYPE_BUILDERS))
    @pytest.mark.parametrize(
        "space",
        [reduced_space(2, 2, 2), APU_SPACE],
        ids=["hawaii", "kaveri-apu"],
    )
    def test_every_archetype_every_uarch_family(self, kind, space):
        kernel = ARCHETYPE_BUILDERS[kind](f"{kind}_probe", suite="probe")
        study = GpuSimulator().simulate_study([kernel], space)
        scalar = GpuSimulator().simulate_grid(
            kernel, space, mode="scalar"
        )
        np.testing.assert_allclose(
            study.time_s[0], scalar.time_s, rtol=RTOL
        )


class TestStudyResultContents:
    def test_shapes_and_names(self):
        kernels = all_kernels("rodinia")
        space = reduced_space(2, 2, 2)
        study = GpuSimulator().simulate_study(kernels, space)
        n = len(kernels)
        assert len(study) == n
        assert study.kernel_names == tuple(k.full_name for k in kernels)
        assert study.time_s.shape == (n,) + space.shape
        assert study.items_per_second.shape == (n,) + space.shape
        assert study.l2_hit_rate.shape == (n, space.shape[0])
        assert study.dram_bytes.shape == (n, space.shape[0])
        np.testing.assert_array_equal(
            study.global_size,
            [k.geometry.global_size for k in kernels],
        )

    def test_perf_row_matches_batch_grid(self):
        kernels = all_kernels("polybench")
        space = reduced_space(2, 2, 2)
        study = GpuSimulator().simulate_study(kernels, space)
        model = BatchIntervalModel()
        for i, kernel in enumerate(kernels):
            grid = model.simulate_grid(kernel, space)
            np.testing.assert_array_equal(
                study.perf_row(i), grid.items_per_second
            )

    def test_cu_axis_vectors_match_batch(self):
        kernels = all_kernels("parboil")
        space = reduced_space(2, 2, 2)
        study = GpuSimulator().simulate_study(kernels, space)
        model = BatchIntervalModel()
        for i, kernel in enumerate(kernels):
            grid = model.simulate_grid(kernel, space)
            np.testing.assert_array_equal(
                study.l2_hit_rate[i], grid.l2_hit_rate
            )
            np.testing.assert_array_equal(
                study.dram_bytes[i], grid.dram_bytes
            )

    def test_occupancy_matches_batch(self):
        kernels = all_kernels("opendwarfs")
        space = reduced_space(2, 2, 2)
        study = GpuSimulator().simulate_study(kernels, space)
        model = BatchIntervalModel()
        for i, kernel in enumerate(kernels):
            grid = model.simulate_grid(kernel, space)
            scalar_occ = study.occupancy.result(i)
            assert scalar_occ == grid.occupancy

    def test_accepts_prepacked_kernels(self):
        kernels = all_kernels("proxyapps")
        space = reduced_space(4, 4, 4)
        sim = GpuSimulator()
        from_list = sim.simulate_study(kernels, space)
        from_pack = sim.simulate_study(
            KernelPack.from_kernels(kernels), space
        )
        np.testing.assert_array_equal(
            from_list.time_s, from_pack.time_s
        )

    def test_event_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            GpuSimulator("event").simulate_study(
                all_kernels("proxyapps"), reduced_space(4, 4, 4)
            )


class TestSweepRunnerStudyMode:
    def test_dataset_identical_to_batch_mode(self):
        kernels = all_kernels()
        space = reduced_space(2, 2, 2)
        batch = SweepRunner(grid_mode="batch").run(kernels, space)
        study = SweepRunner(grid_mode="study").run(kernels, space)
        np.testing.assert_array_equal(batch.perf, study.perf)
        assert batch.kernel_names == study.kernel_names
        assert study.quarantined == {}

    def test_forced_tiles_dataset_identical_to_batch_mode(
        self, monkeypatch
    ):
        kernels = all_kernels()
        space = reduced_space(2, 2, 2)
        batch = SweepRunner(grid_mode="batch").run(kernels, space)
        force_tile_rows(monkeypatch, 9, space)
        study = SweepRunner(grid_mode="study").run(kernels, space)
        np.testing.assert_array_equal(batch.perf, study.perf)
        assert batch.kernel_names == study.kernel_names
        assert study.quarantined == {}

    def test_progress_ticks_per_kernel_row(self):
        kernels = all_kernels("proxyapps")
        calls = []
        SweepRunner(grid_mode="study").run(
            kernels, reduced_space(4, 4, 4),
            progress=lambda d, t: calls.append((d, t)),
        )
        assert calls == [
            (i + 1, len(kernels)) for i in range(len(kernels))
        ]

    def test_fault_engine_falls_back_with_quarantine(self):
        """A simulator without ``simulate_study`` (the fault-injection
        wrapper) must transparently use the per-kernel loop, keeping
        full quarantine attribution."""
        kernels = all_kernels("proxyapps")
        space = reduced_space(4, 4, 4)
        target = kernels[3].full_name
        faulty = FaultyEngine(
            GpuSimulator(),
            [FaultSpec(kind=FaultKind.RAISE, kernel_name=target,
                       message="study fallback boom")],
        )
        runner = SweepRunner(
            grid_mode="study", simulator=faulty
        )
        dataset = runner.run(kernels, space, strict=False)
        assert dataset.quarantined == {target: "study fallback boom"}
        assert np.isnan(dataset.perf[3]).all()
        clean = SweepRunner(grid_mode="study").run(kernels, space)
        healthy = dataset.healthy()
        np.testing.assert_array_equal(
            healthy.perf, clean.subset(healthy.kernel_names).perf
        )

    def test_fault_engine_strict_raises_named_error(self):
        kernels = all_kernels("proxyapps")
        target = kernels[3].full_name
        faulty = FaultyEngine(
            GpuSimulator(),
            [FaultSpec(kind=FaultKind.RAISE, kernel_name=target,
                       message="strict boom")],
        )
        runner = SweepRunner(
            grid_mode="study", simulator=faulty
        )
        with pytest.raises(SimulationError) as excinfo:
            runner.run(kernels, reduced_space(4, 4, 4), strict=True)
        assert excinfo.value.kernel_name == target


def force_tile_rows(monkeypatch, rows, space):
    """Make ``simulate_study`` evaluate *space* in tiles of *rows*
    kernels (the module constant is the only tiling input)."""
    monkeypatch.setattr(
        interval_batch, "STUDY_TILE_POINTS", rows * space.size
    )


@pytest.fixture
def tiles(monkeypatch):
    """Heights of the kernel-axis tiles evaluated, in order (grid
    calls pass a scalar ``items`` and are not counted)."""
    heights = []
    real_terms = interval_batch.interval_terms

    def counting_terms(**kwargs):
        if np.ndim(kwargs["items"]) == 4:
            heights.append(len(kwargs["items"]))
        return real_terms(**kwargs)

    monkeypatch.setattr(interval_batch, "interval_terms", counting_terms)
    return heights


def one_tile_and_tiled(monkeypatch, kernels, space, rows):
    """The study of *kernels* over *space* evaluated as one tile, and
    again in tiles of *rows* kernels."""
    pack = KernelPack.from_kernels(kernels)
    force_tile_rows(monkeypatch, len(kernels), space)
    whole = BatchIntervalModel().simulate_study(pack, space)
    force_tile_rows(monkeypatch, rows, space)
    return whole, BatchIntervalModel().simulate_study(pack, space)


class TestForcedTilesVsOneTile:
    """Any tile height reproduces the one-tile study to the last bit,
    over the whole catalog, every suite and both uarch families, and
    stays within the batch tolerance of the scalar oracle."""

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_full_catalog_paper_space(self, monkeypatch, tiles, rows):
        kernels = all_kernels()
        whole, tiled = one_tile_and_tiled(
            monkeypatch, kernels, PAPER_SPACE, rows
        )
        assert_study_bit_exact(tiled, whole)
        assert tiles[0] == len(kernels)
        assert len(tiles) == 1 + -(-len(kernels) // rows)

    @pytest.mark.parametrize(
        "suite", [suite.name for suite in all_suites()]
    )
    def test_each_suite_paper_space(self, monkeypatch, suite):
        whole, tiled = one_tile_and_tiled(
            monkeypatch, all_kernels(suite), PAPER_SPACE, 3
        )
        assert_study_bit_exact(tiled, whole)

    @pytest.mark.parametrize(
        "space",
        [PAPER_SPACE, APU_SPACE],
        ids=["hawaii", "kaveri-apu"],
    )
    def test_both_uarch_families(self, monkeypatch, space):
        whole, tiled = one_tile_and_tiled(
            monkeypatch, all_kernels(), space, 10
        )
        assert_study_bit_exact(tiled, whole)

    def test_vs_scalar_oracle(self, monkeypatch):
        kernels = all_kernels()
        space = reduced_space(4, 4, 4)
        force_tile_rows(monkeypatch, 16, space)
        study = GpuSimulator().simulate_study(kernels, space)
        sim = GpuSimulator()
        for i, kernel in enumerate(kernels):
            scalar = sim.simulate_grid(kernel, space, mode="scalar")
            np.testing.assert_allclose(
                study.time_s[i], scalar.time_s, rtol=RTOL
            )

    @pytest.mark.parametrize(
        "space",
        [reduced_space(2, 2, 2), APU_SPACE],
        ids=["hawaii", "kaveri-apu"],
    )
    def test_archetype_pack_vs_scalar_oracle(self, monkeypatch, space):
        """Every archetype in one pack, two kernels per tile."""
        kernels = [
            ARCHETYPE_BUILDERS[kind](f"{kind}_probe", suite="probe")
            for kind in sorted(ARCHETYPE_BUILDERS)
        ]
        whole, tiled = one_tile_and_tiled(monkeypatch, kernels, space, 2)
        assert_study_bit_exact(tiled, whole)
        sim = GpuSimulator()
        for i, kernel in enumerate(kernels):
            scalar = sim.simulate_grid(kernel, space, mode="scalar")
            np.testing.assert_allclose(
                tiled.time_s[i], scalar.time_s, rtol=RTOL
            )

    def test_tile_budget_below_one_row_tiles_single_kernels(
        self, monkeypatch, tiles
    ):
        """A budget smaller than one kernel's lattice still makes
        progress: each tile holds exactly one kernel."""
        kernels = all_kernels("proxyapps")
        pack = KernelPack.from_kernels(kernels)
        force_tile_rows(monkeypatch, len(kernels), PAPER_SPACE)
        whole = BatchIntervalModel().simulate_study(pack, PAPER_SPACE)
        monkeypatch.setattr(interval_batch, "STUDY_TILE_POINTS", 1)
        tiles.clear()
        tiled = BatchIntervalModel().simulate_study(pack, PAPER_SPACE)
        assert tiles == [1] * len(kernels)
        assert_study_bit_exact(tiled, whole)


class TestKernelAxisTiling:
    """Tiling the clock lattice along the kernel axis moves no bit.

    ``STUDY_TILE_POINTS`` is patched so that tile boundaries fall
    inside packs of a few kernels."""

    SPACE = reduced_space(2, 2, 2)

    def assert_rows_match_grid(self, kernels, study):
        model = BatchIntervalModel()
        for i, kernel in enumerate(kernels):
            grid = model.simulate_grid(kernel, self.SPACE)
            np.testing.assert_array_equal(study.time_s[i], grid.time_s)
            np.testing.assert_array_equal(
                study.items_per_second[i], grid.items_per_second
            )
            np.testing.assert_array_equal(
                study.l2_hit_rate[i], grid.l2_hit_rate
            )
            np.testing.assert_array_equal(
                study.dram_bytes[i], grid.dram_bytes
            )
            assert study.occupancy.result(i) == grid.occupancy

    def tiled_study(self, monkeypatch, tiles, kernels, rows):
        """The study of *kernels* in tiles of *rows*, checked bit for
        bit against each row's grid and the one-tile study."""
        pack = KernelPack.from_kernels(kernels)
        whole = BatchIntervalModel().simulate_study(pack, self.SPACE)
        assert tiles == [len(kernels)]
        force_tile_rows(monkeypatch, rows, self.SPACE)
        tiles.clear()
        study = BatchIntervalModel().simulate_study(pack, self.SPACE)
        heights = list(tiles)
        self.assert_rows_match_grid(kernels, study)
        assert_study_bit_exact(study, whole)
        return heights

    @pytest.mark.parametrize(
        "n_kernels, rows, heights",
        [
            (1, 4, [1]),
            (1, 1, [1]),
            (5, 5, [5]),
            (11, 5, [3, 4, 4]),
            (6, 1, [1] * 6),
        ],
        ids=["k1", "k1-rows1", "one-full-tile", "multiple-plus-one",
             "rows1"],
    )
    def test_tiled_rows_equal_grid(
        self, monkeypatch, tiles, n_kernels, rows, heights
    ):
        kernels = all_kernels()[::23][:n_kernels]
        assert self.tiled_study(monkeypatch, tiles, kernels, rows) == heights

    def test_zero_skip_tile_next_to_computed_tile(self, monkeypatch, tiles):
        """A tile whose dependence and atomic inputs are zero skips
        both blocks; the next tile computes them. Either way each row
        equals its grid, and the one-tile study, which computes both
        blocks for every row, to the last bit."""
        catalog = all_kernels()

        def ch(kernel, name):
            return getattr(kernel.characteristics, name)

        quiet = [
            k for k in catalog
            if ch(k, "dependent_access_fraction") == 0
            and ch(k, "atomic_ops_per_item") == 0
        ]
        dependent = next(
            k for k in catalog if ch(k, "dependent_access_fraction") > 0
        )
        atomic = next(
            k for k in catalog
            if ch(k, "atomic_ops_per_item") * ch(k, "atomic_contention") > 0
        )
        kernels = quiet[:3] + [dependent, atomic, quiet[3]]
        assert self.tiled_study(monkeypatch, tiles, kernels, 3) == [3, 3]

    def test_one_engine_call_per_study(self, monkeypatch, tiles):
        kernels = all_kernels("rodinia")
        force_tile_rows(monkeypatch, 4, self.SPACE)
        sim = GpuSimulator("interval-batch")
        for _ in range(2):
            tiles.clear()
            before = engine_calls("interval-batch")
            sim.simulate_study(kernels, self.SPACE)
            assert engine_calls("interval-batch") == before + 1
            assert len(tiles) == -(-len(kernels) // 4) > 1

    def test_paper_grid_tiles(self, tiles):
        """267 kernels x 891 points: 15 tiles of 17-18 kernels."""
        BatchIntervalModel().simulate_study(
            KernelPack.from_kernels(all_kernels()), PAPER_SPACE
        )
        assert len(tiles) == 15
        assert sum(tiles) == 267
        assert set(tiles) == {17, 18}


class TestUarchStateHoisting:
    """Derived cache/memory state is built once per uarch, not per call
    — the chunked-campaign fix: equal-but-distinct uarch instances
    (e.g. deserialised per chunk) must share one state entry."""

    def test_cache_model_built_once_across_study_calls(self, monkeypatch):
        constructions = []

        class CountingCacheModel(CacheModel):
            def __init__(self, uarch):
                constructions.append(uarch)
                super().__init__(uarch)

        monkeypatch.setattr(
            interval_batch, "CacheModel", CountingCacheModel
        )
        model = BatchIntervalModel()
        kernels = all_kernels("proxyapps")
        pack = KernelPack.from_kernels(kernels)
        space = reduced_space(4, 4, 4)
        for _ in range(3):
            model.simulate_study(pack, space)
            model.simulate_grid(kernels[0], space)
        assert len(constructions) == 1

    def test_equal_uarch_instances_share_state(self):
        space = reduced_space(4, 4, 4)
        rehydrated = ConfigurationSpace.from_dict(space.to_dict())
        assert rehydrated.uarch is not space.uarch
        assert rehydrated.uarch == space.uarch
        model = BatchIntervalModel()
        assert model._state(space.uarch) is model._state(rehydrated.uarch)

    def test_distinct_uarches_get_distinct_state(self):
        model = BatchIntervalModel()
        hawaii = model._state(PAPER_SPACE.uarch)
        apu = model._state(APU_SPACE.uarch)
        assert hawaii is not apu
