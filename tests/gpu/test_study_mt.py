"""The multi-core study engine vs. the single-core study oracle.

``study-mt`` shards the 4-D study lattice along the kernel axis across
a process pool; its contract is the kernel-axis tiling invariant —
every per-kernel quantity in the batch model is elementwise over the
kernel row, so tiling must commute *bitwise* with whole-study
evaluation. This file pins that invariant at pool sizes 1, 2, and N
over every suite and both microarchitecture families, plus the
supervision behaviour around it: determinism across pool recreation,
serial fallback on mid-study worker death, per-pool-lifetime worker
state memoization, and the memoized pack cache the engines share.
"""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.kernels.kernel import Kernel
from repro.gpu import GpuSimulator
from repro.gpu.engine import INTERVAL_BATCH_DESCRIPTOR
from repro.gpu.families import APU_SPACE
from repro.gpu.interval_batch import BatchIntervalModel
import repro.gpu.study_mt as study_mt_module
from repro.gpu.study_mt import StudyMTModel
import repro.kernels.pack as pack_module
from repro.kernels.pack import (
    KernelPack,
    clear_pack_cache,
    memoized_pack,
)
from repro.suites import all_kernels, all_suites
from repro.sweep import (
    FaultKind,
    FaultSpec,
    FaultyEngine,
    PAPER_SPACE,
    SweepRunner,
    reduced_space,
)

RTOL = 1e-12


def oracle_study(kernels, space):
    """The single-core study result the tiled engine must reproduce."""
    return BatchIntervalModel().simulate_study(
        KernelPack.from_kernels(list(kernels)), space
    )


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


@pytest.fixture(scope="module")
def engine_pool():
    """Shared StudyMTModel instances so tests reuse persistent pools."""
    cache = {}

    def get(workers):
        if workers not in cache:
            cache[workers] = StudyMTModel(workers)
        return cache[workers]

    yield get
    for engine in cache.values():
        engine.close()


class TestBitExactVsBatch:
    """Tiled study output must equal interval-batch to the last bit."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_full_catalog_paper_space(self, engine_pool, workers):
        kernels = all_kernels()
        pack = KernelPack.from_kernels(kernels)
        actual = engine_pool(workers).simulate_study(pack, PAPER_SPACE)
        assert_study_bit_exact(actual, oracle_study(kernels, PAPER_SPACE))

    @pytest.mark.parametrize(
        "suite", [suite.name for suite in all_suites()]
    )
    def test_each_suite_paper_space(self, engine_pool, suite):
        kernels = all_kernels(suite)
        pack = KernelPack.from_kernels(kernels)
        actual = engine_pool(2).simulate_study(pack, PAPER_SPACE)
        assert_study_bit_exact(actual, oracle_study(kernels, PAPER_SPACE))

    @pytest.mark.parametrize(
        "space",
        [PAPER_SPACE, APU_SPACE],
        ids=["hawaii", "kaveri-apu"],
    )
    def test_both_uarch_families(self, engine_pool, space):
        kernels = all_kernels()
        pack = KernelPack.from_kernels(kernels)
        actual = engine_pool(2).simulate_study(pack, space)
        assert_study_bit_exact(actual, oracle_study(kernels, space))

    def test_vs_scalar_oracle(self, engine_pool):
        kernels = all_kernels()
        space = reduced_space(4, 4, 4)
        pack = KernelPack.from_kernels(kernels)
        study = engine_pool(2).simulate_study(pack, space)
        sim = GpuSimulator()
        for i, kernel in enumerate(kernels):
            scalar = sim.simulate_grid(
                kernel, space, mode="scalar"
            )
            np.testing.assert_allclose(
                study.time_s[i], scalar.time_s, rtol=RTOL
            )

    def test_single_kernel_study(self, engine_pool):
        kernels = all_kernels("proxyapps")[:1]
        pack = KernelPack.from_kernels(kernels)
        actual = engine_pool(4).simulate_study(pack, PAPER_SPACE)
        assert_study_bit_exact(actual, oracle_study(kernels, PAPER_SPACE))


class TestPoolSupervision:
    def test_pool_path_engaged(self, engine_pool):
        engine = engine_pool(2)
        pack = KernelPack.from_kernels(all_kernels())
        engine.simulate_study(pack, reduced_space(2, 2, 2))
        stats = engine.last_stats
        assert stats.pool_workers == 2
        assert stats.tiles == min(len(pack), 2 * 2)
        # Pool creation can legitimately fail in sandboxes; when it
        # does the engine must say so and fall back serially.
        if stats.used_pool:
            assert stats.degraded_tiles == 0
            assert not stats.worker_errors
        else:
            assert stats.pool_unavailable

    def test_workers_one_never_uses_pool(self, engine_pool):
        engine = engine_pool(1)
        pack = KernelPack.from_kernels(all_kernels("rodinia"))
        engine.simulate_study(pack, reduced_space(2, 2, 2))
        assert engine.last_stats.used_pool is False
        assert engine.last_stats.pool_unavailable is False

    def test_deterministic_across_pool_recreation(self):
        kernels = all_kernels()
        pack = KernelPack.from_kernels(kernels)
        space = reduced_space(2, 2, 2)
        engine = StudyMTModel(2)
        try:
            first = engine.simulate_study(pack, space)
            engine.close()
            second = engine.simulate_study(pack, space)
        finally:
            engine.close()
        assert_study_bit_exact(first, second)
        assert_study_bit_exact(second, oracle_study(kernels, space))

    def test_worker_death_falls_back_serially(self):
        """A tile whose worker dies mid-study degrades throughput,
        never the result: the failed and uncollected tiles rerun
        serially and the next study gets a fresh pool."""
        kernels = all_kernels()
        pack = KernelPack.from_kernels(kernels)
        space = reduced_space(2, 2, 2)
        engine = StudyMTModel(
            4, tile_timeout_s=10.0, _chaos_kill_tiles=(1,)
        )
        try:
            wounded = engine.simulate_study(pack, space)
            stats = engine.last_stats
            if stats.used_pool:
                assert stats.worker_errors
                assert stats.degraded_tiles > 0
            assert_study_bit_exact(wounded, oracle_study(kernels, space))
            healthy = engine.simulate_study(pack, space)
            if engine.last_stats.used_pool:
                assert engine.last_stats.degraded_tiles == 0
                assert not engine.last_stats.worker_errors
            assert_study_bit_exact(healthy, wounded)
        finally:
            engine.close()

    def test_worker_models_built_once_per_pool_lifetime(self, engine_pool):
        """Each worker process constructs exactly one BatchIntervalModel,
        however many tiles and studies it serves."""
        engine = engine_pool(2)
        pack = KernelPack.from_kernels(all_kernels())
        for _ in range(3):
            engine.simulate_study(pack, reduced_space(2, 2, 2))
            stats = engine.last_stats
            if not stats.used_pool:
                pytest.skip("process pools unavailable in this sandbox")
            assert stats.worker_models
            assert all(
                count == 1 for count in stats.worker_models.values()
            )


class TestEngineIdentity:
    def test_call_shape_flags(self):
        engine = StudyMTModel(1)
        assert engine.supports_study is True
        assert engine.supports_point is False
        assert engine.supports_grid is False

    def test_descriptor_shares_interval_fingerprint(self):
        descriptor = StudyMTModel(1).descriptor()
        assert descriptor.name == "study-mt"
        assert descriptor.family == "interval"
        assert descriptor.fidelity == "exact"
        assert descriptor.error_budget == 0.0
        # Bit-exact engines share cache entries: identical material.
        assert (
            descriptor.fingerprint_material()
            == INTERVAL_BATCH_DESCRIPTOR.fingerprint_material()
        )

    def test_facade_resolves_family_siblings(self):
        sim = GpuSimulator("study-mt")
        assert sim.supports_study
        assert sim.supports_grid
        assert sim.supports_point


class TestSweepRunnerStudyMT:
    def test_dataset_identical_to_default_study(self):
        kernels = all_kernels()
        space = reduced_space(2, 2, 2)
        default = SweepRunner(grid_mode="study").run(
            kernels, space
        )
        tiled = SweepRunner(
            "study-mt", grid_mode="study"
        ).run(kernels, space)
        np.testing.assert_array_equal(default.perf, tiled.perf)
        assert default.kernel_names == tiled.kernel_names
        assert tiled.quarantined == {}

    def test_fault_engine_keeps_quarantine_attribution(self):
        kernels = all_kernels("proxyapps")
        space = reduced_space(4, 4, 4)
        target = kernels[2].full_name
        faulty = FaultyEngine(
            GpuSimulator("study-mt"),
            [FaultSpec(kind=FaultKind.RAISE, kernel_name=target,
                       message="study-mt fallback boom")],
        )
        runner = SweepRunner(
            grid_mode="study", simulator=faulty
        )
        dataset = runner.run(kernels, space, strict=False)
        assert dataset.quarantined == {target: "study-mt fallback boom"}
        assert np.isnan(dataset.perf[2]).all()


class TestKernelPackSubset:
    def test_subset_rows_are_verbatim_copies(self):
        pack = KernelPack.from_kernels(all_kernels())
        lo, hi = 3, 9
        tile = pack.subset(lo, hi)
        assert len(tile) == hi - lo
        assert tile.names == pack.names[lo:hi]
        np.testing.assert_array_equal(
            tile.geometry["global_size"],
            pack.geometry["global_size"][lo:hi],
        )

    def test_subset_tiles_reassemble_to_full_pack_study(self):
        kernels = all_kernels("polybench")
        pack = KernelPack.from_kernels(kernels)
        space = reduced_space(2, 2, 2)
        model = BatchIntervalModel()
        whole = model.simulate_study(pack, space)
        mid = len(pack) // 2
        top = model.simulate_study(pack.subset(0, mid), space)
        bottom = model.simulate_study(pack.subset(mid, len(pack)), space)
        np.testing.assert_array_equal(
            whole.time_s, np.concatenate([top.time_s, bottom.time_s])
        )

    @pytest.mark.parametrize(
        "bounds", [(-1, 2), (2, 2), (3, 1), (0, 10_000)]
    )
    def test_invalid_bounds_rejected(self, bounds):
        pack = KernelPack.from_kernels(all_kernels("proxyapps"))
        with pytest.raises(WorkloadError):
            pack.subset(*bounds)


class TestMemoizedPack:
    def test_same_catalog_returns_same_pack(self):
        clear_pack_cache()
        kernels = all_kernels("rodinia")
        assert memoized_pack(kernels) is memoized_pack(list(kernels))

    def test_pack_built_once_across_repeated_studies(self, monkeypatch):
        clear_pack_cache()
        constructions = []
        original = KernelPack.from_kernels.__func__

        def counting(cls, kernels):
            constructions.append(len(kernels))
            return original(cls, kernels)

        monkeypatch.setattr(
            pack_module.KernelPack,
            "from_kernels",
            classmethod(counting),
        )
        kernels = all_kernels("parboil")
        space = reduced_space(2, 2, 2)
        sim = GpuSimulator()
        for _ in range(3):
            sim.simulate_study(kernels, space)
        assert constructions == [len(kernels)]
        clear_pack_cache()

    def test_identity_key_distinguishes_catalogs(self):
        clear_pack_cache()
        rodinia = all_kernels("rodinia")
        parboil = all_kernels("parboil")
        assert memoized_pack(rodinia) is not memoized_pack(parboil)
        assert_packs_equal(memoized_pack(rodinia), rodinia)
        assert_packs_equal(memoized_pack(parboil), parboil)
        assert_packs_equal(memoized_pack(rodinia[::-1]), rodinia[::-1])
        # Equal content in distinct objects: never a stale pack.
        copies = [Kernel.from_dict(k.to_dict()) for k in rodinia]
        assert copies == rodinia
        assert all(c is not k for c, k in zip(copies, rodinia))
        assert_packs_equal(memoized_pack(copies), rodinia)
        clear_pack_cache()


def assert_packs_equal(pack, kernels):
    """*pack* holds exactly what packing *kernels* afresh would."""
    fresh = KernelPack.from_kernels(kernels)
    assert pack.names == fresh.names
    assert pack.unpack() == list(kernels)
    for field in ("characteristics", "geometry", "resources"):
        mine, theirs = getattr(pack, field), getattr(fresh, field)
        assert mine.keys() == theirs.keys()
        for name in mine:
            np.testing.assert_array_equal(mine[name], theirs[name])


class TestClose:
    """Closing releases the study-mt pool; nothing else changes."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        # Size the default study-mt pool to two workers on any host.
        monkeypatch.setattr(
            study_mt_module.multiprocessing, "cpu_count", lambda: 3
        )

    def test_simulator_close_releases_pool(self):
        kernels = all_kernels("rodinia")
        space = reduced_space(2, 2, 2)
        sim = GpuSimulator("study-mt")
        engine = sim._study
        try:
            first = sim.simulate_study(kernels, space)
            if not engine.last_stats.used_pool:
                pytest.skip("process pools unavailable in this sandbox")
            sim.close()
            assert engine._executor._pool is None
            second = sim.simulate_study(kernels, space)
            assert engine.last_stats.used_pool
            assert engine._executor._pool is not None
        finally:
            sim.close()
        assert_study_bit_exact(second, first)
        assert_study_bit_exact(second, oracle_study(kernels, space))

    def test_runner_close_releases_pool(self):
        runner = SweepRunner("study-mt", grid_mode="study")
        engine = runner.simulator._study
        runner.run(all_kernels("rodinia"), reduced_space(2, 2, 2))
        runner.close()
        assert engine._executor._pool is None

    def test_closed_simulator_drops_without_resource_warning(self):
        import gc
        import warnings

        sim = GpuSimulator("study-mt")
        sim.simulate_study(all_kernels("rodinia"), reduced_space(2, 2, 2))
        sim.close()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del sim
            gc.collect()
        assert not [
            w for w in caught if issubclass(w.category, ResourceWarning)
        ]

    def test_close_without_pool_is_harmless(self):
        for engine in ("interval", "event", "study-mt"):
            sim = GpuSimulator(engine)
            sim.close()
            sim.close()
