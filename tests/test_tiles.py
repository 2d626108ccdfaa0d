"""The supervised tile executor shared by the multi-core paths."""

import multiprocessing

import numpy as np
import pytest

from repro.gpu.interval_batch import BatchIntervalModel
from repro.gpu.study_mt import StudyMTModel
from repro.kernels.pack import KernelPack
from repro.suites import all_kernels
from repro.sweep import (
    CampaignRunner,
    ParallelSweepRunner,
    SweepRunner,
    reduced_space,
)
from repro.tiles import tile_bounds
from tests.gpu.test_study_mt import assert_study_bit_exact


def _study_inside_pool_worker():
    """Run a two-worker study-mt study from inside a pool worker."""
    engine = StudyMTModel(2)
    try:
        pack = KernelPack.from_kernels(all_kernels("rodinia"))
        result = engine.simulate_study(pack, reduced_space(2, 2, 2))
        return result, engine.last_stats
    finally:
        engine.close()


class TestTileBounds:
    @pytest.mark.parametrize(
        "n, n_tiles", [(1, 4), (7, 3), (16, 8), (267, 8), (5, 1)]
    )
    def test_contiguous_near_equal_cover(self, n, n_tiles):
        bounds = tile_bounds(n, n_tiles)
        assert len(bounds) == min(n, n_tiles)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1


class TestNestedPool:
    def test_study_mt_inside_pool_worker_degrades_serially(self):
        """A daemonic worker cannot fork: study-mt must report the
        pool as unavailable and still return the exact study."""
        with multiprocessing.Pool(1) as pool:
            result, stats = pool.apply(_study_inside_pool_worker)
        assert stats.pool_unavailable
        assert not stats.used_pool
        expected = BatchIntervalModel().simulate_study(
            KernelPack.from_kernels(all_kernels("rodinia")),
            reduced_space(2, 2, 2),
        )
        assert_study_bit_exact(result, expected)


class TestPersistentPool:
    def test_campaign_chunks_share_one_pool(self, tmp_path, monkeypatch):
        created = []
        real_pool = multiprocessing.Pool

        def counting_pool(*args, **kwargs):
            pool = real_pool(*args, **kwargs)
            created.append(pool)
            return pool

        monkeypatch.setattr(multiprocessing, "Pool", counting_pool)
        kernels = all_kernels("rodinia")
        space = reduced_space(2, 2, 2)
        runner = ParallelSweepRunner(workers=2, chunk_timeout_s=120.0)
        try:
            dataset, report = CampaignRunner(
                tmp_path / "journal", runner=runner, chunk_size=8
            ).run(kernels, space)
        finally:
            runner.close()
        assert report.executed_chunks > 1
        assert len(created) == 1
        np.testing.assert_array_equal(
            dataset.perf, SweepRunner().run(kernels, space).perf
        )
