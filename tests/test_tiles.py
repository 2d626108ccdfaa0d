"""The supervised tile executor behind the multi-core sweep."""

import multiprocessing

import numpy as np
import pytest

from repro.suites import all_kernels
from repro.sweep import (
    CampaignRunner,
    ParallelSweepRunner,
    SweepRunner,
    reduced_space,
)
from repro.sweep.parallel import _TILES_PER_WORKER
from repro.tiles import tile_bounds


def _sweep_inside_pool_worker():
    """Run a two-worker parallel sweep from inside a pool worker."""
    runner = ParallelSweepRunner(workers=2)
    try:
        dataset = runner.run(all_kernels("rodinia"), reduced_space(2, 2, 2))
        return dataset.perf, runner.last_stats
    finally:
        runner.close()


class TestTileBounds:
    @pytest.mark.parametrize(
        "n, n_tiles",
        [(1, 4), (7, 3), (16, 8), (267, 8), (5, 1), (267, 15), (6, 6)]
    )
    def test_contiguous_near_equal_cover(self, n, n_tiles):
        bounds = tile_bounds(n, n_tiles)
        assert len(bounds) == min(n, n_tiles)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1


class TestNestedPool:
    def test_parallel_sweep_inside_pool_worker_degrades_serially(self):
        """A daemonic worker cannot fork: the executor must report the
        pool as unavailable and still return the exact dataset."""
        with multiprocessing.Pool(1) as pool:
            perf, stats = pool.apply(_sweep_inside_pool_worker)
        assert stats.pool_unavailable
        assert not stats.used_pool
        expected = SweepRunner().run(
            all_kernels("rodinia"), reduced_space(2, 2, 2)
        )
        np.testing.assert_array_equal(perf, expected.perf)


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


class TestPoolLifetime:
    """The parallel runner's pool: engaged for a sweep large enough to
    tile, released by ``close``, recreated lazily on the next run, and
    invisible in the dataset either way."""

    KERNELS = all_kernels("rodinia")
    SPACE = reduced_space(2, 2, 2)

    @pytest.fixture(scope="class")
    def serial_perf(self):
        return SweepRunner().run(self.KERNELS, self.SPACE).perf

    def test_pool_path_engaged(self, serial_perf):
        runner = ParallelSweepRunner(workers=2)
        try:
            dataset = runner.run(self.KERNELS, self.SPACE)
        finally:
            runner.close()
        stats = runner.last_stats
        assert stats.pool_workers == 2
        assert stats.tiles == min(len(self.KERNELS), 2 * _TILES_PER_WORKER)
        # Pool creation can legitimately fail in sandboxes; when it
        # does the runner must say so and fall back serially.
        if stats.used_pool:
            assert stats.degraded_tiles == 0
            assert not stats.worker_errors
        else:
            assert stats.pool_unavailable
        np.testing.assert_array_equal(dataset.perf, serial_perf)

    def test_workers_one_never_uses_pool(self, serial_perf):
        runner = ParallelSweepRunner(workers=1)
        dataset = runner.run(self.KERNELS, self.SPACE)
        assert runner.last_stats.used_pool is False
        assert runner.last_stats.pool_unavailable is False
        assert runner._executor._pool is None
        np.testing.assert_array_equal(dataset.perf, serial_perf)

    def test_close_releases_and_rerun_recreates_pool(self, serial_perf):
        runner = ParallelSweepRunner(workers=2)
        try:
            first = runner.run(self.KERNELS, self.SPACE)
            if not runner.last_stats.used_pool:
                pytest.skip("process pools unavailable in this sandbox")
            assert runner._executor._pool is not None
            runner.close()
            assert runner._executor._pool is None
            second = runner.run(self.KERNELS, self.SPACE)
            assert runner.last_stats.used_pool
            assert runner._executor._pool is not None
        finally:
            runner.close()
        np.testing.assert_array_equal(first.perf, serial_perf)
        np.testing.assert_array_equal(second.perf, serial_perf)

    def test_closed_runner_drops_without_resource_warning(self):
        import gc
        import warnings

        runner = ParallelSweepRunner(workers=2)
        runner.run(self.KERNELS, self.SPACE)
        runner.close()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del runner
            gc.collect()
        assert not [
            w for w in caught if issubclass(w.category, ResourceWarning)
        ]

    def test_close_without_pool_is_harmless(self):
        runner = ParallelSweepRunner(workers=2)
        runner.close()
        runner.close()
        assert runner._executor._pool is None

    def test_study_mode_matches_serial_study(self):
        kernels = all_kernels()
        serial = SweepRunner(grid_mode="study").run(kernels, self.SPACE)
        runner = ParallelSweepRunner(workers=2, grid_mode="study")
        try:
            parallel = runner.run(kernels, self.SPACE)
        finally:
            runner.close()
        np.testing.assert_array_equal(parallel.perf, serial.perf)
        assert parallel.kernel_names == serial.kernel_names
