"""Parallel sweep runner: equivalence with the serial runner."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.gpu.families import APU_SPACE
from repro.suites import all_kernels
from repro.sweep import (
    FaultKind,
    FaultSpec,
    SweepRunner,
    reduced_space,
)
import repro.tiles as tiles_module
from repro.sweep.parallel import ParallelSweepRunner


class TestParallelRunner:
    def test_matches_serial_bit_exact(self):
        kernels = all_kernels("proxyapps")
        space = reduced_space(4, 4, 4)
        serial = SweepRunner().run(kernels, space)
        parallel = ParallelSweepRunner(workers=3).run(kernels, space)
        np.testing.assert_array_equal(serial.perf, parallel.perf)
        assert serial.kernel_names == parallel.kernel_names

    def test_nondefault_uarch_matches_serial(self):
        """Alternative hardware families cross the process boundary:
        the uarch round-trips through the worker payloads instead of
        silently falling back to a serial sweep of the wrong device."""
        kernels = all_kernels("proxyapps")
        assert APU_SPACE.uarch is not reduced_space(4, 4, 4).uarch
        serial = SweepRunner().run(kernels, APU_SPACE)
        parallel = ParallelSweepRunner(workers=3).run(kernels, APU_SPACE)
        np.testing.assert_array_equal(serial.perf, parallel.perf)

    def test_progress_callback_monotone_and_complete(self):
        kernels = all_kernels("proxyapps")
        space = reduced_space(4, 4, 4)
        calls = []
        ParallelSweepRunner(workers=3).run(
            kernels, space, progress=lambda d, t: calls.append((d, t))
        )
        assert calls, "progress callback never fired"
        assert calls[-1] == (len(kernels), len(kernels))
        done = [d for d, _ in calls]
        assert done == sorted(done)
        assert all(t == len(kernels) for _, t in calls)

    def test_progress_callback_on_serial_fallback(self):
        kernels = all_kernels("proxyapps")[:2]
        space = reduced_space(4, 4, 4)
        calls = []
        ParallelSweepRunner(workers=8).run(
            kernels, space, progress=lambda d, t: calls.append((d, t))
        )
        assert calls == [(1, 2), (2, 2)]

    def test_single_worker_falls_back_to_serial(self):
        kernels = all_kernels("proxyapps")[:4]
        space = reduced_space(4, 4, 4)
        dataset = ParallelSweepRunner(workers=1).run(kernels, space)
        assert dataset.num_kernels == 4

    def test_small_kernel_list_avoids_pool_overhead(self):
        kernels = all_kernels("proxyapps")[:2]
        space = reduced_space(4, 4, 4)
        dataset = ParallelSweepRunner(workers=8).run(kernels, space)
        assert dataset.num_kernels == 2

    def test_empty_list_rejected(self):
        with pytest.raises(DatasetError):
            ParallelSweepRunner().run([], reduced_space(4, 4, 4))

    def test_worker_count_defaults_positive(self):
        assert ParallelSweepRunner().workers >= 1


class TestSharedMemoryTransfer:
    """Zero-copy result rows: same dataset whether the rows travel
    through the shared segment, the pickle fallback, or a degraded
    serial chunk — and quarantine metadata is unaffected."""

    @pytest.fixture(scope="class")
    def kernels(self):
        return all_kernels("proxyapps")

    @pytest.fixture(scope="class")
    def space(self):
        return reduced_space(4, 4, 4)

    @pytest.fixture(scope="class")
    def clean_dataset(self, kernels, space):
        return SweepRunner().run(kernels, space)

    def test_segment_created_and_released(
        self, kernels, space, monkeypatch
    ):
        runner = ParallelSweepRunner(workers=3)
        created = []
        original = tiles_module.create_segment

        def tracking(result_shape):
            shm = original(result_shape)
            created.append(shm)
            return shm

        monkeypatch.setattr(tiles_module, "create_segment", tracking)
        runner.run(kernels, space)
        assert len(created) == 1 and created[0] is not None
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=created[0].name)

    def test_pickle_fallback_when_segment_unavailable(
        self, kernels, space, clean_dataset, monkeypatch
    ):
        monkeypatch.setattr(
            tiles_module,
            "create_segment",
            lambda result_shape: None,
        )
        dataset = ParallelSweepRunner(workers=3).run(kernels, space)
        np.testing.assert_array_equal(dataset.perf, clean_dataset.perf)

    def test_pickle_fallback_when_worker_attach_fails(
        self, kernels, space, clean_dataset, monkeypatch
    ):
        # Patched before the (forked) pool is created, so workers
        # inherit the broken writer and must fall back to pickling.
        monkeypatch.setattr(
            tiles_module,
            "_write_rows",
            lambda shm_info, perf: False,
        )
        dataset = ParallelSweepRunner(workers=3).run(kernels, space)
        np.testing.assert_array_equal(dataset.perf, clean_dataset.perf)

    def test_quarantine_metadata_crosses_shared_path(
        self, kernels, space, clean_dataset
    ):
        """PR 2 semantics through the shared segment: the quarantined
        kernel still yields a NaN row plus its recorded cause."""
        target = kernels[2].full_name
        runner = ParallelSweepRunner(
            workers=3, retry_backoff_s=0,
            faults=[FaultSpec(kind=FaultKind.RAISE, kernel_name=target,
                              scope="worker", message="shm boom")],
        )
        dataset = runner.run(kernels, space, strict=False)
        assert dataset.quarantined == {target: "shm boom"}
        row = dataset.kernel_names.index(target)
        assert np.isnan(dataset.perf[row]).all()
        healthy = dataset.healthy()
        np.testing.assert_array_equal(
            healthy.perf,
            clean_dataset.subset(healthy.kernel_names).perf,
        )

    def test_degraded_chunk_rows_written_by_parent(
        self, kernels, space, clean_dataset
    ):
        """A chunk that exhausts retries is recomputed serially in the
        parent; its rows must land in the result regardless of the
        shared segment the workers were using."""
        runner = ParallelSweepRunner(
            workers=3, chunk_timeout_s=2.0, max_retries=0,
            retry_backoff_s=0,
            faults=[FaultSpec(kind=FaultKind.EXIT, scope="worker",
                              kernel_name=kernels[2].full_name)],
        )
        dataset = runner.run(kernels, space)
        np.testing.assert_array_equal(dataset.perf, clean_dataset.perf)
        assert runner.last_stats.degraded_tiles == 1
