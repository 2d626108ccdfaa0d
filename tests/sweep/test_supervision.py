"""Worker supervision: timeouts, retries, degradation, pool fallback.

Every test injects a real failure (worker exception, process exit, or
hang) through the fault engine and asserts the parallel runner still
delivers the bit-exact serial dataset.
"""

import multiprocessing

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.suites import all_kernels
from repro.sweep import (
    FaultKind,
    FaultSpec,
    ParallelSweepRunner,
    SweepRunner,
    reduced_space,
)


@pytest.fixture(scope="module")
def kernels():
    return all_kernels("proxyapps")


@pytest.fixture(scope="module")
def space():
    return reduced_space(4, 4, 4)


@pytest.fixture(scope="module")
def clean_dataset(kernels, space):
    return SweepRunner().run(kernels, space)


class TestWorkerFailureSurfacing:
    def test_strict_worker_error_names_kernel(self, kernels, space):
        target = kernels[5].full_name
        runner = ParallelSweepRunner(
            workers=3, retry_backoff_s=0,
            faults=[FaultSpec(kind=FaultKind.RAISE, kernel_name=target,
                              scope="worker", message="worker boom")],
        )
        with pytest.raises(SimulationError) as excinfo:
            runner.run(kernels, space, strict=True)
        assert excinfo.value.kernel_name == target
        assert "worker boom" in str(excinfo.value)

    def test_non_strict_worker_error_quarantines(
        self, kernels, space, clean_dataset
    ):
        target = kernels[5].full_name
        runner = ParallelSweepRunner(
            workers=3, retry_backoff_s=0,
            faults=[FaultSpec(kind=FaultKind.RAISE, kernel_name=target,
                              scope="worker", message="worker boom")],
        )
        dataset = runner.run(kernels, space, strict=False)
        assert dataset.quarantined == {target: "worker boom"}
        healthy = dataset.healthy()
        np.testing.assert_array_equal(
            healthy.perf,
            clean_dataset.subset(healthy.kernel_names).perf,
        )


class TestCrashRecovery:
    def test_worker_crash_retries_then_degrades_to_serial(
        self, kernels, space, clean_dataset
    ):
        """A worker that always dies: retry on a fresh pool, then run
        the poisoned chunk in-process (where the fault is inert)."""
        runner = ParallelSweepRunner(
            workers=3, chunk_timeout_s=2.0, max_retries=1,
            retry_backoff_s=0,
            faults=[FaultSpec(kind=FaultKind.EXIT, scope="worker",
                              kernel_name=kernels[5].full_name)],
        )
        dataset = runner.run(kernels, space)
        np.testing.assert_array_equal(dataset.perf, clean_dataset.perf)
        stats = runner.last_stats
        assert stats.retries == 1
        assert stats.degraded_tiles == 1
        assert stats.timeouts == 2
        assert stats.worker_errors

    def test_transient_crash_recovers_on_retry(
        self, kernels, space, clean_dataset, tmp_path
    ):
        """A worker that dies once: the cross-process trip counter lets
        the retry succeed without serial degradation."""
        runner = ParallelSweepRunner(
            workers=3, chunk_timeout_s=2.0, max_retries=2,
            retry_backoff_s=0,
            faults=[FaultSpec(kind=FaultKind.EXIT, scope="worker",
                              kernel_name=kernels[5].full_name,
                              max_trips=1,
                              state_path=str(tmp_path / "trips"))],
        )
        dataset = runner.run(kernels, space)
        np.testing.assert_array_equal(dataset.perf, clean_dataset.perf)
        stats = runner.last_stats
        assert stats.retries == 1
        assert stats.degraded_tiles == 0

    def test_hung_worker_times_out_and_degrades(
        self, kernels, space, clean_dataset
    ):
        """The old runner blocked forever on a hung worker; now the
        chunk times out and completes serially."""
        runner = ParallelSweepRunner(
            workers=3, chunk_timeout_s=1.0, max_retries=0,
            retry_backoff_s=0,
            faults=[FaultSpec(kind=FaultKind.HANG, scope="worker",
                              kernel_name=kernels[5].full_name,
                              hang_s=30.0)],
        )
        dataset = runner.run(kernels, space)
        np.testing.assert_array_equal(dataset.perf, clean_dataset.perf)
        assert runner.last_stats.timeouts == 1
        assert runner.last_stats.degraded_tiles == 1


class TestPoolUnavailable:
    def test_falls_back_to_serial_when_pool_cannot_spawn(
        self, kernels, space, clean_dataset, monkeypatch
    ):
        def no_pool(*args, **kwargs):
            raise OSError("process spawning forbidden")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        runner = ParallelSweepRunner(workers=3)
        dataset = runner.run(kernels, space)
        np.testing.assert_array_equal(dataset.perf, clean_dataset.perf)
        assert runner.last_stats.pool_unavailable


class TestProgressAccounting:
    def test_degraded_chunks_counted_exactly_once(self, kernels, space):
        calls = []
        runner = ParallelSweepRunner(
            workers=3, chunk_timeout_s=1.0, max_retries=0,
            retry_backoff_s=0,
            faults=[FaultSpec(kind=FaultKind.HANG, scope="worker",
                              kernel_name=kernels[5].full_name,
                              hang_s=30.0)],
        )
        runner.run(
            kernels, space, progress=lambda d, t: calls.append((d, t))
        )
        done = [d for d, _ in calls]
        assert done == sorted(done)
        assert calls[-1] == (len(kernels), len(kernels))
        assert all(t == len(kernels) for _, t in calls)
        # Exactly one tick per chunk: the degraded chunk is not
        # double-counted by its failed pool attempt.
        assert len(done) == len(set(done))

    def test_retried_chunks_counted_exactly_once(
        self, kernels, space, tmp_path
    ):
        calls = []
        runner = ParallelSweepRunner(
            workers=3, chunk_timeout_s=2.0, max_retries=2,
            retry_backoff_s=0,
            faults=[FaultSpec(kind=FaultKind.EXIT, scope="worker",
                              kernel_name=kernels[5].full_name,
                              max_trips=1,
                              state_path=str(tmp_path / "trips"))],
        )
        runner.run(
            kernels, space, progress=lambda d, t: calls.append((d, t))
        )
        done = [d for d, _ in calls]
        assert done == sorted(done)
        assert calls[-1] == (len(kernels), len(kernels))
        assert len(done) == len(set(done))
