"""Sweep-cache safety under concurrent readers and writers.

The query service's engine worker, parallel sweeps, and test
harnesses may all hit one cache directory at once. The contract: a
racing read returns either ``None`` (miss) or a *complete, valid*
dataset — never a torn file, never a propagated error — and
concurrent same-fingerprint stores never interleave their bytes
(per-call-unique temp names + ``os.replace``).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.suites import all_kernels
from repro.sweep import SweepCache, SweepRunner, reduced_space, sweep_fingerprint


@pytest.fixture(scope="module")
def kernels():
    return all_kernels("proxyapps")


@pytest.fixture(scope="module")
def space():
    return reduced_space(4, 4, 4)


@pytest.fixture(scope="module")
def dataset(kernels, space):
    return SweepRunner().run(kernels, space)


@pytest.fixture
def cache(tmp_path):
    return SweepCache(tmp_path / "cache")


def _run_threads(workers):
    """Run every worker concurrently; re-raise the first failure."""
    errors = []

    def guarded(fn):
        try:
            fn()
        except BaseException as exc:  # noqa: B036 - surface everything
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(fn,)) for fn in workers
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestHammer:
    def test_store_load_invalidate_hammer(
        self, cache, kernels, space, dataset
    ):
        """Racing store/load/invalidate never tears or errors."""
        fingerprint = sweep_fingerprint(kernels, space, "interval")
        rounds = 30
        loaded_ok = []
        # Loaders keep reading until every writer is done, so they
        # overlap the whole race even when a miss is much faster than
        # a store and the writers are slow to be scheduled.
        writers_left = [3]
        writers_lock = threading.Lock()

        def writer_done():
            with writers_lock:
                writers_left[0] -= 1

        def storer():
            try:
                for _ in range(rounds):
                    cache.store(fingerprint, dataset)
            finally:
                writer_done()

        def loader():
            attempts = 0
            while attempts < rounds * 2 or writers_left[0]:
                attempts += 1
                result = cache.load(fingerprint)
                if result is not None:
                    # Any successful read is a complete dataset,
                    # bit-identical to what some writer stored.
                    np.testing.assert_array_equal(
                        result.perf, dataset.perf
                    )
                    loaded_ok.append(True)

        def invalidator():
            try:
                for _ in range(rounds):
                    cache.invalidate(fingerprint)
            finally:
                writer_done()

        _run_threads([storer, storer, loader, loader, invalidator])
        # The final store either survived or was invalidated; a fresh
        # store must round-trip regardless of the hammering above.
        cache.store(fingerprint, dataset)
        final = cache.load(fingerprint)
        assert final is not None
        np.testing.assert_array_equal(final.perf, dataset.perf)
        assert loaded_ok, "hammer never observed a successful read"

    def test_corrupt_writes_racing_reads(
        self, cache, kernels, space, dataset
    ):
        """A vandal writing garbage entries only ever causes misses."""
        fingerprint = sweep_fingerprint(kernels, space, "interval")
        cache.cache_dir.mkdir(parents=True, exist_ok=True)
        path = cache.path_for(fingerprint)
        rounds = 30

        def vandal():
            for i in range(rounds):
                path.write_bytes(b"\x00garbage" * (i + 1))

        def storer():
            for _ in range(rounds):
                cache.store(fingerprint, dataset)

        def loader():
            for _ in range(rounds * 2):
                result = cache.load(fingerprint)
                if result is not None:
                    np.testing.assert_array_equal(
                        result.perf, dataset.perf
                    )

        _run_threads([vandal, storer, loader, loader])

    def test_concurrent_distinct_fingerprints(
        self, cache, kernels, space, dataset
    ):
        """Writers on distinct keys never cross-contaminate."""
        subsets = [
            dataset.subset(dataset.kernel_names[i::3]) for i in range(3)
        ]
        fingerprints = [
            sweep_fingerprint(
                [k for k in kernels if k.full_name in s.kernel_names],
                space,
                "interval",
            )
            for s in subsets
        ]
        assert len(set(fingerprints)) == 3

        def worker(index):
            def run():
                for _ in range(20):
                    cache.store(fingerprints[index], subsets[index])
                    result = cache.load(fingerprints[index])
                    if result is not None:
                        np.testing.assert_array_equal(
                            result.perf, subsets[index].perf
                        )
            return run

        _run_threads([worker(i) for i in range(3)])
        for index in range(3):
            final = cache.load(fingerprints[index])
            assert final is not None
            np.testing.assert_array_equal(
                final.perf, subsets[index].perf
            )

    def test_stat_counters_consistent_under_threads(
        self, cache, kernels, space, dataset
    ):
        """hits + misses equals total loads even under contention."""
        fingerprint = sweep_fingerprint(kernels, space, "interval")
        cache.store(fingerprint, dataset)
        loads_per_thread = 50
        n_threads = 4

        def loader():
            for _ in range(loads_per_thread):
                cache.load(fingerprint)

        _run_threads([loader] * n_threads)
        assert cache.hits + cache.misses == loads_per_thread * n_threads
        assert cache.stores == 1
