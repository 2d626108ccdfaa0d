"""Content-addressed sweep result cache.

The acceptance property: a cached re-run never invokes the engine.
``engine_call_count`` pins that — a hit must leave the counter at
zero — and the fingerprint must move with every simulated input
(kernel content, space, engine) while staying put across grid modes,
which are equivalence-tested elsewhere.
"""

import dataclasses

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.gpu.families import APU_SPACE
from repro.gpu.simulator import (
    engine_call_count,
    reset_engine_call_count,
)
from repro.suites import all_kernels
from repro.sweep import (
    SweepCache,
    SweepRunner,
    cached_paper_dataset,
    reduced_space,
    sweep_fingerprint,
)
from repro.sweep.cache import CACHE_DIR_ENV, default_cache_dir


@pytest.fixture
def kernels():
    return all_kernels("proxyapps")


@pytest.fixture
def space():
    return reduced_space(4, 4, 4)


@pytest.fixture
def dataset(kernels, space):
    return SweepRunner().run(kernels, space)


@pytest.fixture
def cache(tmp_path):
    return SweepCache(tmp_path / "cache")


class TestFingerprint:
    def test_deterministic(self, kernels, space):
        assert sweep_fingerprint(kernels, space) == sweep_fingerprint(
            kernels, space
        )

    def test_sensitive_to_kernel_content(self, kernels, space):
        base = sweep_fingerprint(kernels, space)
        edited = list(kernels)
        edited[0] = dataclasses.replace(
            edited[0],
            characteristics=dataclasses.replace(
                edited[0].characteristics,
                valu_ops_per_item=(
                    edited[0].characteristics.valu_ops_per_item + 1.0
                ),
            ),
        )
        assert sweep_fingerprint(edited, space) != base

    def test_sensitive_to_space_and_uarch(self, kernels, space):
        base = sweep_fingerprint(kernels, space)
        assert sweep_fingerprint(kernels, reduced_space(2, 2, 2)) != base
        assert sweep_fingerprint(kernels, APU_SPACE) != base

    def test_sensitive_to_engine(self, kernels, space):
        assert sweep_fingerprint(
            kernels, space, "interval"
        ) != sweep_fingerprint(kernels, space, "event")

    def test_kernel_order_matters(self, kernels, space):
        reordered = list(reversed(kernels))
        assert sweep_fingerprint(reordered, space) != sweep_fingerprint(
            kernels, space
        )


class TestCacheStoreLoad:
    def test_miss_then_hit_round_trip(self, cache, kernels, space, dataset):
        fp = sweep_fingerprint(kernels, space)
        assert cache.load(fp) is None
        assert cache.misses == 1
        cache.store(fp, dataset)
        loaded = cache.load(fp)
        assert loaded is not None
        assert cache.hits == 1
        np.testing.assert_array_equal(loaded.perf, dataset.perf)
        assert loaded.kernel_names == dataset.kernel_names

    def test_corrupt_entry_is_miss_and_removed(
        self, cache, kernels, space, dataset
    ):
        fp = sweep_fingerprint(kernels, space)
        cache.store(fp, dataset)
        cache.path_for(fp).write_bytes(b"not an npz archive")
        assert cache.load(fp) is None
        assert not cache.path_for(fp).exists()

    def test_invalidate_and_entries(self, cache, kernels, space, dataset):
        fp = sweep_fingerprint(kernels, space)
        assert cache.invalidate(fp) is False
        cache.store(fp, dataset)
        assert cache.entries() == [cache.path_for(fp)]
        assert cache.invalidate(fp) is True
        assert cache.entries() == []

    def test_clear_removes_everything(self, cache, kernels, space, dataset):
        cache.store(sweep_fingerprint(kernels, space), dataset)
        cache.store(
            sweep_fingerprint(kernels, reduced_space(2, 2, 2)),
            SweepRunner().run(kernels, reduced_space(2, 2, 2)),
        )
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_refuses_quarantined_dataset(self, cache, kernels, space):
        from repro.sweep.dataset import ScalingDataset

        clean = SweepRunner().run(kernels, space)
        perf = clean.perf.copy()
        perf[0] = np.nan
        quarantined = ScalingDataset(
            space, clean.kernel_records, perf,
            quarantined={kernels[0].full_name: "injected"},
        )
        with pytest.raises(DatasetError):
            cache.store(sweep_fingerprint(kernels, space), quarantined)

    def test_empty_cache_dir_is_fine(self, tmp_path):
        cache = SweepCache(tmp_path / "never_created")
        assert cache.entries() == []
        assert cache.clear() == 0


class TestCachedPaperDataset:
    def test_hit_skips_engine_entirely(self, cache, space, monkeypatch):
        kernels = all_kernels("proxyapps")
        monkeypatch.setattr(
            "repro.suites.all_kernels", lambda: kernels
        )
        first = cached_paper_dataset(space=space, cache=cache)
        assert cache.stores == 1
        reset_engine_call_count()
        second = cached_paper_dataset(space=space, cache=cache)
        assert engine_call_count() == 0, (
            "cached re-run must not invoke the engine"
        )
        np.testing.assert_array_equal(first.perf, second.perf)

    def test_grid_modes_share_entries(self, cache, space, monkeypatch):
        kernels = all_kernels("proxyapps")
        monkeypatch.setattr(
            "repro.suites.all_kernels", lambda: kernels
        )
        cached_paper_dataset(
            space=space, cache=cache, grid_mode="study"
        )
        reset_engine_call_count()
        batch = cached_paper_dataset(
            space=space, cache=cache, grid_mode="batch"
        )
        assert engine_call_count() == 0
        study = SweepRunner(grid_mode="study").run(kernels, space)
        np.testing.assert_array_equal(batch.perf, study.perf)


class TestSingleFlight:
    """Concurrent misses on one fingerprint compute exactly once."""

    def test_lock_records_are_refcounted_away(self):
        from repro.sweep.cache import SingleFlight

        flight = SingleFlight()
        flight.acquire("a")
        assert flight.active_keys() == ["a"]
        flight.acquire("b")
        assert flight.active_keys() == ["a", "b"]
        flight.release("a")
        flight.release("b")
        assert flight.active_keys() == []

    def test_distinct_keys_do_not_contend(self):
        from repro.sweep.cache import SingleFlight

        flight = SingleFlight()
        flight.acquire("a")
        # Holding "a" must not block "b" — acquire on a fresh key
        # succeeds immediately on the same thread.
        flight.acquire("b")
        flight.release("b")
        flight.release("a")

    def test_racing_misses_compute_once_and_agree(
        self, cache, kernels, space
    ):
        import threading

        fp = sweep_fingerprint(kernels, space)
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        compute_calls = []
        results = [None] * n_threads

        def compute():
            compute_calls.append(1)
            return SweepRunner().run(kernels, space)

        def racer(slot):
            barrier.wait()
            results[slot] = cache.load_or_compute(fp, compute)

        threads = [
            threading.Thread(target=racer, args=(slot,))
            for slot in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(compute_calls) == 1, (
            "single-flight must collapse concurrent misses"
        )
        assert cache.stores == 1
        reference = results[0]
        for result in results[1:]:
            np.testing.assert_array_equal(result.perf, reference.perf)
            assert result.kernel_names == reference.kernel_names
        # Every thread except the compute winner found the entry
        # exactly once — at its first look or at the double-check
        # inside the lock, which deliberately counts no second miss.
        assert cache.hits == n_threads - 1
        assert 1 <= cache.misses <= n_threads
        # Everything settled: no key left in flight.
        assert cache._single_flight.active_keys() == []

    def test_second_call_is_a_pure_hit(self, cache, kernels, space):
        fp = sweep_fingerprint(kernels, space)
        first = cache.load_or_compute(
            fp, lambda: SweepRunner().run(kernels, space)
        )

        def explode():
            raise AssertionError("hit must not recompute")

        second = cache.load_or_compute(fp, explode)
        np.testing.assert_array_equal(second.perf, first.perf)
        assert cache.stores == 1

    def test_quarantined_result_is_returned_but_never_stored(
        self, cache, kernels, space
    ):
        from repro.sweep.dataset import ScalingDataset

        fp = sweep_fingerprint(kernels, space)
        clean = SweepRunner().run(kernels, space)
        perf = clean.perf.copy()
        perf[0] = np.nan
        quarantined = ScalingDataset(
            space, clean.kernel_records, perf,
            quarantined={kernels[0].full_name: "injected"},
        )
        result = cache.load_or_compute(fp, lambda: quarantined)
        assert result.quarantined
        assert cache.stores == 0
        assert not cache.path_for(fp).exists()


class TestDefaultDirectory:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env_cache"))
        assert default_cache_dir() == tmp_path / "env_cache"
        assert SweepCache().cache_dir == tmp_path / "env_cache"

    def test_default_under_home(self, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert default_cache_dir().name == "gpuscale"
