"""The micro-batcher: bit-exactness, coalescing, isolation, backpressure.

The tentpole invariant pinned here: whatever mix of point and grid
queries N concurrent clients submit, every response is **bitwise
identical** to a direct ``GpuSimulator.simulate`` /
``simulate_grid`` call for that query — batching is invisible except
in the metrics. The property test drives that with Hypothesis-chosen
query mixes; the fault tests pin the other half of the contract: one
query's failure never leaks into a batch peer's answer.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, SimulationError
from repro.gpu import W9100_LIKE, HardwareConfig
from repro.gpu.simulator import GpuSimulator
from repro.service import batcher as batcher_module
from repro.service.batcher import (
    DEFAULT_MAX_WAIT_MS,
    GridQuery,
    GridResult,
    MicroBatcher,
    OverloadError,
    PointQuery,
    PointResult,
    ServiceClosedError,
    ServiceTimeoutError,
)

#: Hardware points the tests cross kernels with.
CONFIGS = (
    W9100_LIKE,
    HardwareConfig(cu_count=8, engine_mhz=600.0, memory_mhz=475.0),
    HardwareConfig(cu_count=24, engine_mhz=925.0, memory_mhz=950.0),
)


def run(coro):
    return asyncio.run(coro)


async def make_batcher(simulator, **kwargs):
    batcher = MicroBatcher(simulator, **kwargs)
    await batcher.start()
    return batcher


class CountingSimulator:
    """Delegating wrapper that counts calls per shape."""

    def __init__(self, inner):
        self._inner = inner
        self.point_calls = 0
        self.grid_calls = 0
        self.study_calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def simulate(self, kernel, config):
        self.point_calls += 1
        return self._inner.simulate(kernel, config)

    def simulate_grid(self, kernel, space):
        self.grid_calls += 1
        return self._inner.simulate_grid(kernel, space)

    def simulate_study(self, kernels, space):
        self.study_calls += 1
        return self._inner.simulate_study(kernels, space)


class GatedSimulator:
    """Point engine whose evaluations block until the gate opens."""

    supports_point = True
    supports_grid = False
    supports_study = False

    def __init__(self, inner):
        self._inner = inner
        self.gate = threading.Event()

    def simulate(self, kernel, config):
        assert self.gate.wait(timeout=30), "test gate never opened"
        return self._inner.simulate(kernel, config)


class GatedPointSimulator(CountingSimulator):
    """Counting wrapper whose point evaluations block until the gate
    opens; grid and study calls pass straight through."""

    def __init__(self, inner):
        super().__init__(inner)
        self.gate = threading.Event()
        self.entered = threading.Event()

    def simulate(self, kernel, config):
        self.entered.set()
        assert self.gate.wait(timeout=30), "test gate never opened"
        return super().simulate(kernel, config)


class PoisonedPointSimulator:
    """Fails point queries for one kernel; everything else delegates."""

    def __init__(self, inner, poisoned_name):
        self._inner = inner
        self._poisoned = poisoned_name

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def simulate(self, kernel, config):
        if kernel.full_name == self._poisoned:
            raise SimulationError(kernel.full_name, "injected fault")
        return self._inner.simulate(kernel, config)


class BrokenStudySimulator:
    """Advertises study support but every study call fails."""

    supports_point = True
    supports_grid = True
    supports_study = True

    def __init__(self, inner):
        self._inner = inner
        self.study_attempts = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def simulate_grid(self, kernel, space):
        return self._inner.simulate_grid(kernel, space)

    def simulate_study(self, kernels, space):
        self.study_attempts += 1
        raise SimulationError("<pack>", "study engine wedged")


class TestLifecycle:
    def test_constructor_validation(self):
        simulator = GpuSimulator("interval")
        with pytest.raises(ValueError):
            MicroBatcher(simulator, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(simulator, max_wait_ms=-1)
        with pytest.raises(ValueError):
            MicroBatcher(simulator, queue_limit=0)

    def test_submit_before_start_is_closed(self, archetype_kernels):
        async def scenario():
            batcher = MicroBatcher(GpuSimulator("interval"))
            assert not batcher.running
            with pytest.raises(ServiceClosedError):
                await batcher.submit(
                    PointQuery(archetype_kernels[0], W9100_LIKE)
                )

        run(scenario())

    def test_double_start_rejected(self):
        async def scenario():
            batcher = await make_batcher(GpuSimulator("interval"))
            try:
                with pytest.raises(RuntimeError):
                    await batcher.start()
            finally:
                await batcher.stop()

        run(scenario())

    def test_stop_is_idempotent_and_closes(self, archetype_kernels):
        async def scenario():
            batcher = await make_batcher(GpuSimulator("interval"))
            assert batcher.running
            await batcher.stop()
            await batcher.stop()
            assert not batcher.running
            with pytest.raises(ServiceClosedError):
                await batcher.submit(
                    PointQuery(archetype_kernels[0], W9100_LIKE)
                )

        run(scenario())

    def test_non_query_rejected(self):
        async def scenario():
            batcher = await make_batcher(GpuSimulator("interval"))
            try:
                with pytest.raises(TypeError):
                    await batcher.submit("simulate please")
            finally:
                await batcher.stop()

        run(scenario())


class TestWorkConservingPolicy:
    """The collector dispatches as soon as the engine is idle; batches
    grow only from queries that queue while the engine is busy (or,
    with a positive ``max_wait_ms``, during an explicit linger)."""

    @pytest.mark.parametrize(
        "max_wait_ms, timers", [(DEFAULT_MAX_WAIT_MS, 0), (5.0, 1)]
    )
    def test_lone_query_arms_a_timer_only_when_lingering(
        self, archetype_kernels, monkeypatch, max_wait_ms, timers
    ):
        armed = []
        real_wait_for = asyncio.wait_for

        def spy(awaitable, timeout):
            if getattr(awaitable, "__qualname__", "") == "Queue.get":
                armed.append(timeout)
            return real_wait_for(awaitable, timeout)

        monkeypatch.setattr(batcher_module.asyncio, "wait_for", spy)
        query = PointQuery(archetype_kernels[0], W9100_LIKE)

        async def scenario():
            batcher = await make_batcher(
                GpuSimulator("interval"), max_wait_ms=max_wait_ms
            )
            try:
                result = await batcher.submit(query)
                return result, batcher.batches_dispatched
            finally:
                await batcher.stop()

        result, batches = run(scenario())
        assert DEFAULT_MAX_WAIT_MS == 0.0
        assert len(armed) == timers
        assert batches == 1
        expected = GpuSimulator("interval").simulate(
            query.kernel, query.config
        )
        assert result.items_per_second == float(
            expected.items_per_second
        )

    def test_arrivals_during_a_batch_form_the_next_batch(
        self, archetype_kernels, small_space
    ):
        engine = GatedPointSimulator(GpuSimulator("interval"))
        grids = [GridQuery(k, small_space) for k in archetype_kernels[:5]]

        async def scenario():
            batcher = await make_batcher(engine)
            try:
                blocker = asyncio.ensure_future(
                    batcher.submit(
                        PointQuery(archetype_kernels[0], W9100_LIKE)
                    )
                )
                # Batch 1 holds the engine thread at the gate...
                while not engine.entered.is_set():
                    await asyncio.sleep(0.001)
                # ...while every grid query queues behind it.
                waiting = [
                    asyncio.ensure_future(batcher.submit(q))
                    for q in grids
                ]
                while batcher.pending < len(grids):
                    await asyncio.sleep(0)
                engine.gate.set()
                await blocker
                results = await asyncio.gather(*waiting)
                return results, batcher.batches_dispatched
            finally:
                await batcher.stop()

        results, batches = run(scenario())
        assert batches == 2
        assert engine.point_calls == 1
        assert engine.study_calls == 1
        assert engine.grid_calls == 0
        direct = GpuSimulator("interval")
        for query, result in zip(grids, results):
            expected = direct.simulate_grid(query.kernel, small_space)
            np.testing.assert_array_equal(
                result.items_per_second, expected.items_per_second
            )

    def test_whatif_points_share_one_batch_by_default(self):
        from repro.service.loadgen import fetch
        from repro.service.server import GpuScaleService, ServiceConfig

        async def scenario():
            service = GpuScaleService(
                ServiceConfig(port=0, use_cache=False)
            )
            await service.start()
            try:
                status, _ = await fetch(
                    service.config.host, service.port, "POST",
                    "/v1/whatif", {"kernel": "rodinia/bfs.kernel1"},
                )
            finally:
                await service.shutdown(drain=True)
            return status, service.metrics

        status, metrics = run(scenario())
        assert status == 200
        # Baseline plus six scenarios, submitted together: one batch.
        assert metrics.batch_size.sum == 7
        assert metrics.batch_size.count == 1


class TestBitExactness:
    def test_concurrent_points_match_direct_bitwise(
        self, archetype_kernels
    ):
        direct = GpuSimulator("interval")
        queries = [
            PointQuery(kernel, config)
            for kernel in archetype_kernels[:4]
            for config in CONFIGS
        ]

        async def scenario():
            batcher = await make_batcher(GpuSimulator("interval"))
            try:
                return await asyncio.gather(
                    *(batcher.submit(q) for q in queries)
                )
            finally:
                await batcher.stop()

        results = run(scenario())
        for query, result in zip(queries, results):
            expected = direct.simulate(query.kernel, query.config)
            assert isinstance(result, PointResult)
            assert result.kernel_name == query.kernel.full_name
            assert result.time_s == float(expected.time_s)
            assert result.items_per_second == float(
                expected.items_per_second
            )

    def test_coalesced_grids_match_direct_bitwise(
        self, archetype_kernels, small_space
    ):
        direct = GpuSimulator("interval")
        counting = CountingSimulator(GpuSimulator("interval"))
        queries = [
            GridQuery(kernel, small_space)
            for kernel in archetype_kernels[:5]
        ]

        async def scenario():
            batcher = await make_batcher(
                counting, max_wait_ms=50.0, max_batch=16
            )
            try:
                return await asyncio.gather(
                    *(batcher.submit(q) for q in queries)
                ), batcher.batches_dispatched
            finally:
                await batcher.stop()

        results, batches = run(scenario())
        # Coalescing happened: one batch, one study call, zero
        # per-kernel grid calls.
        assert batches == 1
        assert counting.study_calls == 1
        assert counting.grid_calls == 0
        for query, result in zip(queries, results):
            expected = direct.simulate_grid(query.kernel, small_space)
            assert isinstance(result, GridResult)
            np.testing.assert_array_equal(
                result.items_per_second, expected.items_per_second
            )
            np.testing.assert_array_equal(
                result.time_s,
                query.kernel.geometry.global_size
                / result.items_per_second,
            )
            assert not result.from_cache

    def test_duplicate_queries_share_one_evaluation(
        self, archetype_kernels, small_space
    ):
        counting = CountingSimulator(GpuSimulator("interval"))
        query = GridQuery(archetype_kernels[0], small_space)

        async def scenario():
            batcher = await make_batcher(
                counting, max_wait_ms=50.0, max_batch=16
            )
            try:
                return await asyncio.gather(
                    *(batcher.submit(query) for _ in range(8))
                )
            finally:
                await batcher.stop()

        results = run(scenario())
        assert counting.grid_calls + counting.study_calls == 1
        reference = results[0].items_per_second
        for result in results[1:]:
            np.testing.assert_array_equal(
                result.items_per_second, reference
            )

    @given(
        plan=st.lists(
            st.tuples(
                st.booleans(),  # grid query?
                st.integers(min_value=0, max_value=5),  # kernel index
                st.integers(min_value=0, max_value=2),  # config index
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_property_mixed_concurrent_clients_bit_exact(
        self, plan, archetype_kernels, small_space
    ):
        """N concurrent clients, any point/grid mix: every answer is
        bitwise the direct engine's, duplicates included."""
        direct = GpuSimulator("interval")
        queries = [
            GridQuery(archetype_kernels[k], small_space)
            if is_grid
            else PointQuery(archetype_kernels[k], CONFIGS[c])
            for is_grid, k, c in plan
        ]

        async def scenario():
            batcher = await make_batcher(
                GpuSimulator("interval"),
                max_wait_ms=20.0,
                max_batch=len(queries),
            )
            try:
                return await asyncio.gather(
                    *(batcher.submit(q) for q in queries)
                )
            finally:
                await batcher.stop()

        results = run(scenario())
        for query, result in zip(queries, results):
            if isinstance(query, GridQuery):
                expected = direct.simulate_grid(
                    query.kernel, query.space
                )
                np.testing.assert_array_equal(
                    result.items_per_second,
                    expected.items_per_second,
                )
            else:
                expected = direct.simulate(query.kernel, query.config)
                assert result.time_s == float(expected.time_s)
                assert result.items_per_second == float(
                    expected.items_per_second
                )

    def test_cache_round_trip_is_bit_exact(
        self, tmp_path, archetype_kernels, small_space
    ):
        from repro.sweep.cache import SweepCache

        counting = CountingSimulator(GpuSimulator("interval"))
        cache = SweepCache(tmp_path / "cache")
        query = GridQuery(archetype_kernels[0], small_space)

        async def scenario():
            batcher = await make_batcher(counting, cache=cache)
            try:
                first = await batcher.submit(query)
                second = await batcher.submit(query)
                return first, second
            finally:
                await batcher.stop()

        first, second = run(scenario())
        assert not first.from_cache
        assert second.from_cache
        # The second answer never touched the engine...
        assert counting.grid_calls + counting.study_calls == 1
        assert cache.hits == 1 and cache.stores == 1
        # ...and is still bitwise identical, time tensor included.
        np.testing.assert_array_equal(
            second.items_per_second, first.items_per_second
        )
        np.testing.assert_array_equal(second.time_s, first.time_s)


class TestFaultIsolation:
    def test_grid_fault_does_not_poison_batch_peers(
        self, archetype_kernels, small_space
    ):
        from repro.sweep.faults import FaultKind, FaultSpec, FaultyEngine

        poisoned = archetype_kernels[0]
        healthy = archetype_kernels[1:4]
        direct = GpuSimulator("interval")
        engine = FaultyEngine(
            GpuSimulator("interval"),
            [FaultSpec(
                kind=FaultKind.RAISE, kernel_name=poisoned.full_name,
            )],
        )
        queries = [GridQuery(k, small_space) for k in [poisoned] + healthy]

        async def scenario():
            batcher = await make_batcher(
                engine, max_wait_ms=50.0, max_batch=16
            )
            try:
                return await asyncio.gather(
                    *(batcher.submit(q) for q in queries),
                    return_exceptions=True,
                )
            finally:
                await batcher.stop()

        results = run(scenario())
        assert isinstance(results[0], SimulationError)
        assert poisoned.full_name in str(results[0])
        for kernel, result in zip(healthy, results[1:]):
            expected = direct.simulate_grid(kernel, small_space)
            np.testing.assert_array_equal(
                result.items_per_second, expected.items_per_second
            )

    def test_point_fault_does_not_poison_batch_peers(
        self, archetype_kernels
    ):
        poisoned = archetype_kernels[0]
        healthy = archetype_kernels[1:4]
        direct = GpuSimulator("interval")
        engine = PoisonedPointSimulator(
            GpuSimulator("interval"), poisoned.full_name
        )
        queries = [
            PointQuery(k, W9100_LIKE) for k in [poisoned] + healthy
        ]

        async def scenario():
            batcher = await make_batcher(
                engine, max_wait_ms=50.0, max_batch=16
            )
            try:
                return await asyncio.gather(
                    *(batcher.submit(q) for q in queries),
                    return_exceptions=True,
                )
            finally:
                await batcher.stop()

        results = run(scenario())
        assert isinstance(results[0], SimulationError)
        for kernel, result in zip(healthy, results[1:]):
            expected = direct.simulate(kernel, W9100_LIKE)
            assert result.time_s == float(expected.time_s)

    def test_study_failure_degrades_to_per_kernel_grids(
        self, archetype_kernels, small_space
    ):
        direct = GpuSimulator("interval")
        engine = BrokenStudySimulator(GpuSimulator("interval"))
        kernels = archetype_kernels[:3]
        queries = [GridQuery(k, small_space) for k in kernels]

        async def scenario():
            batcher = await make_batcher(
                engine, max_wait_ms=50.0, max_batch=16
            )
            try:
                return await asyncio.gather(
                    *(batcher.submit(q) for q in queries)
                )
            finally:
                await batcher.stop()

        results = run(scenario())
        assert engine.study_attempts == 1  # coalescing was tried
        for kernel, result in zip(kernels, results):
            expected = direct.simulate_grid(kernel, small_space)
            np.testing.assert_array_equal(
                result.items_per_second, expected.items_per_second
            )

    def test_fault_errors_do_not_leak_between_batches(
        self, archetype_kernels
    ):
        """A failure in one batch leaves the batcher fully serviceable."""
        poisoned = archetype_kernels[0]
        engine = PoisonedPointSimulator(
            GpuSimulator("interval"), poisoned.full_name
        )

        async def scenario():
            batcher = await make_batcher(engine)
            try:
                with pytest.raises(SimulationError):
                    await batcher.submit(
                        PointQuery(poisoned, W9100_LIKE)
                    )
                return await batcher.submit(
                    PointQuery(archetype_kernels[1], W9100_LIKE)
                )
            finally:
                await batcher.stop()

        result = run(scenario())
        assert result.items_per_second > 0


class TestBackpressure:
    def test_full_admission_queue_overloads(self, archetype_kernels):
        engine = GatedSimulator(GpuSimulator("interval"))
        kernels = archetype_kernels

        async def scenario():
            batcher = await make_batcher(
                engine, max_batch=1, max_wait_ms=0.0, queue_limit=2
            )
            # The gated engine wedges the worker, so admitted queries
            # pile up: one in the in-flight batch, queue_limit in the
            # admission queue. Keep submitting until one is shed —
            # which exact submission trips the limit depends on how
            # far the collector got, but the limit itself is hard.
            admitted = []
            shed = None
            for attempt in range(10):
                task = asyncio.ensure_future(
                    batcher.submit(
                        PointQuery(
                            kernels[attempt % len(kernels)], W9100_LIKE
                        )
                    )
                )
                await asyncio.sleep(0.02)
                if task.done() and isinstance(
                    task.exception(), OverloadError
                ):
                    shed = task.exception()
                    break
                admitted.append(task)
            assert isinstance(shed, OverloadError)
            # Bounded admission: in-flight batch + queue, nothing more.
            assert len(admitted) <= 2 + batcher._queue_limit
            engine.gate.set()
            results = await asyncio.gather(*admitted)
            await batcher.stop()
            return results

        results = run(scenario())
        assert results
        assert all(r.items_per_second > 0 for r in results)

    def test_per_request_timeout(self, archetype_kernels):
        engine = GatedSimulator(GpuSimulator("interval"))

        async def scenario():
            batcher = await make_batcher(engine, max_batch=1)
            try:
                with pytest.raises(ServiceTimeoutError):
                    await batcher.submit(
                        PointQuery(archetype_kernels[0], W9100_LIKE),
                        timeout=0.05,
                    )
            finally:
                engine.gate.set()
                await batcher.stop()

        run(scenario())

    def test_drain_answers_everything_admitted(self, archetype_kernels):
        counting = CountingSimulator(GpuSimulator("interval"))
        queries = [
            PointQuery(k, W9100_LIKE) for k in archetype_kernels[:6]
        ]

        async def scenario():
            batcher = await make_batcher(counting, max_wait_ms=50.0)
            tasks = [
                asyncio.ensure_future(batcher.submit(q))
                for q in queries
            ]
            await asyncio.sleep(0)  # queries admitted, none answered
            await batcher.stop(drain=True)
            results = await asyncio.gather(*tasks)
            with pytest.raises(ServiceClosedError):
                await batcher.submit(queries[0])
            return results

        results = run(scenario())
        assert len(results) == len(queries)
        assert all(r.items_per_second > 0 for r in results)

    def test_stop_without_drain_fails_queued_queries(
        self, archetype_kernels
    ):
        engine = GatedSimulator(GpuSimulator("interval"))

        async def scenario():
            batcher = await make_batcher(
                engine, max_batch=1, max_wait_ms=0.0, queue_limit=8
            )
            inflight = asyncio.ensure_future(
                batcher.submit(
                    PointQuery(archetype_kernels[0], W9100_LIKE)
                )
            )
            queued = [
                asyncio.ensure_future(
                    batcher.submit(
                        PointQuery(archetype_kernels[i], W9100_LIKE)
                    )
                )
                for i in (1, 2)
            ]
            await asyncio.sleep(0.1)
            stopping = asyncio.ensure_future(batcher.stop(drain=False))
            await asyncio.sleep(0.05)
            for task in queued:
                with pytest.raises(ServiceClosedError):
                    await task
            engine.gate.set()
            await stopping
            # The already-dispatched query still completes normally.
            result = await inflight
            return result

        result = run(scenario())
        assert result.items_per_second > 0


class TestDeadlines:
    """Absolute-deadline propagation through the batcher."""

    def test_expired_deadline_refused_at_admission(
        self, archetype_kernels
    ):
        from repro.service.batcher import DeadlineExceededError

        async def scenario():
            batcher = await make_batcher(GpuSimulator("interval"))
            try:
                loop = asyncio.get_running_loop()
                with pytest.raises(DeadlineExceededError):
                    await batcher.submit(
                        PointQuery(archetype_kernels[0], W9100_LIKE),
                        deadline=loop.time() - 0.001,
                    )
            finally:
                await batcher.stop(drain=False)

        run(scenario())

    def test_deadline_beats_timeout_when_earlier(
        self, archetype_kernels
    ):
        from repro.service.batcher import DeadlineExceededError

        engine = GatedSimulator(GpuSimulator("interval"))

        async def scenario():
            batcher = await make_batcher(
                engine, max_batch=1, max_wait_ms=0.0
            )
            try:
                loop = asyncio.get_running_loop()
                with pytest.raises(DeadlineExceededError):
                    await batcher.submit(
                        PointQuery(archetype_kernels[0], W9100_LIKE),
                        timeout=30.0,
                        deadline=loop.time() + 0.05,
                    )
            finally:
                engine.gate.set()
                await batcher.stop(drain=False)

        run(scenario())

    def test_plain_timeout_still_raises_timeout_error(
        self, archetype_kernels
    ):
        from repro.service.batcher import DeadlineExceededError

        engine = GatedSimulator(GpuSimulator("interval"))

        async def scenario():
            batcher = await make_batcher(
                engine, max_batch=1, max_wait_ms=0.0
            )
            try:
                with pytest.raises(ServiceTimeoutError) as excinfo:
                    await batcher.submit(
                        PointQuery(archetype_kernels[0], W9100_LIKE),
                        timeout=0.05,
                    )
                assert not isinstance(
                    excinfo.value, DeadlineExceededError
                )
            finally:
                engine.gate.set()
                await batcher.stop(drain=False)

        run(scenario())

    def test_expired_entries_are_cancelled_not_computed(
        self, archetype_kernels
    ):
        """A query whose deadline passes while it waits behind a slow
        batch is dropped before evaluation: the engine never sees it."""
        from repro.service.batcher import DeadlineExceededError

        engine = GatedSimulator(GpuSimulator("interval"))
        counted = CountingSimulator(engine)

        async def scenario():
            batcher = await make_batcher(
                counted, max_batch=1, max_wait_ms=0.0
            )
            loop = asyncio.get_running_loop()
            # First query occupies the engine thread at the gate.
            blocker = asyncio.ensure_future(
                batcher.submit(
                    PointQuery(archetype_kernels[0], W9100_LIKE)
                )
            )
            await asyncio.sleep(0.05)
            # Second query's deadline expires while it queues.
            doomed = asyncio.ensure_future(
                batcher.submit(
                    PointQuery(archetype_kernels[1], W9100_LIKE),
                    deadline=loop.time() + 0.05,
                )
            )
            await asyncio.sleep(0.2)
            engine.gate.set()
            result = await blocker
            with pytest.raises(DeadlineExceededError):
                await doomed
            await batcher.stop(drain=True)
            return result, counted.point_calls

        result, point_calls = run(scenario())
        assert result.items_per_second > 0
        assert point_calls == 1, "expired query must not be evaluated"

    def test_deadline_metric_is_counted(self, archetype_kernels):
        from repro.service.batcher import DeadlineExceededError
        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics()

        async def scenario():
            batcher = await make_batcher(
                GpuSimulator("interval"), metrics=metrics
            )
            try:
                loop = asyncio.get_running_loop()
                with pytest.raises(DeadlineExceededError):
                    await batcher.submit(
                        PointQuery(archetype_kernels[0], W9100_LIKE),
                        deadline=loop.time() - 1.0,
                    )
            finally:
                await batcher.stop(drain=False)

        run(scenario())
        assert metrics.deadline_exceeded.value() == 1
