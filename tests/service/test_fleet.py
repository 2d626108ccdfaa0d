"""The worker fleet: sharding, bit-exactness, supervision, drain.

Three invariants from the fleet design are pinned here:

* **placement** — the consistent-hash ring is deterministic, covers
  every worker, and sends every query against one ``(space, engine)``
  surface to one worker (the property that makes the sweep cache
  single-flight by construction);
* **bit-exactness** — answers that crossed the process boundary and
  the shared-memory result path are bitwise the direct
  :class:`~repro.gpu.simulator.GpuSimulator` answers;
* **supervision** — a SIGKILLed worker is restarted and its in-flight
  queries are resubmitted invisibly, including while a graceful drain
  is already under way: every admitted query is answered before
  ``stop(drain=True)`` returns.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal

import numpy as np
import pytest

from repro.gpu import W9100_LIKE, HardwareConfig
from repro.gpu.simulator import GpuSimulator
from repro.service.batcher import (
    DeadlineExceededError,
    GridQuery,
    PointQuery,
    ServiceClosedError,
)
from repro.service.metrics import ServiceMetrics
from repro.service.router import FleetExecutor, HashRing
from repro.suites import all_kernels, kernel_by_name
from repro.sweep import reduced_space
from repro.sweep.space import PAPER_SPACE

KERNEL = "rodinia/bfs.kernel1"

CONFIGS = (
    W9100_LIKE,
    HardwareConfig(cu_count=8, engine_mhz=600.0, memory_mhz=475.0),
    HardwareConfig(cu_count=24, engine_mhz=925.0, memory_mhz=950.0),
)


def run(coro):
    return asyncio.run(coro)


class TestHashRing:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            HashRing(0)

    def test_deterministic_across_instances(self):
        first, second = HashRing(4), HashRing(4)
        keys = [f"shard-{i}" for i in range(256)]
        assert [first.lookup(k) for k in keys] == [
            second.lookup(k) for k in keys
        ]

    def test_every_worker_owns_a_fair_share(self):
        ring = HashRing(4)
        counts = [0, 0, 0, 0]
        samples = 4000
        for i in range(samples):
            counts[ring.lookup(f"key-{i}")] += 1
        assert all(count > 0 for count in counts)
        # Virtual nodes keep the skew bounded: no worker owns less
        # than half or more than double its fair share.
        for count in counts:
            assert samples / 8 < count < samples / 2

    def test_single_worker_takes_everything(self):
        ring = HashRing(1)
        assert {ring.lookup(f"k{i}") for i in range(64)} == {0}


class TestSharding:
    """Placement rules, checked without spawning any process."""

    def test_same_space_routes_to_one_worker(self):
        fleet = FleetExecutor(4, use_cache=False)
        workers = {
            fleet.worker_for(GridQuery(kernel, PAPER_SPACE))
            for kernel in all_kernels("proxyapps")
        }
        assert len(workers) == 1

    def test_space_key_is_content_addressed_not_identity(self):
        fleet = FleetExecutor(4, use_cache=False)
        kernel = kernel_by_name(KERNEL)
        first = GridQuery(kernel, reduced_space(3, 3, 3))
        second = GridQuery(kernel, reduced_space(3, 3, 3))
        assert first.space is not second.space
        assert fleet.shard_key(first) == fleet.shard_key(second)

    def test_distinct_spaces_get_distinct_keys(self):
        fleet = FleetExecutor(4, use_cache=False)
        kernel = kernel_by_name(KERNEL)
        keys = {
            fleet.shard_key(GridQuery(kernel, space))
            for space in (
                PAPER_SPACE, reduced_space(2, 2, 2), reduced_space(3, 2, 2),
            )
        }
        assert len(keys) == 3

    def test_point_key_pins_kernel_and_config(self):
        fleet = FleetExecutor(4, use_cache=False)
        kernel = kernel_by_name(KERNEL)
        base = fleet.shard_key(PointQuery(kernel, CONFIGS[0]))
        assert base == fleet.shard_key(PointQuery(kernel, CONFIGS[0]))
        assert base != fleet.shard_key(PointQuery(kernel, CONFIGS[1]))
        assert base != fleet.shard_key(
            PointQuery(kernel_by_name("shoc/triad.triad"), CONFIGS[0])
        )

    def test_rejects_non_queries(self):
        fleet = FleetExecutor(2, use_cache=False)

        async def scenario():
            fleet._closed = False  # skip process spawn for a type check
            try:
                await fleet.submit("not a query")
            finally:
                fleet._closed = True

        with pytest.raises(TypeError):
            run(scenario())


class TestFleetProcesses:
    """End-to-end through real spawned worker processes."""

    def test_answers_are_bit_exact_and_fleet_drains(self):
        direct = GpuSimulator("interval")
        kernel = kernel_by_name(KERNEL)
        point_query = PointQuery(kernel, W9100_LIKE)
        grid_query = GridQuery(kernel, PAPER_SPACE)

        async def scenario():
            fleet = FleetExecutor(2, use_cache=False)
            await fleet.start()
            try:
                point, grids = await asyncio.gather(
                    fleet.submit(point_query),
                    asyncio.gather(
                        *(fleet.submit(grid_query) for _ in range(4))
                    ),
                )
                metrics = await fleet.render_metrics(
                    ServiceMetrics().registry
                )
                states = fleet.worker_states()
            finally:
                await fleet.stop(drain=True)
            with pytest.raises(ServiceClosedError):
                await fleet.submit(point_query)
            return point, grids, metrics, states

        point, grids, metrics, states = run(scenario())

        expected_point = direct.simulate(kernel, W9100_LIKE)
        assert point.time_s == float(expected_point.time_s)
        assert point.items_per_second == float(
            expected_point.items_per_second
        )
        expected_grid = direct.simulate_grid(kernel, PAPER_SPACE)
        for grid in grids:
            np.testing.assert_array_equal(
                grid.items_per_second, expected_grid.items_per_second
            )
        # /metrics merges per-worker series under fleet totals.
        assert 'worker="fleet"' in metrics
        assert 'worker="0"' in metrics and 'worker="1"' in metrics
        assert len(states) == 2
        assert all(state["alive"] for state in states)
        assert all(state["restarts"] == 0 for state in states)

    def test_sigkilled_worker_restarts_and_replays_inflight(self):
        kernels = all_kernels("proxyapps")
        queries = [GridQuery(k, PAPER_SPACE) for k in kernels]

        async def scenario():
            fleet = FleetExecutor(2, use_cache=False, max_wait_ms=50.0)
            await fleet.start()
            try:
                target = fleet.worker_for(queries[0])
                victim_pid = fleet.worker_states()[target]["pid"]
                # Kill first, then submit: the sends race the EOF, so
                # the supervisor must recover every one of them.
                os.kill(victim_pid, signal.SIGKILL)
                results = await asyncio.gather(
                    *(fleet.submit(q) for q in queries)
                )
                states = fleet.worker_states()
            finally:
                await fleet.stop(drain=True)
            return target, results, states

        target, results, states = run(scenario())

        assert states[target]["restarts"] >= 1
        assert states[target]["pid"] is not None
        direct = GpuSimulator("interval")
        for query, result in zip(queries, results):
            expected = direct.simulate_grid(query.kernel, query.space)
            np.testing.assert_array_equal(
                result.items_per_second, expected.items_per_second
            )

    def test_drain_answers_every_admitted_query_despite_midway_kill(self):
        kernels = all_kernels("proxyapps")
        queries = [GridQuery(k, PAPER_SPACE) for k in kernels] + [
            PointQuery(k, CONFIGS[i % len(CONFIGS)])
            for i, k in enumerate(kernels)
        ]

        async def scenario():
            fleet = FleetExecutor(2, use_cache=False, max_wait_ms=80.0)
            await fleet.start()
            tasks = [
                asyncio.ensure_future(fleet.submit(q)) for q in queries
            ]
            await asyncio.sleep(0)  # admit everything
            stop = asyncio.ensure_future(fleet.stop(drain=True))
            await asyncio.sleep(0.02)
            # SIGKILL the busiest worker while the drain is running.
            busiest = max(
                fleet.worker_states(),
                key=lambda state: state["inflight"],
            )
            if busiest["inflight"] and busiest["pid"]:
                os.kill(busiest["pid"], signal.SIGKILL)
            results = await asyncio.gather(*tasks)
            await stop
            return results

        results = run(scenario())

        assert len(results) == len(queries)
        direct = GpuSimulator("interval")
        for query, result in zip(queries, results):
            if isinstance(query, GridQuery):
                expected = direct.simulate_grid(query.kernel, query.space)
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


class TestPreferenceChains:
    def test_preference_starts_with_the_owner(self):
        ring = HashRing(4)
        for i in range(64):
            key = f"key-{i}"
            chain = ring.preference(key)
            assert chain[0] == ring.lookup(key)

    def test_preference_covers_every_worker_once(self):
        ring = HashRing(4)
        for i in range(64):
            chain = ring.preference(f"key-{i}")
            assert sorted(chain) == [0, 1, 2, 3]

    def test_single_worker_chain(self):
        assert HashRing(1).preference("anything") == [0]


class TestFleetDeadlines:
    def test_expired_deadline_refused_before_dispatch(self):
        from repro.service.batcher import DeadlineExceededError

        metrics = ServiceMetrics()

        async def scenario():
            fleet = FleetExecutor(2, use_cache=False, metrics=metrics)
            await fleet.start()
            try:
                with pytest.raises(DeadlineExceededError):
                    await fleet.submit(
                        PointQuery(kernel_by_name(KERNEL), W9100_LIKE),
                        deadline=(
                            asyncio.get_running_loop().time() - 1.0
                        ),
                    )
            finally:
                await fleet.stop(drain=False)

        run(scenario())
        assert metrics.deadline_exceeded.value() == 1


class TestFleetResilience:
    """Breakers, restart budgets, hedging — through real processes."""

    def test_worker_states_expose_breaker_and_budget(self):
        async def scenario():
            fleet = FleetExecutor(2, use_cache=False)
            await fleet.start()
            try:
                return fleet.worker_states()
            finally:
                await fleet.stop(drain=True)

        states = run(scenario())
        for state in states:
            assert state["breaker"] == "closed"
            budget = state["restart_budget"]
            assert budget["available"] >= 1
            assert budget["window_s"] > 0
            assert budget["next_free_s"] == 0.0

    def test_open_breaker_diverts_the_shard_to_its_neighbour(self):
        from repro.service.resilience import BreakerConfig

        kernel = kernel_by_name(KERNEL)
        query = GridQuery(kernel, PAPER_SPACE)
        metrics = ServiceMetrics()

        async def scenario():
            # One infra failure trips the breaker; a long cooldown
            # keeps it open for the rest of the test.
            fleet = FleetExecutor(
                2,
                use_cache=False,
                metrics=metrics,
                breaker=BreakerConfig(
                    failure_threshold=1,
                    window_s=60.0,
                    cooldown_s=60.0,
                ),
            )
            await fleet.start()
            try:
                target = fleet.worker_for(query)
                os.kill(fleet.worker_states()[target]["pid"],
                        signal.SIGKILL)
                # Wait for the supervisor to notice and restart.
                for _ in range(200):
                    state = fleet.worker_states()[target]
                    if state["restarts"] >= 1 and state["alive"]:
                        break
                    await asyncio.sleep(0.05)
                states = fleet.worker_states()
                result = await fleet.submit(query, timeout=30.0)
            finally:
                await fleet.stop(drain=True)
            return target, states, result

        target, states, result = run(scenario())

        assert states[target]["breaker"] == "open"
        expected = GpuSimulator("interval").simulate_grid(
            kernel_by_name(KERNEL), PAPER_SPACE
        )
        np.testing.assert_array_equal(
            result.items_per_second, expected.items_per_second
        )
        text = run(
            _render(metrics)
        )
        assert (
            'gpuscale_breaker_transitions_total{'
            f'shard="{target}", transition="closed->open"}} 1' in text
        )
        assert f'gpuscale_breaker_open{{shard="{target}"}} 1' in text

    def test_exhausted_restart_budget_fails_over_not_crashes(self):
        kernel = kernel_by_name(KERNEL)
        query = GridQuery(kernel, PAPER_SPACE)

        async def scenario():
            fleet = FleetExecutor(
                2,
                use_cache=False,
                restart_budget=1,
                restart_window_s=120.0,
            )
            await fleet.start()
            try:
                target = fleet.worker_for(query)
                # First kill consumes the only restart slot.
                os.kill(fleet.worker_states()[target]["pid"],
                        signal.SIGKILL)
                for _ in range(200):
                    state = fleet.worker_states()[target]
                    if state["restarts"] >= 1 and state["alive"]:
                        break
                    await asyncio.sleep(0.05)
                # Second kill exhausts it: the shard must divert to
                # its neighbour instead of dying or hanging.
                os.kill(fleet.worker_states()[target]["pid"],
                        signal.SIGKILL)
                await asyncio.sleep(0.3)
                result = await fleet.submit(query, timeout=30.0)
                states = fleet.worker_states()
            finally:
                await fleet.stop(drain=False)
            return target, states, result

        target, states, result = run(scenario())

        assert states[target]["restart_budget"]["available"] == 0
        assert states[target]["restart_budget"]["next_free_s"] > 0
        expected = GpuSimulator("interval").simulate_grid(
            kernel_by_name(KERNEL), PAPER_SPACE
        )
        np.testing.assert_array_equal(
            result.items_per_second, expected.items_per_second
        )

    def test_hedge_rescues_a_hanging_primary(self):
        from repro.service.chaos import ChaosConfig

        kernel = kernel_by_name(KERNEL)
        query = GridQuery(kernel, PAPER_SPACE)
        metrics = ServiceMetrics()

        # The shard owner is deterministic, so chaos can be aimed at
        # it before any process exists.
        target = FleetExecutor(2, use_cache=False).worker_for(query)

        async def scenario():
            fleet = FleetExecutor(
                2,
                use_cache=False,
                metrics=metrics,
                hedge_fraction=0.05,
                chaos=ChaosConfig(
                    seed=11,
                    hang=1.0,
                    hang_s=120.0,
                    workers=(target,),
                ),
            )
            await fleet.start()
            try:
                result = await fleet.submit(query, timeout=30.0)
            finally:
                await fleet.stop(drain=False)
            return result

        result = run(scenario())

        expected = GpuSimulator("interval").simulate_grid(
            kernel_by_name(KERNEL), PAPER_SPACE
        )
        np.testing.assert_array_equal(
            result.items_per_second, expected.items_per_second
        )
        text = run(_render(metrics))
        assert (
            f'gpuscale_hedges_total{{shard="{1 - target}", '
            'outcome="issued"} 1' in text
        )
        assert (
            f'gpuscale_hedges_total{{shard="{1 - target}", '
            'outcome="won"} 1' in text
        )


class TestFleetRespawnWindow:
    """While workers respawn, queries wait for them within their
    budget, and frames bound for a dead peer stay parked."""

    def test_queries_wait_for_a_respawn_when_every_worker_is_down(self):
        kernel = kernel_by_name(KERNEL)
        point_query = PointQuery(kernel, W9100_LIKE)
        grid_query = GridQuery(kernel, PAPER_SPACE)

        async def scenario():
            fleet = FleetExecutor(2, use_cache=False)
            await fleet.start()
            try:
                await _kill_every_worker(fleet)
                point, grid = await asyncio.gather(
                    fleet.submit(point_query, timeout=30.0),
                    fleet.submit(grid_query, timeout=30.0),
                )
                states = fleet.worker_states()
            finally:
                await fleet.stop(drain=True)
            return point, grid, states

        point, grid, states = run(scenario())

        # Every worker was down at submission: a respawn answered.
        assert any(state["restarts"] >= 1 for state in states)
        direct = GpuSimulator("interval")
        expected_point = direct.simulate(kernel, W9100_LIKE)
        assert point.time_s == float(expected_point.time_s)
        assert point.items_per_second == float(
            expected_point.items_per_second
        )
        np.testing.assert_array_equal(
            grid.items_per_second,
            direct.simulate_grid(kernel, PAPER_SPACE).items_per_second,
        )

    def test_deadline_shorter_than_a_respawn_is_a_deadline_error(self):
        query = PointQuery(kernel_by_name(KERNEL), W9100_LIKE)

        async def scenario():
            fleet = FleetExecutor(2, use_cache=False)
            await fleet.start()
            try:
                await _kill_every_worker(fleet)
                loop = asyncio.get_running_loop()
                with pytest.raises(DeadlineExceededError):
                    await fleet.submit(
                        query, deadline=loop.time() + 0.05
                    )
                # The fleet still comes back and answers.
                return await fleet.submit(query, timeout=30.0)
            finally:
                await fleet.stop(drain=True)

        result = run(scenario())
        expected = GpuSimulator("interval").simulate(
            query.kernel, W9100_LIKE
        )
        assert result.items_per_second == float(
            expected.items_per_second
        )

    def test_burst_to_a_dead_worker_is_parked_not_written(self, caplog):
        from repro.predict.what_if import STANDARD_SCENARIOS

        kernel = kernel_by_name(KERNEL)
        # A what-if request's seven point queries: the scenario
        # kernels keep the base kernel's name, so all share one shard.
        queries = [PointQuery(kernel, W9100_LIKE)] + [
            PointQuery(scenario.apply(kernel), W9100_LIKE)
            for scenario in STANDARD_SCENARIOS
        ]
        caplog.set_level(logging.WARNING, logger="asyncio")

        async def scenario():
            fleet = FleetExecutor(2, use_cache=False)
            await fleet.start()
            try:
                owners = {fleet.worker_for(q) for q in queries}
                assert len(owners) == 1
                process = fleet._handles[owners.pop()].process
                os.kill(process.pid, signal.SIGKILL)
                # Block the loop until the process is gone: the
                # router has not read the EOF yet when the burst goes.
                process.join(10)
                return await asyncio.gather(
                    *(fleet.submit(q, timeout=30.0) for q in queries)
                )
            finally:
                await fleet.stop(drain=True)

        results = run(scenario())

        assert len(queries) == 7
        direct = GpuSimulator("interval")
        for query, result in zip(queries, results):
            expected = direct.simulate(query.kernel, query.config)
            assert result.time_s == float(expected.time_s)
            assert result.items_per_second == float(
                expected.items_per_second
            )
        lost_writes = [
            record
            for record in caplog.records
            if record.name == "asyncio"
            and "socket.send() raised exception" in record.getMessage()
        ]
        assert not lost_writes


async def _kill_every_worker(fleet):
    """SIGKILL every worker; return once the router has seen all of
    them go down (their respawns are then under way)."""
    for state in fleet.worker_states():
        os.kill(state["pid"], signal.SIGKILL)
    while any(handle.connected for handle in fleet._handles):
        await asyncio.sleep(0.001)


async def _render(metrics):
    return metrics.registry.render()
