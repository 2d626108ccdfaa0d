"""``gpuscale serve --workers N`` end to end, as real processes.

The acceptance invariant for the fleet: whatever mix of point and
grid queries concurrent clients throw at it, every response is
**byte-for-byte** the one the single-process server gives and
**bit-for-bit** the direct :class:`~repro.gpu.simulator.GpuSimulator`
answer — the process boundary, the hash router, and the shared-memory
result path are invisible except in ``/healthz`` and ``/metrics``.
A Hypothesis-driven mixed-client property pins that three-way
agreement; the lifecycle tests pin worker restart and the SIGTERM
drain (every admitted request answered before exit, even with one
worker SIGKILLed mid-drain).
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gpu import HardwareConfig
from repro.gpu.simulator import GpuSimulator
from repro.service.loadgen import encode_request, fetch, read_response
from repro.suites import kernel_by_name
from repro.sweep.space import ConfigurationSpace

REPO_ROOT = Path(__file__).resolve().parents[2]

KERNELS = [
    "rodinia/bfs.kernel1",
    "shoc/triad.triad",
    "rodinia/nw.needle_1",
    "proxyapps/lulesh.calc_force_elems",
    "proxyapps/comd.eam_force",
    "proxyapps/minife.spmv_crs",
]

CONFIGS = [
    {"cu_count": 44, "engine_mhz": 1000.0, "memory_mhz": 1250.0},
    {"cu_count": 8, "engine_mhz": 600.0, "memory_mhz": 475.0},
    {"cu_count": 24, "engine_mhz": 925.0, "memory_mhz": 950.0},
]

SMALL_SPACE = {
    "cu_counts": [4, 16, 44],
    "engine_mhz": [300.0, 1000.0],
    "memory_mhz": [475.0, 1250.0],
}


def _spawn_server(*extra_args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--no-cache", *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    line = process.stdout.readline()
    match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
    if not match:
        process.kill()
        process.wait(timeout=10)
        raise AssertionError(f"no listen line, got {line!r}")
    return process, int(match.group(1)), line


def _kill(process):
    if process.poll() is None:
        process.kill()
        process.wait(timeout=10)


@pytest.fixture(scope="module")
def fleet_server():
    """One ``--workers 2`` fleet shared by the comparison tests."""
    process, port, line = _spawn_server("--workers", "2")
    try:
        yield process, port, line
    finally:
        _kill(process)


@pytest.fixture(scope="module")
def single_server():
    """The single-process reference the fleet must agree with."""
    process, port, line = _spawn_server()
    try:
        yield process, port, line
    finally:
        _kill(process)


def _post_all(port, bodies):
    """POST every body concurrently; returns (status, payload) pairs."""

    async def scenario():
        responses = await asyncio.gather(
            *(
                fetch("127.0.0.1", port, "POST", "/v1/simulate", body)
                for body in bodies
            )
        )
        return [
            (status, json.loads(body)) for status, body in responses
        ]

    return asyncio.run(scenario())


def _plan_to_bodies(plan):
    return [
        {"kernel": KERNELS[k], "space": SMALL_SPACE}
        if is_grid
        else {"kernel": KERNELS[k], "config": CONFIGS[c]}
        for is_grid, k, c in plan
    ]


class TestFleetTopology:
    def test_ready_line_announces_workers(self, fleet_server):
        _, _, line = fleet_server
        assert "workers=2" in line

    def test_healthz_lists_live_workers(self, fleet_server):
        _, port, _ = fleet_server
        status, body = asyncio.run(
            fetch("127.0.0.1", port, "GET", "/healthz")
        )
        payload = json.loads(body)
        assert status == 200
        assert payload["status"] == "ok"
        workers = payload["workers"]
        assert [w["worker"] for w in workers] == [0, 1]
        assert all(w["alive"] for w in workers)
        assert all(isinstance(w["pid"], int) for w in workers)

    def test_metrics_aggregate_across_workers(self, fleet_server):
        _, port, _ = fleet_server
        _post_all(port, [{"kernel": KERNELS[0], "config": CONFIGS[0]}])
        status, body = asyncio.run(
            fetch("127.0.0.1", port, "GET", "/metrics")
        )
        text = body.decode()
        assert status == 200
        assert 'worker="fleet"' in text
        assert 'worker="0"' in text and 'worker="1"' in text
        # HELP/TYPE appear once per metric, not once per worker.
        assert text.count("# TYPE gpuscale_batches_total counter") == 1


class TestFleetBitExactness:
    @given(
        plan=st.lists(
            st.tuples(
                st.booleans(),  # grid query?
                st.integers(min_value=0, max_value=len(KERNELS) - 1),
                st.integers(min_value=0, max_value=len(CONFIGS) - 1),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_property_fleet_matches_single_and_direct(
        self, plan, fleet_server, single_server
    ):
        """Mixed concurrent clients: fleet == single process == direct
        simulator, full JSON payloads compared for equality."""
        bodies = _plan_to_bodies(plan)
        fleet_responses = _post_all(fleet_server[1], bodies)
        single_responses = _post_all(single_server[1], bodies)
        assert fleet_responses == single_responses

        direct = GpuSimulator("interval")
        space = ConfigurationSpace.from_dict(dict(SMALL_SPACE))
        for (is_grid, k, c), (status, payload) in zip(
            plan, fleet_responses
        ):
            assert status == 200
            kernel = kernel_by_name(KERNELS[k])
            if is_grid:
                expected = direct.simulate_grid(kernel, space)
                np.testing.assert_array_equal(
                    np.asarray(payload["items_per_second"]),
                    expected.items_per_second,
                )
            else:
                config = HardwareConfig(**CONFIGS[c])
                expected = direct.simulate(kernel, config)
                assert payload["time_s"] == float(expected.time_s)
                assert payload["items_per_second"] == float(
                    expected.items_per_second
                )

    def test_paper_grid_is_bit_exact_through_the_fleet(
        self, fleet_server
    ):
        from repro.sweep.space import PAPER_SPACE

        _, port, _ = fleet_server
        ((status, payload),) = _post_all(
            port, [{"kernel": KERNELS[0], "space": "paper"}]
        )
        assert status == 200
        expected = GpuSimulator("interval").simulate_grid(
            kernel_by_name(KERNELS[0]), PAPER_SPACE
        )
        np.testing.assert_array_equal(
            np.asarray(payload["items_per_second"]),
            expected.items_per_second,
        )


class TestWorkerRecovery:
    def test_sigkilled_worker_is_replaced_and_service_answers(
        self, fleet_server
    ):
        process, port, _ = fleet_server
        _status, body = asyncio.run(
            fetch("127.0.0.1", port, "GET", "/healthz")
        )
        victim = json.loads(body)["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)

        # A query issued immediately is recovered by resubmission.
        ((status, payload),) = _post_all(
            port, [{"kernel": KERNELS[0], "space": SMALL_SPACE}]
        )
        assert status == 200
        expected = GpuSimulator("interval").simulate_grid(
            kernel_by_name(KERNELS[0]),
            ConfigurationSpace.from_dict(dict(SMALL_SPACE)),
        )
        np.testing.assert_array_equal(
            np.asarray(payload["items_per_second"]),
            expected.items_per_second,
        )

        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            _status, body = asyncio.run(
                fetch("127.0.0.1", port, "GET", "/healthz")
            )
            workers = json.loads(body)["workers"]
            if (
                all(w["alive"] for w in workers)
                and sum(w["restarts"] for w in workers) >= 1
            ):
                break
            time.sleep(0.2)
        else:
            raise AssertionError(
                f"worker never came back healthy: {workers}"
            )
        assert workers[0]["pid"] != victim
        assert process.poll() is None  # the server itself never died


async def _fire_and_drain(port, process, bodies, kill_worker_pid=None):
    """Put *bodies* in flight, SIGTERM the server, read every answer."""
    connections = []
    for body in bodies:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(encode_request("/v1/simulate", body))
        await writer.drain()
        connections.append((reader, writer))
    await asyncio.sleep(0.2)  # let the server admit them
    if kill_worker_pid is not None:
        # Kill the worker right before SIGTERM, not after: once the
        # drain starts, a worker whose queue is empty acks its drain
        # frame and exits on its own, so a later kill could find no
        # process. Either way the router meets the death mid-drain.
        os.kill(kill_worker_pid, signal.SIGKILL)
    process.send_signal(signal.SIGTERM)
    responses = []
    for reader, writer in connections:
        responses.append(await read_response(reader))
        writer.close()
    return responses


class TestSigtermDrain:
    def _run_drain(self, kill_one_worker):
        process, port, _ = _spawn_server(
            "--workers", "2", "--max-wait-ms", "50",
        )
        try:
            victim = None
            if kill_one_worker:
                _status, body = asyncio.run(
                    fetch("127.0.0.1", port, "GET", "/healthz")
                )
                victim = json.loads(body)["workers"][0]["pid"]
            bodies = [
                {"kernel": name, "space": "paper"} for name in KERNELS
            ] + [
                {"kernel": name, "config": CONFIGS[i % len(CONFIGS)]}
                for i, name in enumerate(KERNELS * 3)
            ]
            responses = asyncio.run(
                _fire_and_drain(
                    port, process, bodies, kill_worker_pid=victim
                )
            )
            stdout, _ = process.communicate(timeout=60)
        finally:
            _kill(process)

        assert process.returncode == 0
        assert "drained cleanly" in stdout
        # Every request written before SIGTERM got a real answer: an
        # admitted one its result, a not-yet-admitted one a 503 —
        # never a dropped connection.
        assert len(responses) == len(bodies)
        statuses = {status for status, _ in responses}
        assert statuses <= {200, 503}
        assert 200 in statuses
        direct = GpuSimulator("interval")
        for body, (status, raw) in zip(bodies, responses):
            if status != 200:
                continue
            payload = json.loads(raw)
            kernel = kernel_by_name(body["kernel"])
            if "space" in body:
                from repro.sweep.space import PAPER_SPACE

                expected = direct.simulate_grid(kernel, PAPER_SPACE)
                np.testing.assert_array_equal(
                    np.asarray(payload["items_per_second"]),
                    expected.items_per_second,
                )
            else:
                expected = direct.simulate(
                    kernel, HardwareConfig(**body["config"])
                )
                assert payload["items_per_second"] == float(
                    expected.items_per_second
                )

    def test_drain_answers_every_inflight_request(self):
        self._run_drain(kill_one_worker=False)

    def test_drain_survives_a_worker_killed_midway(self):
        self._run_drain(kill_one_worker=True)
