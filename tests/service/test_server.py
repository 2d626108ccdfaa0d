"""End-to-end HTTP tests: real sockets, real batcher, real engines."""

from __future__ import annotations

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.gpu import W9100_LIKE
from repro.gpu.simulator import GpuSimulator
from repro.service.batcher import (
    OverloadError,
    ServiceClosedError,
    ServiceTimeoutError,
)
from repro.service.loadgen import encode_request, fetch, read_response
from repro.service.server import GpuScaleService, ServiceConfig

KERNEL = "rodinia/bfs.kernel1"
POINT_BODY = {
    "kernel": KERNEL,
    "config": {"cu_count": 44, "engine_mhz": 1000, "memory_mhz": 1250},
}
SMALL_SPACE_BODY = {
    "cu_counts": [4, 16, 44],
    "engine_mhz": [300.0, 1000.0],
    "memory_mhz": [475.0, 1250.0],
}


def run(coro):
    return asyncio.run(coro)


def with_service(fn, **config_overrides):
    """Start a service on an ephemeral port, run *fn(service)*, drain."""
    overrides = {"port": 0, "use_cache": False, **config_overrides}

    async def scenario():
        service = GpuScaleService(ServiceConfig(**overrides))
        await service.start()
        try:
            return await fn(service)
        finally:
            await service.shutdown(drain=True)

    return run(scenario())


def post(service, path, payload):
    return fetch(service.config.host, service.port, "POST", path, payload)


def get(service, path):
    return fetch(service.config.host, service.port, "GET", path)


class TestHealthAndMetadata:
    def test_healthz_reports_ok(self):
        async def scenario(service):
            status, body = await get(service, "/healthz")
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["engine"] == "interval"
        assert payload["queue_depth"] == 0

    def test_engines_lists_the_registry(self):
        from repro.gpu.engine import engine_names

        async def scenario(service):
            status, body = await get(service, "/v1/engines")
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 200
        names = {entry["name"] for entry in payload["engines"]}
        assert names == set(engine_names())
        for entry in payload["engines"]:
            assert set(entry["capabilities"]) == {
                "point", "grid", "study",
            }

    def test_metrics_exposition(self):
        async def scenario(service):
            await post(service, "/v1/simulate", POINT_BODY)
            status, body = await get(service, "/metrics")
            return status, body.decode()

        status, text = with_service(scenario)
        assert status == 200
        assert "# TYPE gpuscale_requests_total counter" in text
        assert (
            'gpuscale_requests_total{endpoint="/v1/simulate", '
            'status="200"} 1' in text
        )
        assert "gpuscale_batches_total 1" in text


class TestSimulate:
    def test_point_is_bit_exact_vs_direct(self):
        async def scenario(service):
            status, body = await post(
                service, "/v1/simulate", POINT_BODY
            )
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 200
        from repro.suites import kernel_by_name

        expected = GpuSimulator("interval").simulate(
            kernel_by_name(KERNEL), W9100_LIKE
        )
        assert payload["kernel"] == KERNEL
        assert payload["time_s"] == float(expected.time_s)
        assert payload["items_per_second"] == float(
            expected.items_per_second
        )

    def test_grid_is_bit_exact_vs_direct(self):
        async def scenario(service):
            status, body = await post(
                service,
                "/v1/simulate",
                {"kernel": KERNEL, "space": SMALL_SPACE_BODY},
            )
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 200
        from repro.suites import kernel_by_name
        from repro.sweep.space import ConfigurationSpace

        space = ConfigurationSpace.from_dict(dict(SMALL_SPACE_BODY))
        expected = GpuSimulator("interval").simulate_grid(
            kernel_by_name(KERNEL), space
        )
        np.testing.assert_array_equal(
            np.asarray(payload["items_per_second"]),
            expected.items_per_second,
        )
        assert payload["space"]["cu_counts"] == [4, 16, 44]
        assert payload["from_cache"] is False

    def test_inline_kernel_definition(self):
        from repro.suites import kernel_by_name

        inline = kernel_by_name(KERNEL).to_dict()

        async def scenario(service):
            status, body = await post(
                service,
                "/v1/simulate",
                {"kernel": inline, "config": POINT_BODY["config"]},
            )
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 200
        assert payload["kernel"] == KERNEL

    def test_repeat_grid_hits_cache(self, tmp_path):
        body = {"kernel": KERNEL, "space": SMALL_SPACE_BODY}

        async def scenario(service):
            _, first = await post(service, "/v1/simulate", body)
            _, second = await post(service, "/v1/simulate", body)
            _, metrics = await get(service, "/metrics")
            return (
                json.loads(first), json.loads(second),
                metrics.decode(),
            )

        first, second, metrics = with_service(
            scenario, use_cache=True, cache_dir=str(tmp_path / "c"),
        )
        assert first["from_cache"] is False
        assert second["from_cache"] is True
        assert first["items_per_second"] == second["items_per_second"]
        assert first["time_s"] == second["time_s"]
        assert 'gpuscale_cache_events_total{outcome="hit"} 1' in metrics
        assert (
            'gpuscale_cache_events_total{outcome="store"} 1' in metrics
        )


class TestClassifyAndWhatIf:
    def test_classify_matches_direct_pipeline(self):
        async def scenario(service):
            status, body = await post(
                service, "/v1/classify", {"kernel": KERNEL}
            )
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 200
        from repro.suites import kernel_by_name
        from repro.sweep import SweepRunner
        from repro.sweep.space import PAPER_SPACE
        from repro.taxonomy.classifier import classify

        dataset = SweepRunner().run(
            [kernel_by_name(KERNEL)], PAPER_SPACE
        )
        label = classify(dataset).labels[0]
        assert payload["kernel"] == KERNEL
        assert payload["category"] == label.category.value
        assert payload["behaviours"]["cu"] == label.cu_behaviour.value
        assert payload["explanation"]

    def test_whatif_ranks_scenarios(self):
        from repro.predict.what_if import STANDARD_SCENARIOS

        async def scenario(service):
            status, body = await post(
                service, "/v1/whatif", {"kernel": KERNEL}
            )
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 200
        assert len(payload["scenarios"]) == len(STANDARD_SCENARIOS)
        speedups = [row["speedup"] for row in payload["scenarios"]]
        assert speedups == sorted(speedups, reverse=True)
        assert payload["baseline_items_per_second"] > 0
        for row in payload["scenarios"]:
            assert row["speedup"] == (
                row["optimised_items_per_second"]
                / payload["baseline_items_per_second"]
            )


class TestValidationErrors:
    @pytest.mark.parametrize(
        "body, code",
        [
            ({"kernel": "nope/missing.k", "space": "paper"},
             "unknown_kernel"),
            ({"kernel": KERNEL}, "invalid_shape"),
            ({"kernel": KERNEL, "space": "paper", "version": 9},
             "unsupported_version"),
            ({"kernel": KERNEL, "space": "huge"}, "unknown_family"),
        ],
    )
    def test_simulate_400s(self, body, code):
        async def scenario(service):
            status, response = await post(
                service, "/v1/simulate", body
            )
            return status, json.loads(response)

        status, payload = with_service(scenario)
        assert status == 400
        assert payload["error"]["code"] == code

    def test_invalid_json_body(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection(
                service.config.host, service.port
            )
            try:
                writer.write(
                    b"POST /v1/simulate HTTP/1.1\r\n"
                    b"Content-Length: 9\r\n\r\nnot json!"
                )
                await writer.drain()
                return await read_response(reader)
            finally:
                writer.close()

        status, body = with_service(scenario)
        assert status == 400
        assert json.loads(body)["error"]["code"] == "invalid_json"

    def test_unknown_path_404(self):
        async def scenario(service):
            return await get(service, "/v2/simulate")

        status, body = with_service(scenario)
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"

    def test_wrong_method_405(self):
        async def scenario(service):
            return await get(service, "/v1/simulate")

        status, body = with_service(scenario)
        assert status == 405
        assert (
            json.loads(body)["error"]["code"] == "method_not_allowed"
        )

    def test_unsupported_query_shape_400(self, grid_only_engine):
        # A point query against a grid-only engine is a client error,
        # not a server fault.
        async def scenario(service):
            status, body = await post(
                service, "/v1/simulate", POINT_BODY
            )
            return status, json.loads(body)

        status, payload = with_service(scenario, engine=grid_only_engine)
        assert status == 400
        assert payload["error"]["code"] == "unsupported_query"

    def test_oversized_body_413(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection(
                service.config.host, service.port
            )
            try:
                writer.write(
                    b"POST /v1/simulate HTTP/1.1\r\n"
                    b"Content-Length: 99999999\r\n\r\n"
                )
                await writer.drain()
                return await read_response(reader)
            finally:
                writer.close()

        status, body = with_service(scenario)
        assert status == 413
        assert json.loads(body)["error"]["code"] == "body_too_large"

    def test_malformed_request_line_400(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection(
                service.config.host, service.port
            )
            try:
                writer.write(b"WHAT\r\n\r\n")
                await writer.drain()
                return await read_response(reader)
            finally:
                writer.close()

        status, body = with_service(scenario)
        assert status == 400
        assert (
            json.loads(body)["error"]["code"] == "malformed_request"
        )


class TestOverloadMapping:
    """Batcher backpressure exceptions map to the documented statuses."""

    @pytest.mark.parametrize(
        "exc, status, code",
        [
            (OverloadError("full"), 429, "overloaded"),
            (ServiceTimeoutError("slow"), 503, "timeout"),
            (ServiceClosedError("bye"), 503, "draining"),
        ],
    )
    def test_batcher_rejections_map_to_statuses(
        self, exc, status, code
    ):
        async def scenario(service):
            async def rejecting_submit(query, timeout=None, deadline=None):
                raise exc

            service.batcher.submit = rejecting_submit
            return await post(service, "/v1/simulate", POINT_BODY)

        got_status, body = with_service(scenario)
        assert got_status == status
        assert json.loads(body)["error"]["code"] == code

    def test_429_carries_retry_after(self):
        async def scenario(service):
            async def rejecting_submit(query, timeout=None, deadline=None):
                raise OverloadError("full")

            service.batcher.submit = rejecting_submit
            reader, writer = await asyncio.open_connection(
                service.config.host, service.port
            )
            try:
                writer.write(
                    encode_request("/v1/simulate", POINT_BODY)
                )
                await writer.drain()
                status_line = await reader.readline()
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = (
                        line.decode().partition(":")
                    )
                    headers[name.strip().lower()] = value.strip()
                return int(status_line.split()[1]), headers
            finally:
                writer.close()

        status, headers = with_service(scenario)
        assert status == 429
        assert headers["retry-after"] == "1"

    def test_draining_server_rejects_posts(self):
        async def scenario(service):
            service._draining = True
            status, body = await post(
                service, "/v1/simulate", POINT_BODY
            )
            health_status, health = await get(service, "/healthz")
            service._draining = False
            return status, json.loads(body), json.loads(health)

        status, payload, health = with_service(scenario)
        assert status == 503
        assert payload["error"]["code"] == "draining"
        assert health["status"] == "draining"


class GatedPointSimulator:
    """Point engine that blocks in the worker thread until released."""

    supports_point = True
    supports_grid = False
    supports_study = False
    engine_name = "interval"

    def __init__(self):
        self._inner = GpuSimulator("interval")
        self.gate = threading.Event()

    def simulate(self, kernel, config):
        assert self.gate.wait(timeout=30), "test gate never opened"
        return self._inner.simulate(kernel, config)


class TestRetryAfterEstimation:
    """The 429 ``Retry-After`` is queue depth over drain rate — an
    estimate the service computes, never a hard-coded constant."""

    def test_retry_after_tracks_queue_depth_and_drain_rate(self):
        simulator = GatedPointSimulator()

        async def scenario():
            service = GpuScaleService(
                ServiceConfig(
                    port=0, use_cache=False,
                    max_batch=1, max_wait_ms=0.5, queue_limit=4,
                ),
                simulator=simulator,
            )
            await service.start()
            host = service.config.host
            try:
                # Prime the drain estimator with a known history:
                # 5 queries answered over 10 s = 0.5 queries/s.
                estimator = service.batcher._drain_rate
                estimator.record(0, 0.0)
                estimator.record(5, 10.0)
                connections = []
                for index in range(5):
                    reader, writer = await asyncio.open_connection(
                        host, service.port
                    )
                    writer.write(
                        encode_request("/v1/simulate", POINT_BODY)
                    )
                    await writer.drain()
                    connections.append((reader, writer))
                    if index == 0:
                        # Let the head query enter the (gated) engine
                        # so the rest land in the admission queue.
                        await asyncio.sleep(0.15)
                await asyncio.sleep(0.15)
                reader, writer = await asyncio.open_connection(
                    host, service.port
                )
                writer.write(encode_request("/v1/simulate", POINT_BODY))
                await writer.drain()
                status_line = await reader.readline()
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode().partition(":")
                    headers[name.strip().lower()] = value.strip()
                length = int(headers.get("content-length", 0))
                if length:
                    await reader.readexactly(length)
                writer.close()
                simulator.gate.set()
                for queued_reader, queued_writer in connections:
                    await read_response(queued_reader)
                    queued_writer.close()
                return int(status_line.split()[1]), headers
            finally:
                simulator.gate.set()
                await service.shutdown(drain=True)

        status, headers = asyncio.run(scenario())
        assert status == 429
        # Queue depth 4 / 0.5 answered per second = 8 seconds — the
        # live estimate, not the cold-start floor of 1.
        assert headers["retry-after"] == "8"


class TestConnectionBehaviour:
    def test_keep_alive_serves_sequential_requests(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection(
                service.config.host, service.port
            )
            try:
                statuses = []
                for _ in range(3):
                    writer.write(
                        encode_request("/v1/simulate", POINT_BODY)
                    )
                    await writer.drain()
                    status, body = await read_response(reader)
                    statuses.append(status)
                return statuses
            finally:
                writer.close()

        assert with_service(scenario) == [200, 200, 200]

    def test_connection_close_honoured(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection(
                service.config.host, service.port
            )
            try:
                writer.write(
                    b"GET /healthz HTTP/1.1\r\n"
                    b"Connection: close\r\n\r\n"
                )
                await writer.drain()
                status, _body = await read_response(reader)
                trailing = await reader.read()
                return status, trailing
            finally:
                writer.close()

        status, trailing = with_service(scenario)
        assert status == 200
        assert trailing == b""  # server closed after the response

    def test_graceful_shutdown_drains_inflight(self):
        """Shutdown waits for an in-flight request, then stops."""

        async def scenario():
            service = GpuScaleService(
                ServiceConfig(port=0, use_cache=False)
            )
            await service.start()
            inflight = asyncio.ensure_future(
                post(service, "/v1/classify", {"kernel": KERNEL})
            )
            await asyncio.sleep(0.05)
            await service.shutdown(drain=True)
            status, body = await inflight
            assert not service.batcher.running
            return status, json.loads(body)

        status, payload = run(scenario())
        assert status == 200
        assert payload["kernel"] == KERNEL


class TestFidelityMarking:
    """Every answer is exact, and says so."""

    def test_exact_grid_response_is_marked(self):
        async def scenario(service):
            status, body = await post(
                service,
                "/v1/simulate",
                {"kernel": KERNEL, "space": SMALL_SPACE_BODY},
            )
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 200
        assert payload["fidelity"] == "exact"
        assert "fidelity_error" not in payload
        assert "degraded_reason" not in payload

    def test_point_response_is_marked_exact(self):
        async def scenario(service):
            status, body = await post(
                service, "/v1/simulate", POINT_BODY
            )
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 200
        assert payload["fidelity"] == "exact"

    def test_saturated_grid_query_429s(self):
        async def scenario(service):
            async def rejecting_submit(
                query, timeout=None, deadline=None
            ):
                raise OverloadError("queue full")

            service.batcher.submit = rejecting_submit
            status, body = await post(
                service,
                "/v1/simulate",
                {"kernel": KERNEL, "space": SMALL_SPACE_BODY},
            )
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 429
        assert payload["error"]["code"] == "overloaded"

    def test_classify_response_is_marked_exact(self):
        async def scenario(service):
            status, body = await post(
                service, "/v1/classify", {"kernel": KERNEL}
            )
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 200
        assert payload["fidelity"] == "exact"
        assert "degraded_reason" not in payload

    def test_healthz_has_no_brownout_mode(self):
        async def scenario(service):
            status, body = await get(service, "/healthz")
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 200
        assert payload["status"] == "ok"
        assert "brownout" not in payload

    def test_metrics_have_no_tier_series(self):
        async def scenario(service):
            await post(
                service,
                "/v1/simulate",
                {"kernel": KERNEL, "space": SMALL_SPACE_BODY},
            )
            status, body = await get(service, "/metrics")
            return status, body.decode()

        status, text = with_service(scenario)
        assert status == 200
        assert "gpuscale_requests_total" in text
        assert "gpuscale_degraded_total" not in text
        assert "gpuscale_tier_selected_total" not in text

    def test_config_has_no_brownout_field(self):
        with pytest.raises(TypeError):
            ServiceConfig(brownout="auto")

    def test_grid_only_engine_serves_grid_queries(self, grid_only_engine):
        async def scenario(service):
            status, body = await post(
                service,
                "/v1/simulate",
                {"kernel": KERNEL, "space": SMALL_SPACE_BODY},
            )
            return status, json.loads(body)

        status, payload = with_service(scenario, engine=grid_only_engine)
        assert status == 200
        assert payload["fidelity"] == "exact"

        from repro.suites import kernel_by_name
        from repro.sweep.space import ConfigurationSpace

        space = ConfigurationSpace.from_dict(dict(SMALL_SPACE_BODY))
        expected = GpuSimulator("interval-batch").simulate_grid(
            kernel_by_name(KERNEL), space
        )
        np.testing.assert_array_equal(
            np.asarray(payload["items_per_second"]),
            expected.items_per_second,
        )


class TestDeadlinesOverHttp:
    def test_timeout_ms_is_honoured(self):
        """A caller budget smaller than the server's shrinks the
        dispatch budget, and an exhausted deadline maps to 503
        deadline_exceeded."""
        from repro.service.batcher import DeadlineExceededError

        seen = {}

        async def scenario(service):
            async def expiring_submit(
                query, timeout=None, deadline=None
            ):
                seen["timeout"] = timeout
                seen["deadline"] = deadline
                raise DeadlineExceededError(
                    "query deadline passed before admission"
                )

            service.batcher.submit = expiring_submit
            status, body = await post(
                service,
                "/v1/simulate",
                {**POINT_BODY, "timeout_ms": 100},
            )
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 503
        assert payload["error"]["code"] == "deadline_exceeded"
        assert seen["timeout"] == pytest.approx(0.1)
        assert seen["deadline"] is not None

    def test_invalid_timeout_ms_is_a_400(self):
        async def scenario(service):
            status, body = await post(
                service,
                "/v1/simulate",
                {**POINT_BODY, "timeout_ms": -1},
            )
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 400
        assert payload["error"]["code"] == "invalid_timeout"
