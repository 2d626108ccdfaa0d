"""The ``tolerance`` key over the wire.

A grid query may name the relative error it accepts. Every query is
answered exactly, and an exact answer satisfies every tolerance, so a
valid ``tolerance`` is validated and then has no effect: the answer is
bit-equal to the untoleranced one, single-process and in a fleet. A
malformed value is a structured 400, and point queries reject the key
outright. ``/v1/engines`` advertises each engine's fidelity tier.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.service import schema
from repro.service.loadgen import fetch
from repro.service.schema import RequestError
from repro.service.server import GpuScaleService, ServiceConfig

KERNEL = "rodinia/bfs.kernel1"
SMALL_SPACE_BODY = {
    "cu_counts": [4, 16, 44],
    "engine_mhz": [300.0, 1000.0],
    "memory_mhz": [475.0, 1250.0],
}
LOOSE_TOLERANCE = 0.5


def run(coro):
    return asyncio.run(coro)


def with_service(fn, **config_overrides):
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


class TestToleranceSchema:
    def test_absent_tolerance_parses_to_none(self):
        body = {"kernel": KERNEL, "space": dict(SMALL_SPACE_BODY)}
        assert schema.parse_simulate(body).is_grid
        assert schema.parse_tolerance(body) is None

    def test_valid_tolerance_parses_to_float(self):
        body = {
            "kernel": KERNEL,
            "space": dict(SMALL_SPACE_BODY),
            "tolerance": 0.25,
        }
        assert schema.parse_simulate(body).is_grid
        assert schema.parse_tolerance(body) == 0.25

    @pytest.mark.parametrize(
        "tolerance", [True, False, "0.5", -0.1, float("nan"), None]
    )
    def test_invalid_tolerance_rejected(self, tolerance):
        with pytest.raises(RequestError) as excinfo:
            schema.parse_simulate(
                {
                    "kernel": KERNEL,
                    "space": dict(SMALL_SPACE_BODY),
                    "tolerance": tolerance,
                }
            )
        assert excinfo.value.code == "invalid_tolerance"
        assert excinfo.value.field == "tolerance"

    def test_point_query_rejects_tolerance(self):
        with pytest.raises(RequestError) as excinfo:
            schema.parse_simulate(
                {
                    "kernel": KERNEL,
                    "config": {
                        "cu_count": 44,
                        "engine_mhz": 1000,
                        "memory_mhz": 1250,
                    },
                    "tolerance": 0.5,
                }
            )
        assert excinfo.value.code == "invalid_tolerance"

    def test_http_400_on_bad_tolerance(self):
        async def scenario(service):
            status, body = await post(
                service,
                "/v1/simulate",
                {
                    "kernel": KERNEL,
                    "space": SMALL_SPACE_BODY,
                    "tolerance": -1,
                },
            )
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 400
        assert payload["error"]["code"] == "invalid_tolerance"


class TestToleranceAnsweredExactly:
    """A valid tolerance changes nothing about the answer."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "path, body",
        [
            ("/v1/simulate", {"kernel": KERNEL, "space": SMALL_SPACE_BODY}),
            ("/v1/classify", {"kernel": KERNEL}),
        ],
        ids=["simulate-grid", "classify"],
    )
    def test_toleranced_answer_equals_untoleranced(
        self, path, body, workers
    ):
        async def scenario(service):
            plain = await post(service, path, body)
            toleranced = await post(
                service, path, {**body, "tolerance": LOOSE_TOLERANCE}
            )
            return [
                (status, json.loads(raw)) for status, raw in (plain, toleranced)
            ]

        (status, plain), (t_status, toleranced) = with_service(
            scenario, workers=workers
        )
        assert status == t_status == 200
        assert toleranced == plain
        assert toleranced["fidelity"] == "exact"
        assert "tier" not in toleranced
        assert "fidelity_error" not in toleranced

    def test_toleranced_grid_is_the_exact_surface(self):
        from repro.gpu import GpuSimulator
        from repro.suites import kernel_by_name
        from repro.sweep.space import ConfigurationSpace

        async def scenario(service):
            status, body = await post(
                service,
                "/v1/simulate",
                {
                    "kernel": KERNEL,
                    "space": SMALL_SPACE_BODY,
                    "tolerance": LOOSE_TOLERANCE,
                },
            )
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 200
        space = ConfigurationSpace.from_dict(dict(SMALL_SPACE_BODY))
        expected = GpuSimulator("interval").simulate_grid(
            kernel_by_name(KERNEL), space
        )
        np.testing.assert_array_equal(
            np.asarray(payload["items_per_second"]),
            expected.items_per_second,
        )

    def test_zero_tolerance_is_valid_and_exact(self):
        async def scenario(service):
            status, body = await post(
                service,
                "/v1/simulate",
                {
                    "kernel": KERNEL,
                    "space": SMALL_SPACE_BODY,
                    "tolerance": 0,
                },
            )
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 200
        assert payload["fidelity"] == "exact"


class TestToleranceValues:
    """Every valid tolerance, tight or loose, gets the same exact
    answer; a malformed one is the same 400 on every path."""

    @pytest.mark.parametrize("tolerance", [1e-9, 1.0, 1000.0])
    def test_any_valid_tolerance_answers_identically(self, tolerance):
        body = {"kernel": KERNEL, "space": SMALL_SPACE_BODY}

        async def scenario(service):
            plain = await post(service, "/v1/simulate", body)
            toleranced = await post(
                service, "/v1/simulate", {**body, "tolerance": tolerance}
            )
            return [
                (status, json.loads(raw)) for status, raw in (plain, toleranced)
            ]

        (status, plain), (t_status, toleranced) = with_service(scenario)
        assert status == t_status == 200
        assert toleranced == plain

    @pytest.mark.parametrize(
        "tolerance", [True, False, "0.5", -0.1, float("nan"), None]
    )
    def test_classify_rejects_invalid_tolerance(self, tolerance):
        with pytest.raises(RequestError) as excinfo:
            schema.parse_classify({"kernel": KERNEL, "tolerance": tolerance})
        assert excinfo.value.code == "invalid_tolerance"
        assert excinfo.value.field == "tolerance"

    def test_classify_accepts_valid_tolerance(self):
        request = schema.parse_classify(
            {"kernel": KERNEL, "tolerance": LOOSE_TOLERANCE}
        )
        assert request.kernel.full_name == KERNEL

    @pytest.mark.parametrize("workers", [1, 2])
    def test_http_400_on_bad_classify_tolerance(self, workers):
        async def scenario(service):
            status, body = await post(
                service,
                "/v1/classify",
                {"kernel": KERNEL, "tolerance": "loose"},
            )
            return status, json.loads(body)

        status, payload = with_service(scenario, workers=workers)
        assert status == 400
        assert payload["error"]["code"] == "invalid_tolerance"

    def test_fleet_400_on_bad_grid_tolerance(self):
        async def scenario(service):
            status, body = await post(
                service,
                "/v1/simulate",
                {
                    "kernel": KERNEL,
                    "space": SMALL_SPACE_BODY,
                    "tolerance": -1,
                },
            )
            return status, json.loads(body)

        status, payload = with_service(scenario, workers=2)
        assert status == 400
        assert payload["error"]["code"] == "invalid_tolerance"


class TestEnginesCatalog:
    def test_rows_carry_fidelity_and_fingerprint(self):
        async def scenario(service):
            status, body = await get(service, "/v1/engines")
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 200
        rows = {row["name"]: row for row in payload["engines"]}

        for row in rows.values():
            assert row["fidelity"] in ("reference", "exact")
            assert isinstance(row["fingerprint_material"], str)
            assert "error_budget" not in row

        assert rows["event"]["fidelity"] == "reference"
        assert rows["interval-batch"]["fidelity"] == "exact"
        assert "predictor" not in rows
