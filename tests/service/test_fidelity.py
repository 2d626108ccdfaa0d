"""Tolerance-tiered fidelity routing over the wire.

A grid query may opt into approximation by naming its error budget:
``tolerance`` routes the query to the predictor tier when the tier's
measured error fits inside the budget, and falls back to the exact
interval engines otherwise. Point queries are always exact and reject
the key outright. These tests pin the schema contract, both routing
outcomes, the tier-selection metrics, and the enriched ``/v1/engines``
catalog that advertises each engine's fidelity tier and error budget.
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
# The predictor's measured error on SMALL_SPACE is ~0.10, so a 0.5
# budget admits the approximate tier and 0.01 demands the exact one.
LOOSE_TOLERANCE = 0.5
TIGHT_TOLERANCE = 0.01


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
        request = schema.parse_simulate(
            {"kernel": KERNEL, "space": dict(SMALL_SPACE_BODY)}
        )
        assert request.tolerance is None

    def test_valid_tolerance_parses_to_float(self):
        request = schema.parse_simulate(
            {
                "kernel": KERNEL,
                "space": dict(SMALL_SPACE_BODY),
                "tolerance": 0.25,
            }
        )
        assert request.tolerance == 0.25

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


class TestToleranceRouting:
    def test_loose_tolerance_answered_by_predictor_tier(self):
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
            _, metrics = await get(service, "/metrics")
            return status, json.loads(body), metrics.decode()

        status, payload, metrics = with_service(scenario)
        assert status == 200
        assert payload["fidelity"] == "approximate"
        assert payload["tier"] == "predictor"
        assert 0.0 <= payload["fidelity_error"] <= LOOSE_TOLERANCE
        assert "degraded_reason" not in payload

        from repro.gpu.engine import get_engine
        from repro.suites import kernel_by_name
        from repro.sweep.space import ConfigurationSpace

        space = ConfigurationSpace.from_dict(dict(SMALL_SPACE_BODY))
        expected = get_engine("predictor").simulate_grid(
            kernel_by_name(KERNEL), space
        )
        np.testing.assert_array_equal(
            np.asarray(payload["items_per_second"]),
            expected.items_per_second,
        )
        assert (
            'gpuscale_tier_selected_total{tier="predictor", '
            'reason="tolerance"} 1' in metrics
        )

    def test_tight_tolerance_falls_back_to_exact(self):
        async def scenario(service):
            status, body = await post(
                service,
                "/v1/simulate",
                {
                    "kernel": KERNEL,
                    "space": SMALL_SPACE_BODY,
                    "tolerance": TIGHT_TOLERANCE,
                },
            )
            _, metrics = await get(service, "/metrics")
            return status, json.loads(body), metrics.decode()

        status, payload, metrics = with_service(scenario)
        assert status == 200
        assert payload["fidelity"] == "exact"
        assert "tier" not in payload
        assert "fidelity_error" not in payload

        from repro.gpu import GpuSimulator
        from repro.suites import kernel_by_name
        from repro.sweep.space import ConfigurationSpace

        space = ConfigurationSpace.from_dict(dict(SMALL_SPACE_BODY))
        expected = GpuSimulator("interval").simulate_grid(
            kernel_by_name(KERNEL), space
        )
        np.testing.assert_allclose(
            np.asarray(payload["items_per_second"]),
            expected.items_per_second,
        )
        assert (
            'gpuscale_tier_selected_total{tier="exact", '
            'reason="tolerance_fallback"} 1' in metrics
        )

    def test_untoleranced_query_counts_as_default_exact(self):
        async def scenario(service):
            status, body = await post(
                service,
                "/v1/simulate",
                {"kernel": KERNEL, "space": SMALL_SPACE_BODY},
            )
            _, metrics = await get(service, "/metrics")
            return status, json.loads(body), metrics.decode()

        status, payload, metrics = with_service(scenario)
        assert status == 200
        assert payload["fidelity"] == "exact"
        assert (
            'gpuscale_tier_selected_total{tier="exact", '
            'reason="default"} 1' in metrics
        )
        assert 'reason="tolerance"' not in metrics

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

    def test_classify_accepts_tolerance(self):
        async def scenario(service):
            status, body = await post(
                service,
                "/v1/classify",
                {"kernel": KERNEL, "tolerance": LOOSE_TOLERANCE},
            )
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 200
        assert payload["fidelity"] in ("approximate", "exact")
        if payload["fidelity"] == "approximate":
            assert payload["tier"] == "predictor"
            assert "fidelity_error" in payload

    def test_routing_works_with_brownout_off_config(self):
        """The predictor tier serves toleranced queries even when the
        brownout degradation path is disabled."""

        async def scenario(service):
            assert service.brownout is None
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

        status, payload = with_service(scenario, brownout="off")
        assert status == 200
        assert payload["fidelity"] == "approximate"


class TestEnginesCatalog:
    def test_rows_carry_fidelity_and_fingerprint(self):
        async def scenario(service):
            status, body = await get(service, "/v1/engines")
            return status, json.loads(body)

        status, payload = with_service(scenario)
        assert status == 200
        rows = {row["name"]: row for row in payload["engines"]}

        for row in rows.values():
            assert row["fidelity"] in ("reference", "exact", "approximate")
            assert row["error_budget"] >= 0.0
            assert isinstance(row["fingerprint_material"], str)

        assert rows["event"]["fidelity"] == "reference"
        predictor = rows["predictor"]
        assert predictor["fidelity"] == "approximate"
        assert predictor["error_budget"] == pytest.approx(0.35)
