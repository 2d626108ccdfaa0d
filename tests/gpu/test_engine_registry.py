"""The engine registry: registration semantics, negotiation, telemetry.

The registry is the seam every consumer resolves engines through, so
its contract is pinned directly: registration/duplicate/unregister
semantics, capability-based family negotiation in the facade,
descriptor-derived fingerprints, and thread-safe call counters behind
the legacy counter shims.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigurationError
from repro.gpu.engine import (
    FIDELITY_TIERS,
    EngineCapabilities,
    EngineDescriptor,
    GridSpace,
    TimingEngine,
    engine_calls,
    engine_fingerprint,
    engine_names,
    engine_registration,
    find_family_engine,
    get_engine,
    list_engines,
    normalize_engine,
    normalize_grid_mode,
    record_engine_call,
    register_engine,
    reset_engine_calls,
    unregister_engine,
)
from repro.gpu.interval_batch import BatchIntervalModel
from repro.gpu.interval_model import IntervalModel
from repro.gpu.simulator import (
    GpuSimulator,
    engine_call_count,
    reset_engine_call_count,
)
from repro.sweep.space import PAPER_SPACE


class _NullEngine:
    supports_point = True
    supports_grid = False
    supports_study = False

    def descriptor(self):
        return EngineDescriptor(name="null", family="null")

    def simulate(self, kernel, config):
        raise NotImplementedError


@pytest.fixture
def scratch_engine():
    """A throwaway registration, cleaned up after the test."""
    name = "test-scratch"
    register_engine(
        name,
        _NullEngine,
        capabilities=EngineCapabilities(point=True),
        summary="scratch engine for registry tests",
    )
    yield name
    unregister_engine(name)


class TestRegistrySemantics:
    def test_builtins_are_registered(self):
        assert set(engine_names()) >= {
            "interval", "interval-batch", "event", "faulty",
        }
        assert "predictor" not in engine_names()

    def test_get_engine_returns_fresh_instances(self):
        first = get_engine("interval")
        second = get_engine("interval")
        assert isinstance(first, IntervalModel)
        assert first is not second

    def test_builtin_instances_satisfy_protocol(self):
        for name in ("interval", "interval-batch", "event"):
            assert isinstance(get_engine(name), TimingEngine)

    def test_unknown_engine_is_structured_error(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            engine_registration("no-such-engine")
        with pytest.raises(ConfigurationError):
            GpuSimulator("no-such-engine")

    def test_duplicate_registration_rejected(self, scratch_engine):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_engine(
                scratch_engine,
                _NullEngine,
                capabilities=EngineCapabilities(point=True),
            )

    def test_replace_overrides_registration(self, scratch_engine):
        register_engine(
            scratch_engine,
            _NullEngine,
            capabilities=EngineCapabilities(point=True, grid=True),
            replace=True,
        )
        entry = engine_registration(scratch_engine)
        assert entry.capabilities.grid

    def test_unregister_removes_entry(self):
        register_engine(
            "test-transient",
            _NullEngine,
            capabilities=EngineCapabilities(point=True),
        )
        assert unregister_engine("test-transient")
        assert not unregister_engine("test-transient")
        assert "test-transient" not in engine_names()

    def test_list_engines_sorted_by_name(self):
        names = [entry.name for entry in list_engines()]
        assert names == sorted(names)

    def test_registered_engine_reachable_via_facade(self, scratch_engine):
        sim = GpuSimulator(scratch_engine)
        assert sim.engine_name == scratch_engine
        assert sim.supports_point


class TestNormalization:
    def test_normalize_engine_spellings(self):
        assert normalize_engine("interval") == "interval"
        assert normalize_engine(_NullEngine()) == "null"

    def test_normalize_grid_mode_spellings(self):
        assert normalize_grid_mode("batch") == "batch"

    def test_unknown_grid_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown grid mode"):
            normalize_grid_mode("warp")


class TestDescriptorsAndFingerprints:
    def test_family_shares_fingerprint_material(self):
        assert engine_fingerprint("interval") == "interval"
        assert engine_fingerprint("interval-batch") == "interval"
        assert engine_fingerprint("event") == "event"

    def test_version_bump_moves_material(self):
        descriptor = EngineDescriptor(name="x", family="x", version=2)
        assert descriptor.fingerprint_material() == "x@v2"

    def test_facade_descriptor_matches_registry(self):
        sim = GpuSimulator("interval")
        assert sim.descriptor() is engine_registration(
            "interval"
        ).descriptor

    def test_engine_classes_return_registry_descriptors(self):
        assert get_engine("interval").descriptor().family == "interval"
        assert (
            get_engine("interval-batch").descriptor().family == "interval"
        )
        assert get_engine("event").descriptor().family == "event"

    def test_fidelity_ladder_is_reference_then_exact(self):
        assert FIDELITY_TIERS == ("reference", "exact")

    def test_every_registration_sits_on_the_ladder(self):
        for entry in list_engines():
            assert entry.descriptor.fidelity in FIDELITY_TIERS

    def test_descriptor_carries_no_error_budget(self):
        descriptor = EngineDescriptor(name="x", family="x")
        assert not hasattr(descriptor, "error_budget")
        with pytest.raises(TypeError):
            EngineDescriptor(name="x", family="x", error_budget=0.1)

    def test_predictor_is_not_a_registered_engine(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            get_engine("predictor")

    def test_predict_package_exports_no_engine(self):
        import importlib.util

        import repro.predict

        assert not hasattr(repro.predict, "PredictorEngine")
        assert importlib.util.find_spec("repro.predict.engine") is None


class TestFamilyNegotiation:
    def test_interval_grid_resolves_to_batch_sibling(self):
        sim = GpuSimulator("interval")
        assert isinstance(sim._grid, BatchIntervalModel)
        assert sim.supports_point and sim.supports_grid
        assert sim.supports_study

    def test_event_has_no_grid_sibling(self):
        assert find_family_engine("event", "grid") is None
        sim = GpuSimulator("event")
        assert sim._grid is None
        assert sim.supports_grid  # degraded point loop still serves grids
        assert not sim.supports_study

    def test_faulty_family_never_resolves_as_interval(self):
        # The wrapper injects corruption, so family negotiation for the
        # clean interval family must never pick it.
        sibling = find_family_engine("interval", "grid")
        assert sibling is not None
        assert sibling.name == "interval-batch"

    def test_grid_space_protocol_matches_configuration_space(self):
        assert isinstance(PAPER_SPACE, GridSpace)


class TestCallInstrumentation:
    def test_per_engine_and_total_counts(self):
        reset_engine_calls()
        record_engine_call("interval")
        record_engine_call("interval")
        record_engine_call("event")
        assert engine_calls("interval") == 2
        assert engine_calls("event") == 1
        assert engine_calls() == 3
        reset_engine_calls()
        assert engine_calls() == 0

    def test_unregistered_names_still_tallied(self):
        reset_engine_calls()
        record_engine_call("exotic-wrapper")
        assert engine_calls("exotic-wrapper") == 1
        assert engine_calls() == 1
        reset_engine_calls()

    def test_compat_shims_total_over_registry(self):
        reset_engine_call_count()
        assert engine_call_count() == 0
        record_engine_call("interval")
        assert engine_call_count() == 1
        reset_engine_call_count()
        assert engine_call_count() == 0

    def test_counter_is_thread_safe(self):
        reset_engine_calls()
        per_thread = 500
        threads = [
            threading.Thread(
                target=lambda: [
                    record_engine_call("interval")
                    for _ in range(per_thread)
                ]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert engine_calls("interval") == 8 * per_thread
        reset_engine_calls()

    def test_facade_calls_attributed_to_selected_engine(
        self, archetype_kernels, flagship
    ):
        reset_engine_calls()
        sim = GpuSimulator("interval")
        sim.simulate(archetype_kernels[0], flagship)
        assert engine_calls("interval") == 1
        assert engine_calls("event") == 0
        reset_engine_calls()


class TestClose:
    def test_close_without_pool_is_harmless(self):
        for engine in ("interval", "interval-batch", "event"):
            sim = GpuSimulator(engine)
            sim.close()
            sim.close()
