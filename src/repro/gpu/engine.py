"""The timing-engine seam: protocol, descriptors, and registry.

Every evaluator in the repo — the scalar interval oracle, the
vectorized batch/study interval engine, the discrete-event cross-check,
and the fault-injection wrapper — is a *timing engine*: an object that turns (kernel, hardware) questions into
seconds. This module defines the one seam they all plug into:

* :class:`TimingEngine` — the structural protocol. An engine declares
  which call shapes it supports (``supports_point`` /
  ``supports_grid`` / ``supports_study``) and implements only those;
  consumers negotiate capabilities instead of switching on enums.
* :class:`EngineDescriptor` — a stable identity (name, family,
  version, substrate material) from which the sweep cache and the
  campaign journal derive their fingerprints, so no layer above the
  engine ever reaches into engine internals again.
* The process-wide registry — :func:`register_engine` /
  :func:`get_engine` / :func:`list_engines`. Adding a backend is one
  registration; the facade, sweep runners, cache, campaign, and CLI
  pick it up by name with zero further changes.

Engines and grid modes are named by plain strings (registry names,
``batch``/``scalar``/``study``); :func:`normalize_engine` also accepts
an engine object and :func:`normalize_grid_mode` validates the mode.

:class:`GridSpace` is the structural contract of the sweep layer's
``ConfigurationSpace`` — the exact attribute surface grid-capable
engines consume. Engine modules annotate against it instead of
forward-referencing ``repro.sweep``, which removes the gpu -> sweep
import cycle the old ``TYPE_CHECKING`` guards papered over.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.gpu.config import HardwareConfig, Microarchitecture


# ----------------------------------------------------------------------
# Structural grid contract (breaks the gpu -> sweep forward reference)
# ----------------------------------------------------------------------


@runtime_checkable
class GridSpace(Protocol):
    """What a grid-capable engine needs from a configuration space.

    ``repro.sweep.space.ConfigurationSpace`` satisfies this by
    construction; anything else exposing the same axes, shape, and
    per-coordinate :meth:`config` lookup works identically. Engines
    must consume *only* this surface.
    """

    cu_counts: Tuple[int, ...]
    engine_mhz: Tuple[float, ...]
    memory_mhz: Tuple[float, ...]
    uarch: "Microarchitecture"

    @property
    def shape(self) -> Tuple[int, int, int]:
        """(num CU settings, num engine states, num memory states)."""
        ...

    def config(
        self, cu_idx: int, eng_idx: int, mem_idx: int
    ) -> "HardwareConfig":
        """The configuration at one grid coordinate."""
        ...


# ----------------------------------------------------------------------
# Capabilities and identity
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EngineCapabilities:
    """Which call shapes an engine implements natively.

    Consumers degrade gracefully along study -> grid -> point: a
    missing study path falls back to per-kernel grids (restoring
    per-kernel fault attribution), a missing grid path falls back to a
    point loop (the reference-oracle evaluation order).
    """

    point: bool = False
    grid: bool = False
    study: bool = False

    def as_dict(self) -> Dict[str, bool]:
        """The three flags keyed by call shape."""
        return {"point": self.point, "grid": self.grid, "study": self.study}


#: Fidelity tiers, most faithful first. ``reference`` engines model
#: microarchitectural mechanisms directly (the discrete-event
#: cross-check); ``exact`` engines are the analytical interval family
#: that defines the study dataset.
FIDELITY_TIERS: Tuple[str, ...] = ("reference", "exact")


@dataclass(frozen=True)
class EngineDescriptor:
    """Stable identity of one timing engine.

    *name* is the registry key (``"interval-batch"``); *family* is the
    numerical-equivalence class (``"interval"``): engines in one family
    are equivalence-tested to produce identical datasets, so
    fingerprints must not distinguish them. *version* tracks the
    engine's numerics; *material* names the modelled substrate.

    *fidelity* places the engine on the :data:`FIDELITY_TIERS` ladder.
    It does not enter :meth:`fingerprint_material` — fidelity is
    catalog metadata, it does not change what an engine computes.
    """

    name: str
    family: str
    version: int = 1
    material: str = "gcn3-hawaii-class"
    fidelity: str = "exact"

    def fingerprint_material(self) -> str:
        """The string cache keys and campaign journals embed.

        Version 1 engines emit the bare family name — byte-identical
        to the pre-registry fingerprint payloads, so existing cache
        entries and resumable journals stay valid. A version bump
        (i.e. a numerics change) moves the material and invalidates
        both, which is exactly what a numerics change must do.
        """
        if self.version == 1:
            return self.family
        return f"{self.family}@v{self.version}"


@runtime_checkable
class TimingEngine(Protocol):
    """Structural protocol every timing engine implements.

    ``supports_*`` flags declare the call shapes; an engine implements
    only the matching ``simulate*`` methods. ``descriptor()`` supplies
    the stable identity fingerprints derive from. The signatures use
    ``Any`` for kernel/result types so engine modules need no imports
    beyond this seam to conform.
    """

    @property
    def supports_point(self) -> bool:
        """True if ``simulate(kernel, config)`` is implemented."""
        ...

    @property
    def supports_grid(self) -> bool:
        """True if ``simulate_grid(kernel, space)`` is implemented."""
        ...

    @property
    def supports_study(self) -> bool:
        """True if ``simulate_study(pack, space)`` is implemented."""
        ...

    def descriptor(self) -> EngineDescriptor:
        """This engine's stable identity."""
        ...


#: Anything that names an engine: a registry name or an object
#: carrying a ``descriptor()``.
EngineSpec = Union[str, TimingEngine]

#: Grid-evaluation modes: ``scalar`` forces the point-loop oracle,
#: ``study`` requests whole-study kernel-axis batching.
GRID_MODES = ("batch", "scalar", "study")


def normalize_engine(spec: EngineSpec) -> str:
    """Collapse an engine spelling to its canonical registry name."""
    if isinstance(spec, str):
        return spec
    descriptor = getattr(spec, "descriptor", None)
    if callable(descriptor):
        return descriptor().name
    raise ConfigurationError(f"cannot interpret {spec!r} as an engine")


def normalize_grid_mode(spec: str) -> str:
    """Validate a grid-mode name and return it as a string."""
    mode = str(spec)
    if mode not in GRID_MODES:
        raise ConfigurationError(
            f"unknown grid mode {mode!r}; valid: {GRID_MODES}"
        )
    return mode


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


@dataclass
class EngineRegistration:
    """One registry entry: identity, capabilities, factory, telemetry.

    ``calls`` is the per-engine instrumentation hook: every facade
    evaluation routed to this engine increments it (thread-safely,
    via :func:`record_engine_call`). The sweep cache's acceptance
    test pins that cached re-runs leave every counter untouched.
    """

    name: str
    factory: Callable[..., Any]
    capabilities: EngineCapabilities
    descriptor: EngineDescriptor
    summary: str = ""
    calls: int = field(default=0, compare=False)


_REGISTRY: Dict[str, EngineRegistration] = {}
_REGISTRY_LOCK = threading.Lock()


def register_engine(
    name: str,
    factory: Callable[..., Any],
    *,
    capabilities: EngineCapabilities,
    descriptor: Optional[EngineDescriptor] = None,
    summary: str = "",
    replace: bool = False,
) -> EngineRegistration:
    """Register a timing-engine factory under *name*.

    *factory* is called by :func:`get_engine` (keyword arguments pass
    through) and must return an object satisfying
    :class:`TimingEngine`. Registering an existing name raises unless
    ``replace=True``. Returns the registration entry.
    """
    if not name or "/" in name:
        raise ConfigurationError(f"invalid engine name {name!r}")
    entry = EngineRegistration(
        name=name,
        factory=factory,
        capabilities=capabilities,
        descriptor=descriptor
        or EngineDescriptor(name=name, family=name),
        summary=summary,
    )
    with _REGISTRY_LOCK:
        if name in _REGISTRY and not replace:
            raise ConfigurationError(
                f"engine {name!r} is already registered "
                "(pass replace=True to override)"
            )
        _REGISTRY[name] = entry
    return entry


def unregister_engine(name: str) -> bool:
    """Drop one registration; ``True`` if something was removed."""
    with _REGISTRY_LOCK:
        return _REGISTRY.pop(name, None) is not None


def engine_registration(name: str) -> EngineRegistration:
    """The registry entry for *name*, or a structured error."""
    with _REGISTRY_LOCK:
        entry = _REGISTRY.get(name)
    if entry is None:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ConfigurationError(
            f"unknown engine {name!r}; registered engines: {known}"
        )
    return entry


def get_engine(spec: EngineSpec, **kwargs: Any) -> Any:
    """Instantiate the engine registered under *spec*.

    Each call returns a fresh instance (engines may carry per-instance
    caches); keyword arguments are forwarded to the factory.
    """
    return engine_registration(normalize_engine(spec)).factory(**kwargs)


def list_engines() -> Tuple[EngineRegistration, ...]:
    """Every registration, sorted by name."""
    with _REGISTRY_LOCK:
        entries = sorted(_REGISTRY.values(), key=lambda e: e.name)
    return tuple(entries)


def engine_names() -> Tuple[str, ...]:
    """Registered engine names, sorted."""
    return tuple(entry.name for entry in list_engines())


def find_family_engine(
    family: str, capability: str, *, exclude: str = ""
) -> Optional[EngineRegistration]:
    """A registration in *family* natively supporting *capability*.

    This is the negotiation primitive behind the facade: the scalar
    interval oracle has no grid path, but its family sibling
    ``interval-batch`` does, so grid calls resolve there. Returns
    ``None`` when the family offers no such engine — callers then
    degrade (grid -> point loop) or refuse (study).
    """
    for entry in list_engines():
        if entry.name == exclude:
            continue
        if entry.descriptor.family != family:
            continue
        if getattr(entry.capabilities, capability, False):
            return entry
    return None


def engine_fingerprint(spec: EngineSpec) -> str:
    """Fingerprint material of *spec* for cache keys and journals.

    Derived from the engine's :class:`EngineDescriptor` — never from
    engine internals. Engines sharing a family (equivalence-tested
    paths) share material, so they share cache entries.
    """
    descriptor = getattr(spec, "descriptor", None)
    if callable(descriptor):
        return descriptor().fingerprint_material()
    return (
        engine_registration(normalize_engine(spec))
        .descriptor.fingerprint_material()
    )


# ----------------------------------------------------------------------
# Instrumentation (replaces the old module-global call counter)
# ----------------------------------------------------------------------


def record_engine_call(name: str) -> None:
    """Count one engine evaluation against *name*'s registry entry.

    Unregistered names are counted under an ad-hoc entryless tally so
    wrappers around exotic simulators never lose telemetry.
    """
    with _REGISTRY_LOCK:
        entry = _REGISTRY.get(name)
        if entry is not None:
            entry.calls += 1
        else:
            _UNREGISTERED_CALLS[name] = _UNREGISTERED_CALLS.get(name, 0) + 1


_UNREGISTERED_CALLS: Dict[str, int] = {}


def engine_calls(name: Optional[str] = None) -> int:
    """Engine evaluations since the last reset.

    With *name*, that engine's count; without, the total across every
    registry entry (plus any unregistered tallies).
    """
    with _REGISTRY_LOCK:
        if name is not None:
            entry = _REGISTRY.get(name)
            if entry is not None:
                return entry.calls
            return _UNREGISTERED_CALLS.get(name, 0)
        return sum(e.calls for e in _REGISTRY.values()) + sum(
            _UNREGISTERED_CALLS.values()
        )


def reset_engine_calls() -> None:
    """Zero every engine's call counter."""
    with _REGISTRY_LOCK:
        for entry in _REGISTRY.values():
            entry.calls = 0
        _UNREGISTERED_CALLS.clear()


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------
#
# Factories import lazily: this module is the seam the engine modules
# themselves import (for GridSpace / EngineDescriptor), so importing
# them here at module level would cycle.


def _interval_factory(**kwargs: Any) -> Any:
    from repro.gpu.interval_model import IntervalModel

    return IntervalModel(**kwargs)


def _interval_batch_factory(**kwargs: Any) -> Any:
    from repro.gpu.interval_batch import BatchIntervalModel

    return BatchIntervalModel(**kwargs)


def _event_factory(**kwargs: Any) -> Any:
    from repro.gpu.event_sim import EventSimulator

    return EventSimulator(**kwargs)


def _faulty_factory(simulator: Any = None, specs: Any = (), **kwargs: Any) -> Any:
    from repro.gpu.simulator import GpuSimulator
    from repro.sweep.faults import FaultyEngine

    if simulator is None:
        simulator = GpuSimulator("interval")
    return FaultyEngine(simulator, specs, **kwargs)


#: Descriptors of the built-in engines — the single source the engine
#: classes' ``descriptor()`` methods and the registry both return.
INTERVAL_DESCRIPTOR = EngineDescriptor(name="interval", family="interval")
INTERVAL_BATCH_DESCRIPTOR = EngineDescriptor(
    name="interval-batch", family="interval"
)
EVENT_DESCRIPTOR = EngineDescriptor(
    name="event", family="event", fidelity="reference"
)
# The wrapper is its own family on purpose: family membership promises
# numerical equivalence, so fault-corrupted results must never resolve
# as (or fingerprint like) a clean interval engine.
FAULTY_DESCRIPTOR = EngineDescriptor(
    name="faulty", family="faulty", material="fault-injection-wrapper"
)


def _register_builtins() -> None:
    register_engine(
        "interval",
        _interval_factory,
        capabilities=EngineCapabilities(point=True),
        descriptor=INTERVAL_DESCRIPTOR,
        summary="scalar analytical interval model (reference oracle)",
        replace=True,
    )
    register_engine(
        "interval-batch",
        _interval_batch_factory,
        capabilities=EngineCapabilities(grid=True, study=True),
        descriptor=INTERVAL_BATCH_DESCRIPTOR,
        summary="vectorized interval model (per-kernel grid and "
        "whole-study kernel-axis batching)",
        replace=True,
    )
    register_engine(
        "event",
        _event_factory,
        capabilities=EngineCapabilities(point=True),
        descriptor=EVENT_DESCRIPTOR,
        summary="discrete-event cross-check (workgroup granularity)",
        replace=True,
    )
    register_engine(
        "faulty",
        _faulty_factory,
        capabilities=EngineCapabilities(point=True, grid=True),
        descriptor=FAULTY_DESCRIPTOR,
        summary="fault-injection wrapper around another engine "
        "(testing the sweep's recovery paths)",
        replace=True,
    )


_register_builtins()
