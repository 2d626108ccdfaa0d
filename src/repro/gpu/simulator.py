"""Public simulation facade over the engine registry.

:class:`GpuSimulator` hides the choice of timing engine behind one
``simulate`` call. It is a thin capability-resolving shell: the engine
named at construction is looked up in the registry
(:mod:`repro.gpu.engine`), and each call shape — point, grid, study —
is routed to the named engine when it supports that shape natively, to
a family sibling that does (the scalar interval oracle's grid calls
resolve to ``interval-batch``), or degraded one level (grid -> point
loop) when nothing in the family can batch it. Engines selectable here
are exactly the registry's: ``gpuscale engines`` lists them, and a new
backend registered with :func:`repro.gpu.engine.register_engine`
becomes available to every consumer of this facade without touching
this module.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.gpu.config import HardwareConfig
from repro.gpu.engine import (
    EngineCapabilities,
    EngineDescriptor,
    EngineSpec,
    GridSpace,
    engine_calls,
    engine_registration,
    find_family_engine,
    get_engine,
    normalize_engine,
    normalize_grid_mode,
    record_engine_call,
    reset_engine_calls,
)
from repro.gpu.event_sim import EventSimResult
from repro.gpu.interval_batch import (
    GridBreakdown,
    KernelGridResult,
    StudyGridResult,
)
from repro.gpu.interval_model import KernelRunResult
from repro.kernels.kernel import Kernel
from repro.kernels.pack import KernelPack, memoized_pack

SimulationResult = Union[KernelRunResult, EventSimResult]

__all__ = [
    "GpuSimulator",
    "SimulationResult",
    "engine_call_count",
    "reset_engine_call_count",
    "simulate",
]


def engine_call_count() -> int:
    """Engine evaluations (simulate/grid/study) since the last reset.

    Compatibility shim over the registry's per-engine counters
    (:func:`repro.gpu.engine.engine_calls`): the total across every
    registered engine. The result cache's acceptance test asserts
    cached re-runs leave this untouched.
    """
    return engine_calls()


def reset_engine_call_count() -> None:
    """Zero every engine's call counter (compatibility shim)."""
    reset_engine_calls()


class GpuSimulator:
    """Simulate kernels on configurable GCN-class hardware.

    *engine* names any registered timing engine (``"interval"``,
    ``"event"``, ...) or is an engine object.
    Capability resolution happens once, here; no consumer
    above this facade branches on engine identity again.
    """

    def __init__(self, engine: EngineSpec = "interval"):
        name = normalize_engine(engine)
        registration = engine_registration(name)  # fail fast on typos
        self._name = name
        self._family = registration.descriptor.family
        backend = get_engine(name)
        # Resolve each call shape: the named engine if it supports the
        # shape natively, else a family sibling that does. Instances
        # are shared across shapes resolving to the same engine so
        # per-instance caches (e.g. per-uarch batch state) are shared.
        resolved = {name: backend}

        def resolve(capability: str):
            if getattr(registration.capabilities, capability, False):
                return backend
            sibling = find_family_engine(
                self._family, capability, exclude=name
            )
            if sibling is None:
                return None
            if sibling.name not in resolved:
                resolved[sibling.name] = get_engine(sibling.name)
            return resolved[sibling.name]

        self._point = resolve("point")
        self._grid = resolve("grid")
        self._study = resolve("study")
        self._engines = tuple(resolved.values())

    @property
    def engine_name(self) -> str:
        """Registry name of the engine this simulator dispatches to."""
        return self._name

    def descriptor(self) -> EngineDescriptor:
        """Stable identity of the selected engine."""
        return engine_registration(self._name).descriptor

    def close(self) -> None:
        """Release what the resolved engines hold (any engine with a
        ``close`` method, such as one owning a process pool); each
        recreates it lazily on its next call."""
        for engine in self._engines:
            getattr(engine, "close", lambda: None)()

    # -- negotiated capabilities (the facade satisfies TimingEngine) ---

    @property
    def supports_point(self) -> bool:
        """True if single-point simulation is available."""
        return self._point is not None

    @property
    def supports_grid(self) -> bool:
        """True if grid simulation is available (natively or degraded)."""
        return self._point is not None or self._grid is not None

    @property
    def supports_study(self) -> bool:
        """True if whole-study batching is available."""
        return self._study is not None

    @property
    def capabilities(self) -> EngineCapabilities:
        """The negotiated capability set of this facade."""
        return EngineCapabilities(
            point=self.supports_point,
            grid=self.supports_grid,
            study=self.supports_study,
        )

    # ------------------------------------------------------------------
    # Call shapes
    # ------------------------------------------------------------------

    def simulate(
        self, kernel: Kernel, config: HardwareConfig
    ) -> SimulationResult:
        """Run *kernel* at *config* and return a result with ``time_s``
        and ``items_per_second``."""
        if self._point is None:
            raise ConfigurationError(
                f"engine {self._name!r} cannot simulate single points "
                "(no point-capable engine in its family)"
            )
        record_engine_call(self._name)
        return self._point.simulate(kernel, config)

    def simulate_grid(
        self,
        kernel: Kernel,
        space: GridSpace,
        mode: str = "batch",
    ) -> KernelGridResult:
        """Run *kernel* at every configuration of *space* at once.

        Returns ``(n_cu, n_eng, n_mem)`` time/throughput tensors indexed
        like ``ConfigurationSpace.config``. The grid-capable engine
        resolved at construction evaluates the whole grid in one call
        unless ``mode="scalar"`` forces the point-loop oracle; engines
        with no grid path in their family degrade to the point loop
        transparently.

        Unexpected engine failures (anything outside the package's own
        error hierarchy) are wrapped in a structured
        :class:`~repro.errors.SimulationError` naming the kernel, so
        fault-tolerant sweeps can attribute and quarantine them.
        """
        mode = normalize_grid_mode(mode)
        record_engine_call(self._name)
        try:
            if mode == "scalar" or self._grid is None:
                return self._point_grid(kernel, space)
            return self._grid.simulate_grid(kernel, space)
        except ReproError:
            raise
        except Exception as exc:
            raise SimulationError(
                kernel.full_name, f"{type(exc).__name__}: {exc}"
            ) from exc

    def simulate_study(
        self,
        kernels: Union[KernelPack, Sequence[Kernel]],
        space: GridSpace,
    ) -> StudyGridResult:
        """Run every kernel at every configuration in one broadcast.

        Accepts a prepacked :class:`~repro.kernels.pack.KernelPack` or
        any kernel sequence (packed on the fly). Requires a
        study-capable engine in the selected family — callers holding
        one without (the event engine) get a
        :class:`~repro.errors.ConfigurationError` and should fall back
        to per-kernel grids.

        Unexpected engine failures are wrapped in a
        :class:`~repro.errors.SimulationError`; whole-study evaluation
        cannot attribute a failure to one kernel, so the sweep layer
        retries kernel by kernel to isolate and quarantine the culprit.
        """
        if self._study is None:
            raise ConfigurationError(
                "whole-study batching requires a study-capable engine, "
                f"and {self._name!r} has none in its family"
            )
        pack = (
            kernels
            if isinstance(kernels, KernelPack)
            else memoized_pack(kernels)
        )
        record_engine_call(self._name)
        try:
            return self._study.simulate_study(pack, space)
        except ReproError:
            raise
        except Exception as exc:
            raise SimulationError(
                "<study>", f"{type(exc).__name__}: {exc}"
            ) from exc

    def _point_grid(
        self, kernel: Kernel, space: GridSpace
    ) -> KernelGridResult:
        """Point-by-point grid evaluation through :meth:`simulate`.

        The generic grid -> point degradation: the reference-oracle
        evaluation order for the interval family, and the only grid
        path for point-only engines (event simulator, point-only
        registrations)."""
        shape = space.shape
        n_cu, n_eng, n_mem = shape
        time_s = np.empty(shape, dtype=np.float64)
        intervals = {
            name: np.zeros(shape, dtype=np.float64)
            for name in (
                "compute", "salu", "lds", "l2", "dram", "latency",
                "atomic", "barrier", "launch",
            )
        }
        l2_hit_rate = np.zeros(n_cu, dtype=np.float64)
        dram_bytes = np.zeros(n_cu, dtype=np.float64)
        occupancy = None
        for c in range(n_cu):
            for e in range(n_eng):
                for m in range(n_mem):
                    result = self.simulate(kernel, space.config(c, e, m))
                    time_s[c, e, m] = result.time_s
                    breakdown = getattr(result, "breakdown", None)
                    if breakdown is not None:
                        for name, value in breakdown.as_dict().items():
                            intervals[name][c, e, m] = value
                    if isinstance(result, KernelRunResult):
                        occupancy = result.occupancy
                        l2_hit_rate[c] = result.l2_hit_rate
                        dram_bytes[c] = result.dram_bytes
        return KernelGridResult(
            kernel_name=kernel.full_name,
            time_s=time_s,
            items_per_second=kernel.geometry.global_size / time_s,
            breakdown=GridBreakdown(
                **{f"{k}_s": v for k, v in intervals.items()}
            ),
            occupancy=occupancy,
            l2_hit_rate=l2_hit_rate,
            dram_bytes=dram_bytes,
            global_size=kernel.geometry.global_size,
        )

    def time_s(self, kernel: Kernel, config: HardwareConfig) -> float:
        """Execution time in seconds (convenience)."""
        return self.simulate(kernel, config).time_s

    def performance(self, kernel: Kernel, config: HardwareConfig) -> float:
        """Throughput in work-items/second (the sweep's metric)."""
        return self.simulate(kernel, config).items_per_second


def simulate(
    kernel: Kernel,
    config: HardwareConfig,
    engine: EngineSpec = "interval",
) -> SimulationResult:
    """Module-level convenience wrapper around :class:`GpuSimulator`."""
    return GpuSimulator(engine).simulate(kernel, config)
