"""Energy accounting: coupling the timing and power models.

For one kernel at one configuration, the interval model's breakdown
supplies the *activity factors* (how busy the compute domain and the
memory interface actually were), the power model converts those into
board power, and power x time gives energy. The surface path evaluates
the whole 891-point grid as one batch: activity factors come straight
from the batch interval terms and the power model broadcasts over the
lattice, so an energy surface costs one engine grid call instead of
891 point calls. The scalar :meth:`EnergyModel.evaluate` remains the
reference the surfaces are pinned against (rtol=1e-12 in
``tests/power/test_energy.py``).

Timing comes from the engine registry: ``EnergyModel(engine="...")``
accepts any registered engine name (or a prebuilt
:class:`~repro.gpu.simulator.GpuSimulator`), so energy analyses honour
the same fidelity tiers as everything else. Engines without an
interval breakdown (the discrete-event cross-check) contribute zero
activity factors and so price only the static/idle power floor — the
exact interval family is the calibrated path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.config import HardwareConfig
from repro.gpu.interval_model import IntervalModel
from repro.gpu.simulator import GpuSimulator
from repro.kernels.kernel import Kernel
from repro.power.model import DEFAULT_POWER_MODEL, PowerModel
from repro.sweep.space import PAPER_SPACE, ConfigurationSpace


@dataclass(frozen=True)
class EnergyResult:
    """Energy accounting of one kernel execution."""

    kernel_name: str
    config: HardwareConfig
    time_s: float
    power_w: float
    compute_activity: float
    memory_activity: float
    global_size: int

    @property
    def energy_j(self) -> float:
        """Energy consumed by the execution, in joules."""
        return self.time_s * self.power_w

    @property
    def edp(self) -> float:
        """Energy-delay product (J*s) — the classic DVFS objective."""
        return self.energy_j * self.time_s

    @property
    def items_per_joule(self) -> float:
        """Work-items completed per joule (energy efficiency)."""
        return self.global_size / self.energy_j


@dataclass(frozen=True)
class EnergySurface:
    """Time/power/energy of one kernel over a whole configuration grid.

    Arrays have ``space.shape`` (``(n_cu, n_eng, n_mem)``), indexed
    exactly like :meth:`ConfigurationSpace.config`.
    """

    kernel_name: str
    space: ConfigurationSpace
    time_s: np.ndarray
    power_w: np.ndarray
    energy_j: np.ndarray
    compute_activity: np.ndarray
    memory_activity: np.ndarray
    global_size: int

    @property
    def edp(self) -> np.ndarray:
        """Energy-delay product (J*s) at every grid point."""
        return self.energy_j * self.time_s

    @property
    def items_per_second(self) -> np.ndarray:
        """Throughput at every grid point."""
        return self.global_size / self.time_s

    @property
    def items_per_joule(self) -> np.ndarray:
        """Energy efficiency at every grid point."""
        return self.global_size / self.energy_j

    def result_at(self, c: int, e: int, m: int) -> EnergyResult:
        """The scalar :class:`EnergyResult` view of one lattice point."""
        return EnergyResult(
            kernel_name=self.kernel_name,
            config=self.space.config(c, e, m),
            time_s=float(self.time_s[c, e, m]),
            power_w=float(self.power_w[c, e, m]),
            compute_activity=float(self.compute_activity[c, e, m]),
            memory_activity=float(self.memory_activity[c, e, m]),
            global_size=self.global_size,
        )


def _activities(result) -> Tuple[float, float]:
    """Derive (compute, memory) activity factors from a timing result.

    Each domain's activity is the fraction of the kernel's runtime its
    bottleneck interval would occupy alone — a busy-time approximation
    that is exact when the interval dominates and conservative when it
    overlaps. Results without an interval breakdown (the event engine's)
    contribute zero switching activity.
    """
    breakdown = getattr(result, "breakdown", None)
    if breakdown is None:
        return 0.0, 0.0
    compute_busy = breakdown.compute_s + breakdown.salu_s + breakdown.lds_s
    compute_activity = min(1.0, compute_busy / result.time_s)
    memory_activity = min(1.0, breakdown.dram_s / result.time_s)
    return compute_activity, memory_activity


class EnergyModel:
    """Energy evaluation of kernels across configurations.

    Timing is supplied either by a legacy point model
    (*timing_model*, the scalar interval oracle) or by the engine
    registry (*engine* name / prebuilt *simulator*); the default is the
    ``"interval"`` registry engine, whose grid calls resolve to the
    vectorized batch sibling.
    """

    def __init__(
        self,
        power_model: Optional[PowerModel] = None,
        timing_model: Optional[IntervalModel] = None,
        engine: Optional[str] = None,
        simulator: Optional[GpuSimulator] = None,
    ):
        if timing_model is not None and (
            engine is not None or simulator is not None
        ):
            raise ConfigurationError(
                "pass either timing_model or engine/simulator, not both"
            )
        if engine is not None and simulator is not None:
            raise ConfigurationError(
                "pass either engine or simulator, not both"
            )
        self._power = power_model or DEFAULT_POWER_MODEL
        self._timing = timing_model
        if timing_model is None:
            self._simulator = simulator or GpuSimulator(
                engine or "interval"
            )
        else:
            self._simulator = None

    @property
    def power_model(self) -> PowerModel:
        """The board-power model energy is priced with."""
        return self._power

    @property
    def simulator(self) -> Optional[GpuSimulator]:
        """The registry-backed simulator (None in legacy point mode)."""
        return self._simulator

    def evaluate(
        self, kernel: Kernel, config: HardwareConfig
    ) -> EnergyResult:
        """Time, power and energy of *kernel* at *config*."""
        if self._simulator is not None:
            result = self._simulator.simulate(kernel, config)
        else:
            result = self._timing.simulate(kernel, config)
        compute_activity, memory_activity = _activities(result)
        power = self._power.board_power_w(
            config, compute_activity, memory_activity
        )
        return EnergyResult(
            kernel_name=kernel.full_name,
            config=config,
            time_s=result.time_s,
            power_w=power,
            compute_activity=compute_activity,
            memory_activity=memory_activity,
            global_size=kernel.geometry.global_size,
        )

    def surfaces(
        self,
        kernel: Kernel,
        space: ConfigurationSpace = PAPER_SPACE,
    ) -> EnergySurface:
        """Time/power/energy of *kernel* over all of *space* at once.

        One engine grid call supplies the batch interval terms; the
        activity-factor and power arithmetic mirrors the scalar path
        operation by operation, so on the interval family every element
        matches :meth:`evaluate` to the batch engine's rtol=1e-12
        equivalence bound.
        """
        if self._simulator is None:
            return self._surfaces_scalar(kernel, space)
        grid = self._simulator.simulate_grid(kernel, space)
        breakdown = grid.breakdown
        compute_busy = (
            breakdown.compute_s + breakdown.salu_s + breakdown.lds_s
        )
        compute_activity = np.minimum(
            1.0, compute_busy / grid.time_s
        )
        memory_activity = np.minimum(
            1.0, breakdown.dram_s / grid.time_s
        )
        compute_activity = np.ascontiguousarray(
            np.broadcast_to(compute_activity, space.shape)
        )
        memory_activity = np.ascontiguousarray(
            np.broadcast_to(memory_activity, space.shape)
        )
        power_w = self._power.board_power_surface(
            space, compute_activity, memory_activity
        )
        time_s = np.ascontiguousarray(grid.time_s, dtype=np.float64)
        energy_j = time_s * power_w
        return EnergySurface(
            kernel_name=kernel.full_name,
            space=space,
            time_s=time_s,
            power_w=power_w,
            energy_j=energy_j,
            compute_activity=compute_activity,
            memory_activity=memory_activity,
            global_size=grid.global_size,
        )

    def _surfaces_scalar(
        self, kernel: Kernel, space: ConfigurationSpace
    ) -> EnergySurface:
        """Point-loop surface fallback for legacy point-only timing."""
        n_cu, n_eng, n_mem = space.shape
        time_s = np.empty(space.shape, dtype=np.float64)
        power_w = np.empty(space.shape, dtype=np.float64)
        compute_activity = np.empty(space.shape, dtype=np.float64)
        memory_activity = np.empty(space.shape, dtype=np.float64)
        for c in range(n_cu):
            for e in range(n_eng):
                for m in range(n_mem):
                    result = self.evaluate(kernel, space.config(c, e, m))
                    time_s[c, e, m] = result.time_s
                    power_w[c, e, m] = result.power_w
                    compute_activity[c, e, m] = result.compute_activity
                    memory_activity[c, e, m] = result.memory_activity
        return EnergySurface(
            kernel_name=kernel.full_name,
            space=space,
            time_s=time_s,
            power_w=power_w,
            energy_j=time_s * power_w,
            compute_activity=compute_activity,
            memory_activity=memory_activity,
            global_size=kernel.geometry.global_size,
        )

    def energy_cube(
        self,
        kernel: Kernel,
        space: ConfigurationSpace = PAPER_SPACE,
    ) -> np.ndarray:
        """Energy (J) of *kernel* at every configuration of *space*."""
        return self.surfaces(kernel, space).energy_j

    def time_and_energy_cubes(
        self,
        kernel: Kernel,
        space: ConfigurationSpace = PAPER_SPACE,
    ) -> tuple:
        """(time, energy) cubes in one pass over the space."""
        surface = self.surfaces(kernel, space)
        return surface.time_s, surface.energy_j
