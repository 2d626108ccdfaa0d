"""Energy-aware DVFS optimisation over the configuration space.

Answers the question the knobs exist for: given a kernel (or the
taxonomy category it belongs to), which point of the 891-configuration
space minimises energy, minimises energy-delay product, or maximises
performance under a power cap? The taxonomy predicts the answers'
*structure*: compute-bound kernels race-to-idle near the top states;
plateau kernels should run at the bottom of every knob; bandwidth-bound
kernels want memory clock but not engine clock.

The search itself is one argmin over the kernel's
:class:`~repro.power.energy.EnergySurface` (one engine grid call), with
the same first-minimum tie-break and power-cap semantics the original
point loop had: row-major grid order, configurations above the cap
excluded before costing. :func:`select_optimum` and
:func:`frontier_points` operate on bare arrays so the serving layer can
run the identical selection on fleet-returned surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import AnalysisError, ConfigurationError
from repro.gpu.config import HardwareConfig
from repro.kernels.kernel import Kernel
from repro.power.energy import EnergyModel
from repro.sweep.space import PAPER_SPACE, ConfigurationSpace


class Objective(Enum):
    """Supported DVFS objectives."""

    MIN_ENERGY = "min_energy"
    MIN_EDP = "min_edp"
    MAX_PERF = "max_perf"


@dataclass(frozen=True)
class OperatingPoint:
    """An optimisation result: the chosen configuration and its cost."""

    kernel_name: str
    objective: Objective
    config: HardwareConfig
    time_s: float
    energy_j: float
    power_w: Optional[float] = None

    @property
    def edp(self) -> float:
        """Energy-delay product at the chosen point."""
        return self.energy_j * self.time_s


@dataclass(frozen=True)
class FrontierPoint:
    """One non-dominated (time, energy) configuration."""

    config: HardwareConfig
    time_s: float
    energy_j: float
    power_w: float

    @property
    def edp(self) -> float:
        """Energy-delay product at this frontier point."""
        return self.energy_j * self.time_s


def _cost_surface(
    time_s: np.ndarray, energy_j: np.ndarray, objective: Objective
) -> np.ndarray:
    if objective is Objective.MIN_ENERGY:
        return energy_j
    if objective is Objective.MIN_EDP:
        return energy_j * time_s
    if objective is Objective.MAX_PERF:
        return time_s
    raise AnalysisError(f"unknown objective {objective!r}")


def select_optimum(
    time_s: np.ndarray,
    energy_j: np.ndarray,
    power_w: np.ndarray,
    objective: Objective,
    power_cap_w: Optional[float] = None,
) -> Tuple[int, int, int]:
    """Grid coordinate of the best configuration under *objective*.

    Mirrors the original exhaustive loop exactly: configurations whose
    modelled power exceeds the cap are excluded, cost ties keep the
    first configuration in row-major grid order, and an unsatisfiable
    cap raises :class:`AnalysisError`.
    """
    cost = np.asarray(
        _cost_surface(time_s, energy_j, objective), dtype=np.float64
    )
    if power_cap_w is not None:
        eligible = power_w <= power_cap_w
        if not np.any(eligible):
            raise AnalysisError(
                f"no configuration satisfies power cap {power_cap_w} W"
            )
        cost = np.where(eligible, cost, np.inf)
    flat = int(np.argmin(cost))
    c, e, m = np.unravel_index(flat, cost.shape)
    return int(c), int(e), int(m)


def frontier_indices(
    time_s: np.ndarray,
    energy_j: np.ndarray,
    power_w: np.ndarray,
    power_cap_w: Optional[float] = None,
) -> List[Tuple[int, int, int]]:
    """Grid coordinates of the (time, energy) Pareto frontier.

    A configuration survives when nothing eligible is at least as fast
    *and* at least as frugal with one strict improvement. The sweep is
    deterministic: candidates sort by (energy, time, flat index), and
    only strictly faster points extend the frontier, so exact ties keep
    the first row-major configuration. Results come back sorted by
    energy ascending (equivalently time descending).
    """
    flat_time = np.asarray(time_s, dtype=np.float64).ravel()
    flat_energy = np.asarray(energy_j, dtype=np.float64).ravel()
    flat_power = np.asarray(power_w, dtype=np.float64).ravel()
    indices = np.arange(flat_time.size)
    if power_cap_w is not None:
        eligible = flat_power <= power_cap_w
        if not np.any(eligible):
            raise AnalysisError(
                f"no configuration satisfies power cap {power_cap_w} W"
            )
        indices = indices[eligible]
    order = sorted(
        indices,
        key=lambda i: (flat_energy[i], flat_time[i], i),
    )
    shape = np.asarray(time_s).shape
    front: List[Tuple[int, int, int]] = []
    best_time = np.inf
    for i in order:
        if flat_time[i] < best_time:
            best_time = flat_time[i]
            c, e, m = np.unravel_index(int(i), shape)
            front.append((int(c), int(e), int(m)))
    return front


def frontier_points(
    space: ConfigurationSpace,
    time_s: np.ndarray,
    energy_j: np.ndarray,
    power_w: np.ndarray,
    power_cap_w: Optional[float] = None,
) -> List[FrontierPoint]:
    """The (time, energy) Pareto frontier as configuration points."""
    return [
        FrontierPoint(
            config=space.config(c, e, m),
            time_s=float(time_s[c, e, m]),
            energy_j=float(energy_j[c, e, m]),
            power_w=float(power_w[c, e, m]),
        )
        for c, e, m in frontier_indices(
            time_s, energy_j, power_w, power_cap_w
        )
    ]


class DvfsOptimizer:
    """Exhaustive DVFS-space optimisation (891 points is tiny).

    *engine* names any registered timing engine; it is shorthand for
    ``DvfsOptimizer(energy_model=EnergyModel(engine=...))``, so the
    optimiser prices whichever registered engine's timings it is given.
    """

    def __init__(
        self,
        energy_model: Optional[EnergyModel] = None,
        space: ConfigurationSpace = PAPER_SPACE,
        engine: Optional[str] = None,
    ):
        if energy_model is not None and engine is not None:
            raise ConfigurationError(
                "pass either energy_model or engine, not both"
            )
        self._energy = energy_model or EnergyModel(engine=engine)
        self._space = space

    @property
    def energy_model(self) -> EnergyModel:
        """The energy model the search prices configurations with."""
        return self._energy

    @property
    def space(self) -> ConfigurationSpace:
        """The configuration space the search covers."""
        return self._space

    def optimise(
        self,
        kernel: Kernel,
        objective: Objective = Objective.MIN_EDP,
        power_cap_w: Optional[float] = None,
    ) -> OperatingPoint:
        """The best operating point for *kernel* under *objective*.

        *power_cap_w*, when given, restricts the search to
        configurations whose board power stays at or below the cap;
        an unsatisfiable cap raises :class:`AnalysisError`.
        """
        surface = self._energy.surfaces(kernel, self._space)
        c, e, m = select_optimum(
            surface.time_s,
            surface.energy_j,
            surface.power_w,
            objective,
            power_cap_w,
        )
        return OperatingPoint(
            kernel_name=kernel.full_name,
            objective=objective,
            config=self._space.config(c, e, m),
            time_s=float(surface.time_s[c, e, m]),
            energy_j=float(surface.energy_j[c, e, m]),
            power_w=float(surface.power_w[c, e, m]),
        )

    def frontier(
        self,
        kernel: Kernel,
        power_cap_w: Optional[float] = None,
    ) -> List[FrontierPoint]:
        """The kernel's full (time, energy) Pareto frontier."""
        surface = self._energy.surfaces(kernel, self._space)
        return frontier_points(
            self._space,
            surface.time_s,
            surface.energy_j,
            surface.power_w,
            power_cap_w,
        )

    def race_to_idle_wins(self, kernel: Kernel) -> bool:
        """True when the flagship configuration is also (near-)energy
        optimal — the race-to-idle regime typical of compute-bound
        kernels with significant static power."""
        optimum, flagship = self._min_and_flagship_energy(kernel)
        return flagship <= 1.1 * optimum

    def energy_saving_vs_flagship(self, kernel: Kernel) -> float:
        """Fraction of energy the MIN_ENERGY point saves over running
        the kernel at the flagship configuration."""
        optimum, flagship = self._min_and_flagship_energy(kernel)
        return 1.0 - optimum / flagship

    def _min_and_flagship_energy(self, kernel: Kernel) -> Tuple[float, float]:
        """Energy (J) at the MIN_ENERGY point and at the flagship
        (largest-corner) configuration, read from one surface."""
        surface = self._energy.surfaces(kernel, self._space)
        c, e, m = select_optimum(
            surface.time_s, surface.energy_j, surface.power_w,
            Objective.MIN_ENERGY,
        )
        return (
            float(surface.energy_j[c, e, m]),
            float(surface.energy_j[-1, -1, -1]),
        )
