"""Pareto-frontier utilities over the configuration space.

Provisioning questions rarely have a single answer: a buyer trades
performance against power (or cost) and wants the *frontier* — every
configuration not dominated on both axes. These helpers extract
per-kernel frontiers from performance and cost surfaces, the structure
behind the design-space-exploration example and the energy analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.gpu.config import HardwareConfig
from repro.power.energy import EnergyModel
from repro.sweep.dataset import ScalingDataset


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated configuration."""

    config: HardwareConfig
    performance: float
    cost: float

    @property
    def value(self) -> float:
        """Performance per unit cost."""
        return self.performance / self.cost


def pareto_front(
    points: Sequence[Tuple[HardwareConfig, float, float]],
) -> List[ParetoPoint]:
    """Non-dominated subset of (config, performance, cost) triples.

    A point dominates another when it has >= performance at <= cost
    with at least one strict inequality. The result is sorted by cost
    ascending (and therefore performance ascending: any non-monotone
    step would be dominated).
    """
    if not points:
        raise AnalysisError("pareto_front needs at least one point")
    ordered = sorted(points, key=lambda p: (p[2], -p[1]))
    front: List[ParetoPoint] = []
    best_perf = -np.inf
    for config, performance, cost in ordered:
        if performance > best_perf:
            front.append(
                ParetoPoint(
                    config=config, performance=performance, cost=cost
                )
            )
            best_perf = performance
    return front


def performance_power_front(
    dataset: ScalingDataset,
    kernel_name: str,
    energy_model: Optional[EnergyModel] = None,
) -> List[ParetoPoint]:
    """The (performance, board power) frontier of one measured kernel.

    Power is evaluated with the kernel's own activity factors at each
    configuration, so an idle memory interface is not charged; the
    whole power surface comes from one :meth:`EnergyModel.surfaces`
    call.
    """
    from repro.suites import kernel_by_name

    energy_model = energy_model or EnergyModel()
    kernel = kernel_by_name(kernel_name)
    cube = dataset.kernel_cube(kernel_name)
    space = dataset.space
    power_w = energy_model.surfaces(kernel, space).power_w
    return pareto_front([
        (space.config(*index), float(cube[index]), float(power_w[index]))
        for index in np.ndindex(space.shape)
    ])


def knee_point(front: Sequence[ParetoPoint]) -> ParetoPoint:
    """The frontier's knee: maximum perpendicular distance from the
    chord between the frontier's endpoints (normalised axes).

    The knee is the classic "sweet spot" recommendation — beyond it,
    each extra watt buys visibly less performance.
    """
    if not front:
        raise AnalysisError("knee_point needs a non-empty frontier")
    if len(front) <= 2:
        return front[0]
    perf = np.array([p.performance for p in front])
    cost = np.array([p.cost for p in front])
    perf_n = (perf - perf.min()) / max(perf.max() - perf.min(), 1e-12)
    cost_n = (cost - cost.min()) / max(cost.max() - cost.min(), 1e-12)
    # Distance from the line through (0,0) and (1,1): |p - c| / sqrt(2).
    distance = perf_n - cost_n
    return front[int(np.argmax(distance))]
