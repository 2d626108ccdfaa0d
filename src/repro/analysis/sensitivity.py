"""Per-axis sensitivity indices.

A compact answer to "which knob should this kernel's user buy?": the
share of a kernel's (log-space) responsiveness attributable to each
knob. Sensitivities are computed from the axis elasticities, normalised
to sum to 1 for responsive kernels; fully unresponsive kernels get all
zeros (buying any knob is wasted money — the plateau class).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.sweep.dataset import ScalingDataset
from repro.taxonomy.features import ScalingFeatures, extract_features

#: Elasticities below this count as zero (noise floor).
ELASTICITY_FLOOR = 0.02


@dataclass(frozen=True)
class SensitivityIndex:
    """Normalised per-knob sensitivity of one kernel (sums to 1 or 0)."""

    kernel_name: str
    cu: float
    engine: float
    memory: float

    @property
    def as_tuple(self) -> Tuple[float, float, float]:
        """(CU, engine, memory) shares."""
        return (self.cu, self.engine, self.memory)

    @property
    def dominant_knob(self) -> str:
        """The knob with the largest share ('none' for plateaus)."""
        shares = {
            "cu": self.cu,
            "engine": self.engine,
            "memory": self.memory,
        }
        best = max(shares, key=shares.__getitem__)
        return best if shares[best] > 0.0 else "none"

    @property
    def is_unresponsive(self) -> bool:
        """True when no knob moves the kernel at all."""
        return self.cu == self.engine == self.memory == 0.0


def sensitivity_from_features(
    features: ScalingFeatures,
) -> SensitivityIndex:
    """Compute the index from already-extracted features."""
    raw = np.array(
        [
            features.cu.elasticity,
            features.engine.elasticity,
            features.memory.elasticity,
        ]
    )
    raw = np.where(raw < ELASTICITY_FLOOR, 0.0, raw)
    total = raw.sum()
    shares = raw / total if total > 0 else raw
    return SensitivityIndex(
        kernel_name=features.kernel_name,
        cu=float(shares[0]),
        engine=float(shares[1]),
        memory=float(shares[2]),
    )


def kernel_sensitivity(
    dataset: ScalingDataset, kernel_name: str
) -> SensitivityIndex:
    """Sensitivity index of one kernel."""
    return sensitivity_from_features(extract_features(dataset, kernel_name))


def all_sensitivities(
    dataset: ScalingDataset,
) -> Dict[str, SensitivityIndex]:
    """Sensitivity indices for every kernel, keyed by full name."""
    return {
        features.kernel_name: sensitivity_from_features(features)
        for features in extract_features(dataset)
    }


def dominant_knob_histogram(dataset: ScalingDataset) -> Dict[str, int]:
    """How many kernels each knob dominates (plus 'none')."""
    histogram = {"cu": 0, "engine": 0, "memory": 0, "none": 0}
    for index in all_sensitivities(dataset).values():
        histogram[index.dominant_knob] += 1
    return histogram
