"""Scaling-feature extraction.

The taxonomy reduces each kernel's 891-point cube to a handful of
interpretable per-axis features computed on the *normalised speedup
curve* of each knob (other knobs pinned at maximum):

* **gain** — end-to-end speedup over the slice,
* **peak gain / drop from peak** — detects inverse scaling,
* **elasticity** — mean log-log slope ``ln(gain)/ln(knob ratio)``:
  1.0 means perfectly proportional scaling, 0.0 means insensitive,
* **end elasticity** — local log-log slope over the last segment:
  distinguishes "still rising" from "already saturated",
* **knee** — earliest position (fraction of the axis) where the curve
  reaches 95% of its maximum: small knees mean early saturation,
* **monotonicity violation** — largest relative drop between adjacent
  points.

All kernels are computed in one batched pass: :func:`_axis_features`
works on a whole ``(kernels, n)`` line matrix per axis
(:func:`repro.sweep.views.axis_lines`). One kernel and one slice are
the same pass over a one-row matrix.

These are the quantities the per-axis behaviour rules in
:mod:`repro.taxonomy.axis` threshold on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ClassificationError
from repro.sweep.dataset import ScalingDataset
from repro.sweep.views import (
    Axis,
    AxisSlice,
    axis_lines,
    axis_values,
    end_to_end_speedups,
)

#: A curve is "at its maximum" once it reaches this fraction of it.
KNEE_THRESHOLD = 0.95

@dataclass(frozen=True)
class AxisFeatures:
    """Scaling features of one kernel along one knob."""

    axis: Axis
    gain: float
    peak_gain: float
    knob_ratio: float
    elasticity: float
    end_elasticity: float
    knee_position: float
    drop_from_peak: float
    max_adjacent_drop: float

    @property
    def is_rising_at_end(self) -> bool:
        """True when the curve is still gaining at the axis maximum."""
        return self.end_elasticity > 0.0


@dataclass(frozen=True)
class ScalingFeatures:
    """All per-axis features of one kernel, plus cube-level summaries."""

    kernel_name: str
    cu: AxisFeatures
    engine: AxisFeatures
    memory: AxisFeatures
    end_to_end_gain: float

    def axis_features(self, axis: Axis) -> AxisFeatures:
        """Features for one axis."""
        return {
            Axis.CU: self.cu,
            Axis.ENGINE: self.engine,
            Axis.MEMORY: self.memory,
        }[axis]

    def as_dict(self) -> Dict[str, float]:
        """Flatten to a feature dict (used by clustering and reports)."""
        flat: Dict[str, float] = {"end_to_end_gain": self.end_to_end_gain}
        for features in (self.cu, self.engine, self.memory):
            prefix = features.axis.value
            flat[f"{prefix}_gain"] = features.gain
            flat[f"{prefix}_elasticity"] = features.elasticity
            flat[f"{prefix}_end_elasticity"] = features.end_elasticity
            flat[f"{prefix}_knee"] = features.knee_position
            flat[f"{prefix}_drop_from_peak"] = features.drop_from_peak
        return flat


def _median3(speedup: np.ndarray) -> np.ndarray:
    """Row-wise 3-point median filter, endpoints preserved.

    Identity on monotone curves (the common case), but removes
    single-point measurement noise and quantisation ripple that would
    otherwise flip threshold features (drop-from-peak, end slope) —
    see the ``benchmarks/test_ablation_noise.py`` robustness study.
    """
    windows = np.stack((speedup[:, :-2], speedup[:, 1:-1], speedup[:, 2:]))
    smoothed = speedup.copy()
    smoothed[:, 1:-1] = np.sort(windows, axis=0)[1]
    return smoothed


def _tail_slope(knobs: Sequence[float], speedup: np.ndarray) -> np.ndarray:
    """Row-wise log-log slope over the last half of each curve (OLS).

    The "is the knob still paying off at the top?" question is asked
    of noisy data in the original study's setting; a two-point end
    slope flips across thresholds under ~2% measurement noise. An
    ordinary-least-squares fit over the last ``ceil(n/2)`` points (at
    least two) averages that noise down while still localising the
    question to the top of the axis.
    """
    count = max(2, math.ceil(speedup.shape[1] / 2))
    xs = np.log(knobs[-count:])
    ys = np.log(np.maximum(speedup[:, -count:], 1e-12))
    # sum / count is exactly what ndarray.mean computes, minus its
    # per-call overhead (this runs once per axis per request).
    dx = xs - xs.sum() / count
    dy = ys - ys.sum(axis=1, keepdims=True) / count
    return (dx * dy).sum(axis=1) / (dx * dx).sum()


def _axis_features(
    axis: Axis, knob_values: Sequence[float], perf: np.ndarray
) -> List[AxisFeatures]:
    """:class:`AxisFeatures` of every row of a ``(kernels, n)`` line
    matrix along *axis*."""
    n = perf.shape[1]
    if n < 2:
        raise ClassificationError(
            f"axis {axis.value} has {n} point(s); "
            "feature extraction needs at least 2"
        )
    base = perf[:, :1]
    gain = perf[:, -1] / base[:, 0]
    peak_gain = perf.max(axis=1) / base[:, 0]
    knob_ratio = knob_values[-1] / knob_values[0]

    speedup = _median3(perf / base)
    peak = speedup.max(axis=1)
    end_elasticity = _tail_slope(knob_values, speedup)
    knee_position = (
        (speedup >= KNEE_THRESHOLD * peak[:, None]).argmax(axis=1)
        / (n - 1)
    )
    drop_from_peak = 1.0 - speedup[:, -1] / peak
    before, after = speedup[:, :-1], speedup[:, 1:]
    max_adjacent_drop = np.where(
        after < before, 1.0 - after / before, 0.0
    ).max(axis=1)

    # math.log, not np.log: the two differ in the last bit on rare
    # inputs, and elasticity sits right on the behaviour thresholds.
    log_ratio = math.log(knob_ratio)
    elasticity = [math.log(g) / log_ratio for g in gain.tolist()]
    columns = (  # AxisFeatures' fields after ``axis``, in order
        gain.tolist(), peak_gain.tolist(), [knob_ratio] * len(elasticity),
        elasticity, end_elasticity.tolist(), knee_position.tolist(),
        drop_from_peak.tolist(), max_adjacent_drop.tolist(),
    )
    return [AxisFeatures(axis, *row) for row in zip(*columns)]


def axis_features_from_slice(slice_: AxisSlice) -> AxisFeatures:
    """Compute :class:`AxisFeatures` from one normalised slice."""
    perf = np.asarray(slice_.perf, dtype=np.float64).reshape(1, -1)
    return _axis_features(slice_.axis, slice_.knob_values, perf)[0]


def extract_features(
    dataset: ScalingDataset, kernel_name: Optional[str] = None
) -> Union[ScalingFeatures, Tuple[ScalingFeatures, ...]]:
    """Extract all scaling features for one kernel, or for every kernel
    row (as :func:`extract_all_features`) when *kernel_name* is None.

    Each axis slice pins the other two knobs at their maxima, matching
    the paper's presentation (and making the axes' effects comparable:
    every slice ends at the same flagship configuration).
    """
    if kernel_name is None:
        rows, names = slice(None), dataset.kernel_names
    else:
        row = dataset.row_index(kernel_name)
        rows, names = slice(row, row + 1), [kernel_name]
    cu, engine, memory = (
        _axis_features(
            axis, axis_values(dataset, axis), axis_lines(dataset, axis)[rows]
        )
        for axis in Axis
    )
    end_to_end = end_to_end_speedups(dataset)[rows].tolist()
    features = tuple(
        ScalingFeatures(*fields)  # in declaration order
        for fields in zip(names, cu, engine, memory, end_to_end)
    )
    return features if kernel_name is None else features[0]


def extract_all_features(
    dataset: ScalingDataset,
) -> Tuple[ScalingFeatures, ...]:
    """Features for every kernel row, in dataset order, in one pass."""
    return extract_features(dataset)
