"""Reference per-slice feature extraction, kept as a test oracle.

These are the one-slice-at-a-time definitions the batched feature pass
in :mod:`repro.taxonomy.features` replaced, copied unchanged. The
batched pass must reproduce them exactly (dataclass ``==``), so any
drift in a feature the taxonomy thresholds on shows up as a failing
equality rather than a silently moved label.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.errors import ClassificationError
from repro.sweep.dataset import ScalingDataset
from repro.sweep.views import Axis, AxisSlice, axis_slice
from repro.taxonomy.features import (
    KNEE_THRESHOLD,
    AxisFeatures,
    ScalingFeatures,
)




def _median3(curve: Tuple[float, ...]) -> Tuple[float, ...]:
    """3-point median filter, endpoints preserved.

    Identity on monotone curves (the common case), but removes
    single-point measurement noise and quantisation ripple that would
    otherwise flip threshold features (drop-from-peak, end slope) —
    see the ``benchmarks/test_ablation_noise.py`` robustness study.
    """
    if len(curve) < 3:
        return curve
    arr = np.asarray(curve, dtype=np.float64)
    windows = np.stack((arr[:-2], arr[1:-1], arr[2:]))
    middles = np.sort(windows, axis=0)[1]
    return (
        (curve[0],)
        + tuple(float(v) for v in middles)
        + (curve[-1],)
    )



def _tail_slope(
    knobs: Tuple[float, ...], speedup: Tuple[float, ...]
) -> float:
    """Log-log slope over the last half of the curve (OLS).

    The "is the knob still paying off at the top?" question is asked
    of noisy data in the original study's setting; a two-point end
    slope flips across thresholds under ~2% measurement noise. An
    ordinary-least-squares fit over the last ``ceil(n/2)`` points (at
    least two) averages that noise down while still localising the
    question to the top of the axis.
    """
    count = max(2, math.ceil(len(speedup) / 2))
    xs = np.log(np.asarray(knobs[-count:], dtype=np.float64))
    ys = np.log(
        np.maximum(np.asarray(speedup[-count:], dtype=np.float64), 1e-12)
    )
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    return float((dx * dy).sum() / (dx * dx).sum())


def axis_features_from_slice(slice_: AxisSlice) -> AxisFeatures:
    """Compute :class:`AxisFeatures` from one normalised slice."""
    knobs = slice_.knob_values
    if len(slice_.speedup) < 2:
        raise ClassificationError(
            f"axis {slice_.axis.value} has {len(slice_.speedup)} "
            "point(s); feature extraction needs at least 2"
        )
    speedup = _median3(slice_.speedup)

    gain = slice_.gain
    peak = max(speedup)
    peak_gain = slice_.peak_gain
    knob_ratio = slice_.knob_ratio

    elasticity = math.log(gain) / math.log(knob_ratio)
    end_elasticity = _tail_slope(knobs, speedup)

    knee_index = next(
        i for i, s in enumerate(speedup) if s >= KNEE_THRESHOLD * peak
    )
    knee_position = knee_index / (len(speedup) - 1)

    drop_from_peak = 1.0 - speedup[-1] / peak
    adjacent_drops = [
        1.0 - b / a for a, b in zip(speedup, speedup[1:]) if b < a
    ]
    max_adjacent_drop = max(adjacent_drops, default=0.0)

    return AxisFeatures(
        axis=slice_.axis,
        gain=gain,
        peak_gain=peak_gain,
        knob_ratio=knob_ratio,
        elasticity=elasticity,
        end_elasticity=end_elasticity,
        knee_position=knee_position,
        drop_from_peak=drop_from_peak,
        max_adjacent_drop=max_adjacent_drop,
    )


def extract_features(
    dataset: ScalingDataset, kernel_name: str
) -> ScalingFeatures:
    """Extract all scaling features for one kernel.

    Each axis slice pins the other two knobs at their maxima, matching
    the paper's presentation (and making the axes' effects comparable:
    every slice ends at the same flagship configuration).
    """
    per_axis = {
        axis: axis_features_from_slice(axis_slice(dataset, kernel_name, axis))
        for axis in Axis
    }
    cube = dataset.kernel_cube(kernel_name)
    end_to_end = float(cube[-1, -1, -1] / cube[0, 0, 0])
    return ScalingFeatures(
        kernel_name=kernel_name,
        cu=per_axis[Axis.CU],
        engine=per_axis[Axis.ENGINE],
        memory=per_axis[Axis.MEMORY],
        end_to_end_gain=end_to_end,
    )


def extract_all_features(
    dataset: ScalingDataset,
) -> Tuple[ScalingFeatures, ...]:
    """Features for every kernel row, in dataset order."""
    return tuple(
        extract_features(dataset, name) for name in dataset.kernel_names
    )
