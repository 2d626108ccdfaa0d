"""Axis views over a scaling dataset.

The taxonomy reads three one-dimensional slices per kernel — vary one
knob, pin the other two (by default at their maxima, matching the
paper's presentation) — plus the (engine, memory) surface used for the
plateau analysis. All views return *normalised speedups* relative to
the slice's first point, which is the representation every downstream
feature works on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from repro.errors import DatasetError
from repro.sweep.dataset import ScalingDataset


class Axis(Enum):
    """The three swept hardware knobs."""

    CU = "cu"
    ENGINE = "engine"
    MEMORY = "memory"


#: Tensor dimension of each axis within a kernel cube.
_AXIS_DIM = {Axis.CU: 0, Axis.ENGINE: 1, Axis.MEMORY: 2}


@dataclass(frozen=True)
class AxisSlice:
    """One kernel's performance along one knob, other knobs pinned."""

    kernel_name: str
    axis: Axis
    knob_values: Tuple[float, ...]
    perf: Tuple[float, ...]

    @property
    def speedup(self) -> Tuple[float, ...]:
        """Performance normalised to the slice's first point."""
        base = self.perf[0]
        return tuple(p / base for p in self.perf)

    @property
    def gain(self) -> float:
        """End-to-end speedup across the slice (last over first)."""
        return self.perf[-1] / self.perf[0]

    @property
    def peak_gain(self) -> float:
        """Best point over the first point (differs from :attr:`gain`
        for non-monotonic, e.g. inverse-scaling, slices)."""
        return max(self.perf) / self.perf[0]

    @property
    def knob_ratio(self) -> float:
        """Dynamic range of the knob itself over the slice."""
        return self.knob_values[-1] / self.knob_values[0]


def axis_values(dataset: ScalingDataset, axis: Axis) -> Tuple[float, ...]:
    """Knob values along *axis* in this dataset's space."""
    space = dataset.space
    if axis is Axis.CU:
        return tuple(float(c) for c in space.cu_counts)
    if axis is Axis.ENGINE:
        return space.engine_mhz
    return space.memory_mhz


def axis_slice(
    dataset: ScalingDataset,
    kernel_name: str,
    axis: Axis,
    fixed: Optional[Tuple[int, int]] = None,
) -> AxisSlice:
    """Slice one kernel along *axis*.

    *fixed* pins the other two axes by index, in cube-dimension order
    with *axis* removed; ``None`` pins both at their maxima (the
    paper's default presentation: scale one knob with the others at
    full speed).
    """
    cube = dataset.kernel_cube(kernel_name)
    dim = _AXIS_DIM[axis]
    other_dims = [d for d in range(3) if d != dim]
    if fixed is None:
        fixed = tuple(cube.shape[d] - 1 for d in other_dims)
    if len(fixed) != 2:
        raise DatasetError(f"fixed must pin exactly 2 axes, got {fixed!r}")
    for d, idx in zip(other_dims, fixed):
        if not 0 <= idx < cube.shape[d]:
            raise DatasetError(
                f"fixed index {idx} outside axis of length {cube.shape[d]}"
            )

    indexer: list = [slice(None)] * 3
    for d, idx in zip(other_dims, fixed):
        indexer[d] = idx
    line = cube[tuple(indexer)]
    return AxisSlice(
        kernel_name=kernel_name,
        axis=axis,
        knob_values=axis_values(dataset, axis),
        perf=tuple(float(v) for v in line),
    )


def axis_lines(dataset: ScalingDataset, axis: Axis) -> np.ndarray:
    """Every kernel's performance along *axis*, the other two knobs at
    their maxima: a ``(kernels, n)`` view of the perf tensor whose rows
    are the :func:`axis_slice` default lines."""
    index: list = [slice(None), -1, -1, -1]
    index[_AXIS_DIM[axis] + 1] = slice(None)
    return dataset.perf[tuple(index)]


def clock_surface(
    dataset: ScalingDataset,
    kernel_name: str,
    cu_index: int = -1,
) -> np.ndarray:
    """The (engine, memory) performance surface at one CU setting,
    normalised to its (min engine, min memory) corner.

    This is the view behind the paper's plateau observation: plateau
    kernels stay near 1.0 across the whole surface.
    """
    cube = dataset.kernel_cube(kernel_name)
    surface = cube[cu_index]
    return surface / surface[0, 0]


def normalised_cube(
    dataset: ScalingDataset, kernel_name: str
) -> np.ndarray:
    """A kernel's full cube normalised to the smallest configuration."""
    cube = dataset.kernel_cube(kernel_name)
    return cube / cube[0, 0, 0]


def end_to_end_speedups(dataset: ScalingDataset) -> np.ndarray:
    """Speedup of the largest over the smallest configuration, for
    every kernel (the paper's headline per-kernel scaling summary)."""
    perf = dataset.perf
    return perf[:, -1, -1, -1] / perf[:, 0, 0, 0]
