"""Axis views: slices, surfaces, normalisation."""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.sweep import (
    Axis,
    axis_lines,
    axis_slice,
    axis_values,
    clock_surface,
    end_to_end_speedups,
    normalised_cube,
)


class TestAxisLines:
    def test_rows_are_default_slices(self, archetype_dataset):
        names = archetype_dataset.kernel_names
        for axis in Axis:
            lines = axis_lines(archetype_dataset, axis)
            assert lines.shape == (
                len(names), len(axis_values(archetype_dataset, axis))
            )
            for name, line in zip(names, lines):
                slice_ = axis_slice(archetype_dataset, name, axis)
                assert tuple(line.tolist()) == slice_.perf


class TestAxisSlice:
    def test_slice_lengths_match_axes(self, archetype_dataset):
        name = archetype_dataset.kernel_names[0]
        for axis in Axis:
            slice_ = axis_slice(archetype_dataset, name, axis)
            assert len(slice_.perf) == len(
                axis_values(archetype_dataset, axis)
            )

    def test_default_pins_other_axes_at_max(self, archetype_dataset):
        name = archetype_dataset.kernel_names[0]
        cube = archetype_dataset.kernel_cube(name)
        slice_ = axis_slice(archetype_dataset, name, Axis.CU)
        np.testing.assert_allclose(slice_.perf, cube[:, -1, -1])

    def test_explicit_fixed_indices(self, archetype_dataset):
        name = archetype_dataset.kernel_names[0]
        cube = archetype_dataset.kernel_cube(name)
        slice_ = axis_slice(archetype_dataset, name, Axis.ENGINE,
                            fixed=(0, 0))
        np.testing.assert_allclose(slice_.perf, cube[0, :, 0])

    def test_fixed_out_of_range(self, archetype_dataset):
        name = archetype_dataset.kernel_names[0]
        with pytest.raises(DatasetError):
            axis_slice(archetype_dataset, name, Axis.CU, fixed=(99, 0))

    def test_speedup_normalised_to_first_point(self, archetype_dataset):
        name = archetype_dataset.kernel_names[0]
        slice_ = axis_slice(archetype_dataset, name, Axis.MEMORY)
        assert slice_.speedup[0] == pytest.approx(1.0)

    def test_gain_and_peak_gain(self, archetype_dataset):
        name = archetype_dataset.kernel_names[0]
        slice_ = axis_slice(archetype_dataset, name, Axis.CU)
        assert slice_.peak_gain >= slice_.gain

    def test_knob_ratio(self, archetype_dataset):
        slice_ = axis_slice(
            archetype_dataset, archetype_dataset.kernel_names[0], Axis.CU
        )
        assert slice_.knob_ratio == pytest.approx(11.0)


class TestSurfacesAndCubes:
    def test_clock_surface_normalised(self, archetype_dataset):
        name = archetype_dataset.kernel_names[0]
        surface = clock_surface(archetype_dataset, name)
        assert surface[0, 0] == pytest.approx(1.0)
        n_cu, n_eng, n_mem = archetype_dataset.space.shape
        assert surface.shape == (n_eng, n_mem)

    def test_normalised_cube_base_corner(self, archetype_dataset):
        name = archetype_dataset.kernel_names[0]
        cube = normalised_cube(archetype_dataset, name)
        assert cube[0, 0, 0] == pytest.approx(1.0)

    def test_end_to_end_speedups_positive(self, archetype_dataset):
        speedups = end_to_end_speedups(archetype_dataset)
        assert speedups.shape == (archetype_dataset.num_kernels,)
        assert np.all(speedups > 0)
