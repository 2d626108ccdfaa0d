"""Feature extraction from scaling curves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ClassificationError
from repro.gpu.uarch import family_names
from repro.sweep.dataset import KernelRecord, ScalingDataset
from repro.sweep.space import ConfigurationSpace
from repro.sweep.views import Axis, AxisSlice, axis_slice
from repro.taxonomy import (
    axis_features_from_slice,
    categorise,
    classify,
    classify_axis,
    extract_all_features,
    extract_features,
)
from tests.taxonomy import feature_oracle


def make_slice(perf, knobs=None, axis=Axis.CU):
    knobs = knobs or tuple(float(4 * (i + 1)) for i in range(len(perf)))
    return AxisSlice(
        kernel_name="t/x.y", axis=axis,
        knob_values=tuple(knobs), perf=tuple(perf),
    )


class TestAxisFeatures:
    def test_perfectly_linear_curve(self):
        knobs = (4.0, 8.0, 16.0, 44.0)
        perf = knobs  # speedup == knob ratio
        features = axis_features_from_slice(make_slice(perf, knobs))
        assert features.elasticity == pytest.approx(1.0)
        assert features.end_elasticity == pytest.approx(1.0)
        assert features.drop_from_peak == 0.0
        assert features.gain == pytest.approx(11.0)

    def test_flat_curve(self):
        features = axis_features_from_slice(
            make_slice((10.0, 10.0, 10.0, 10.0))
        )
        assert features.gain == pytest.approx(1.0)
        assert features.elasticity == pytest.approx(0.0)
        assert features.knee_position == 0.0

    def test_saturating_curve_has_early_knee(self):
        features = axis_features_from_slice(
            make_slice((1.0, 2.0, 2.05, 2.05, 2.05))
        )
        assert features.knee_position <= 0.5
        assert features.end_elasticity == pytest.approx(0.0, abs=0.01)

    def test_inverse_curve_drop_from_peak(self):
        # The 3-point median filter turns (1, 2, 1.5, 1) into
        # (1, 1.5, 1.5, 1): sustained peak 1.5, end 1.0.
        features = axis_features_from_slice(
            make_slice((1.0, 2.0, 1.5, 1.0))
        )
        assert features.drop_from_peak == pytest.approx(1.0 / 3.0)
        assert features.max_adjacent_drop > 0.2

    def test_single_point_spike_ignored(self):
        """Median filtering: an isolated spike is measurement noise,
        not an inverse-scaling signal."""
        features = axis_features_from_slice(
            make_slice((1.0, 1.5, 3.0, 1.6, 1.7))
        )
        assert features.drop_from_peak == 0.0

    def test_single_point_dip_ignored(self):
        features = axis_features_from_slice(
            make_slice((1.0, 1.5, 1.1, 1.6, 1.7))
        )
        assert features.max_adjacent_drop == 0.0

    def test_monotone_curve_has_zero_adjacent_drop(self):
        features = axis_features_from_slice(
            make_slice((1.0, 1.5, 2.0, 2.5))
        )
        assert features.max_adjacent_drop == 0.0

    def test_single_point_slice_rejected(self):
        with pytest.raises(ClassificationError):
            axis_features_from_slice(make_slice((1.0,), (4.0,)))

    def test_elasticity_uses_knob_ratio(self):
        # Doubling over an 11x knob is weak scaling.
        features = axis_features_from_slice(
            make_slice((1.0, 1.3, 1.7, 2.0), (4.0, 12.0, 28.0, 44.0))
        )
        expected = math.log(2.0) / math.log(11.0)
        assert features.elasticity == pytest.approx(expected)


class TestExtractFeatures:
    def test_features_cover_three_axes(self, archetype_dataset):
        name = archetype_dataset.kernel_names[0]
        features = extract_features(archetype_dataset, name)
        assert features.cu.axis is Axis.CU
        assert features.engine.axis is Axis.ENGINE
        assert features.memory.axis is Axis.MEMORY

    def test_end_to_end_gain_matches_cube(self, archetype_dataset):
        name = archetype_dataset.kernel_names[0]
        features = extract_features(archetype_dataset, name)
        cube = archetype_dataset.kernel_cube(name)
        assert features.end_to_end_gain == pytest.approx(
            float(cube[-1, -1, -1] / cube[0, 0, 0])
        )

    def test_as_dict_flattens_all_axes(self, archetype_dataset):
        name = archetype_dataset.kernel_names[0]
        flat = extract_features(archetype_dataset, name).as_dict()
        for prefix in ("cu", "engine", "memory"):
            assert f"{prefix}_gain" in flat
            assert f"{prefix}_elasticity" in flat


class TestVectorizedHelpers:
    """The batched ``_median3``/``_tail_slope`` against their original
    pure-Python definitions: the median filter must be exact; the OLS
    slope agrees to 1 ulp (NumPy's SIMD ``log`` can differ from libm's
    by one bit on rare inputs — verified label-preserving over the full
    catalog in the study engine tests)."""

    @staticmethod
    def _median3_ref(curve):
        if len(curve) < 3:
            return curve
        out = [curve[0]]
        for i in range(1, len(curve) - 1):
            out.append(sorted((curve[i - 1], curve[i], curve[i + 1]))[1])
        out.append(curve[-1])
        return tuple(out)

    @staticmethod
    def _tail_slope_ref(knobs, speedup):
        count = max(2, math.ceil(len(speedup) / 2))
        xs = [math.log(k) for k in knobs[-count:]]
        ys = [math.log(max(s, 1e-12)) for s in speedup[-count:]]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        var_x = sum((x - mean_x) ** 2 for x in xs)
        cov = sum(
            (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
        )
        return cov / var_x

    def test_median3_matches_reference_exactly(self):
        import itertools

        from repro.taxonomy.features import _median3

        values = (0.7, 1.0, 1.3, 1.31, 2.5, 0.2)
        for n in (1, 2, 3, 5):
            curves = list(itertools.permutations(values, n))
            smoothed = _median3(np.array(curves))
            for curve, row in zip(curves, smoothed.tolist()):
                assert tuple(row) == self._median3_ref(curve)

    def test_median3_short_curves_are_identity(self):
        from repro.taxonomy.features import _median3

        assert _median3(np.array([[1.0]])).tolist() == [[1.0]]
        assert _median3(np.array([[1.0, 2.0]])).tolist() == [[1.0, 2.0]]

    def test_tail_slope_matches_reference_within_ulp(self):
        from repro.taxonomy.features import _tail_slope

        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 6, 11):
            knobs = np.sort(rng.uniform(100.0, 1500.0, size=(200, n)))
            speedup = rng.uniform(0.0, 8.0, size=(200, n))
            # One knob vector per curve, and one for all curves at once.
            for k, s in zip(knobs, speedup):
                got = _tail_slope(k, s[np.newaxis])[0]
                want = self._tail_slope_ref(tuple(k), tuple(s))
                assert got == pytest.approx(want, rel=1e-13, abs=1e-13)
            for got, s in zip(_tail_slope(knobs[0], speedup), speedup):
                want = self._tail_slope_ref(tuple(knobs[0]), tuple(s))
                assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_full_catalog_features_unchanged(self):
        """The vectorization must not move any feature the taxonomy
        thresholds read, across every catalog kernel's curves."""
        from repro.gpu import GpuSimulator
        from repro.suites import all_kernels
        from repro.sweep import PAPER_SPACE
        from repro.sweep.views import axis_values
        from repro.taxonomy.features import _median3, _tail_slope

        kernels = all_kernels()
        study = GpuSimulator().simulate_study(kernels, PAPER_SPACE)
        perf = study.items_per_second
        dataset = ScalingDataset(
            PAPER_SPACE,
            [KernelRecord.from_full_name(k.full_name) for k in kernels],
            perf,
        )
        worst = 0.0
        for axis in Axis:
            knobs = axis_values(dataset, axis)
            lines = np.array([
                axis_slice(dataset, k.full_name, axis).perf for k in kernels
            ])
            smoothed = _median3(lines / lines[:, :1])
            slopes = _tail_slope(np.asarray(knobs), smoothed)
            for line, row, got in zip(lines, smoothed, slopes):
                speedup = tuple(float(p / line[0]) for p in line)
                assert tuple(row.tolist()) == self._median3_ref(speedup)
                want = self._tail_slope_ref(knobs, tuple(row.tolist()))
                worst = max(worst, abs(got - want))
        assert worst < 1e-15


def _oracle_labels(dataset):
    """Labels from the per-slice oracle's features."""
    labels = []
    for features in feature_oracle.extract_all_features(dataset):
        cu, engine, memory = (
            classify_axis(features.axis_features(axis)) for axis in Axis
        )
        labels.append((
            features.kernel_name,
            categorise(features, cu, engine, memory),
            (cu, engine, memory),
        ))
    return labels


def _labels(result):
    return [
        (label.kernel_name, label.category, label.behaviours)
        for label in result.labels
    ]


@pytest.fixture(scope="module", params=family_names())
def family_dataset(request):
    """The whole catalog on one family's canonical grid."""
    from repro.gpu.interval_batch import BatchIntervalModel
    from repro.gpu.uarch import get_family
    from repro.kernels.pack import KernelPack
    from repro.suites import all_kernels

    kernels = all_kernels()
    space = get_family(request.param).space
    study = BatchIntervalModel().simulate_study(
        KernelPack.from_kernels(kernels), space
    )
    return ScalingDataset(
        space,
        [KernelRecord.from_full_name(k.full_name) for k in kernels],
        study.items_per_second,
    )


class TestBatchedMatchesOracle:
    """The batched pass reproduces the per-slice definitions exactly."""

    def test_catalog_features_equal(self, family_dataset):
        assert extract_all_features(family_dataset) == (
            feature_oracle.extract_all_features(family_dataset)
        )

    def test_no_kernel_name_is_the_batched_pass(self, family_dataset):
        assert extract_features(family_dataset) == (
            extract_all_features(family_dataset)
        )

    def test_catalog_labels_equal(self, family_dataset):
        assert _labels(classify(family_dataset)) == (
            _oracle_labels(family_dataset)
        )

    def test_one_row_path_equal(self, family_dataset):
        for name in family_dataset.kernel_names[::37]:
            assert extract_features(family_dataset, name) == (
                feature_oracle.extract_features(family_dataset, name)
            )
            sl = axis_slice(family_dataset, name, Axis.MEMORY)
            assert axis_features_from_slice(sl) == (
                feature_oracle.axis_features_from_slice(sl)
            )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_generated_datasets_equal(self, data):
        def knob_axis(integers):
            values = data.draw(
                st.lists(
                    st.integers(1, 4000) if integers
                    else st.floats(10.0, 4000.0),
                    min_size=2, max_size=11, unique=True,
                )
            )
            return tuple(sorted(values))

        space = ConfigurationSpace(
            cu_counts=knob_axis(True),
            engine_mhz=knob_axis(False),
            memory_mhz=knob_axis(False),
        )
        n_kernels = data.draw(st.integers(1, 4))
        perf = data.draw(
            arrays(
                np.float64,
                (n_kernels,) + space.shape,
                elements=st.floats(1e-3, 1e6),
            )
        )
        dataset = ScalingDataset(
            space,
            [KernelRecord.from_full_name(f"h/p.k{i}")
             for i in range(n_kernels)],
            perf,
        )
        # Compared by repr, which is exact for floats and also matches
        # NaN with NaN: knob values equal in log (10.0 and
        # 10.000000000000002) give a 0/0 tail slope on both sides.
        assert repr(extract_all_features(dataset)) == repr(
            feature_oracle.extract_all_features(dataset)
        )
        assert _labels(classify(dataset)) == _oracle_labels(dataset)
