"""SweepRunner: dataset collection over kernels x configurations."""

from types import SimpleNamespace

import pytest

import numpy as np

from repro.errors import DatasetError, SimulationError
from repro.gpu import GpuSimulator
from repro.kernels import compute_kernel, streaming_kernel
from repro.sweep import SweepRunner, reduced_space


@pytest.fixture
def space():
    return reduced_space(4, 4, 4)


class TestRun:
    def test_dataset_dimensions(self, space):
        kernels = [compute_kernel("a", suite="t"),
                   streaming_kernel("b", suite="t")]
        dataset = SweepRunner().run(kernels, space)
        assert dataset.perf.shape == (2,) + space.shape
        assert dataset.kernel_names == ["t/a.main", "t/b.main"]

    def test_values_match_direct_simulation(self, space):
        kernel = compute_kernel("a", suite="t")
        dataset = SweepRunner().run([kernel], space)
        sim = GpuSimulator()
        config = space.config(1, 1, 1)
        expected = sim.performance(kernel, config)
        assert dataset.perf[0, 1, 1, 1] == pytest.approx(expected)

    def test_empty_kernel_list_rejected(self, space):
        with pytest.raises(DatasetError):
            SweepRunner().run([], space)

    def test_duplicate_kernels_rejected(self, space):
        kernel = compute_kernel("a", suite="t")
        with pytest.raises(DatasetError):
            SweepRunner().run([kernel, kernel], space)

    def test_scalar_mode_matches_batch(self, space):
        """The per-point oracle and the batch grid path agree."""
        kernels = [compute_kernel("a", suite="t"),
                   streaming_kernel("b", suite="t")]
        batch = SweepRunner().run(kernels, space)
        scalar = SweepRunner(grid_mode="scalar").run(kernels, space)
        np.testing.assert_allclose(
            batch.perf, scalar.perf, rtol=1e-12
        )

    def test_default_grid_mode_is_batch(self):
        assert SweepRunner().grid_mode_name == "batch"

    def test_progress_callback_called_per_kernel(self, space):
        calls = []
        kernels = [compute_kernel("a", suite="t"),
                   streaming_kernel("b", suite="t")]
        SweepRunner().run(kernels, space,
                          progress=lambda d, t: calls.append((d, t)))
        assert calls == [(1, 2), (2, 2)]


class CannedStudy:
    """A study-capable simulator that answers every study with one
    fixed ``(kernels, cu, engine, memory)`` buffer it keeps owning."""

    supports_study = True

    def __init__(self, values):
        self.values = values

    def simulate_study(self, kernels, space):
        return SimpleNamespace(items_per_second=self.values)


class TestStudyBuffer:
    """The study path uses the engine's array without a copy, and never
    writes into it when quarantining a kernel."""

    @pytest.fixture
    def kernels(self):
        return [compute_kernel("a", suite="t"),
                streaming_kernel("b", suite="t")]

    @pytest.fixture
    def clean(self, kernels, space):
        return SweepRunner(grid_mode="study").run(kernels, space).perf

    def run_canned(self, values, kernels, space, strict):
        return SweepRunner(
            simulator=CannedStudy(values), grid_mode="study"
        ).run(kernels, space, strict=strict)

    def test_clean_study_values_pass_through(self, kernels, space, clean):
        values = clean.copy()
        dataset = self.run_canned(values, kernels, space, strict=True)
        np.testing.assert_array_equal(dataset.perf, clean)
        assert not dataset.quarantined

    def test_quarantine_leaves_engine_buffer_untouched(
        self, kernels, space, clean
    ):
        values = clean.copy()
        values[1, 0, 0, 0] = -1.0
        before = values.copy()
        dataset = self.run_canned(values, kernels, space, strict=False)
        np.testing.assert_array_equal(values, before)
        assert set(dataset.quarantined) == {kernels[1].full_name}
        assert "non-positive" in dataset.quarantined[kernels[1].full_name]
        assert np.isnan(dataset.perf[1]).all()
        np.testing.assert_array_equal(dataset.perf[0], clean[0])

    def test_non_finite_row_is_quarantined_with_reason(
        self, kernels, space, clean
    ):
        values = clean.copy()
        values[0, -1, -1, -1] = np.inf
        dataset = self.run_canned(values, kernels, space, strict=False)
        assert "non-finite" in dataset.quarantined[kernels[0].full_name]
        assert np.isinf(values[0, -1, -1, -1])

    def test_strict_defect_names_kernel_and_keeps_buffer(
        self, kernels, space, clean
    ):
        values = clean.copy()
        values[1, 2, 2, 2] = 0.0
        before = values.copy()
        with pytest.raises(SimulationError) as excinfo:
            self.run_canned(values, kernels, space, strict=True)
        assert excinfo.value.kernel_name == kernels[1].full_name
        np.testing.assert_array_equal(values, before)


class TestPaperScale:
    def test_full_sweep_shape(self, paper_dataset):
        assert paper_dataset.perf.shape == (267, 11, 9, 9)
        assert paper_dataset.space.size == 891

    def test_full_sweep_covers_all_suites(self, paper_dataset):
        assert len(paper_dataset.suites()) == 8
