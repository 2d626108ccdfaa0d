"""SweepRunner: dataset collection over kernels x configurations."""

import pytest

import numpy as np

from repro.errors import DatasetError
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


class TestPaperScale:
    def test_full_sweep_shape(self, paper_dataset):
        assert paper_dataset.perf.shape == (267, 11, 9, 9)
        assert paper_dataset.space.size == 891

    def test_full_sweep_covers_all_suites(self, paper_dataset):
        assert len(paper_dataset.suites()) == 8
