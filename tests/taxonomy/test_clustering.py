"""Unsupervised clustering cross-check."""

import numpy as np
import pytest

from repro.errors import ClassificationError
from repro.taxonomy import (
    adjusted_rand_index,
    classify,
    cluster_dataset,
    evaluate_agreement,
    kmeans,
    shape_matrix,
    shape_vector,
)


class TestShapeVectors:
    def test_vector_concatenates_three_axes(self, archetype_dataset):
        n_cu, n_eng, n_mem = archetype_dataset.space.shape
        vector = shape_vector(
            archetype_dataset, archetype_dataset.kernel_names[0]
        )
        assert vector.shape == (n_cu + n_eng + n_mem,)

    def test_matrix_rows_match_kernels(self, archetype_dataset):
        matrix = shape_matrix(archetype_dataset)
        assert matrix.shape[0] == archetype_dataset.num_kernels

    def test_matrix_equals_stacked_vectors_on_the_catalog(
        self, paper_dataset
    ):
        """The batched matrix is the per-kernel vectors, bit for bit."""
        stacked = np.stack([
            shape_vector(paper_dataset, name)
            for name in paper_dataset.kernel_names
        ])
        matrix = shape_matrix(paper_dataset)
        assert matrix.shape == stacked.shape
        assert matrix.tobytes() == stacked.tobytes()

    def test_log_space_starts_at_zero(self, archetype_dataset):
        # Every slice is normalised to its first point: log2(1) = 0.
        vector = shape_vector(
            archetype_dataset, archetype_dataset.kernel_names[0]
        )
        assert vector[0] == pytest.approx(0.0)


class TestKmeans:
    def test_separable_clusters_recovered(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 0.1, (20, 3))
        b = rng.normal(5.0, 0.1, (20, 3))
        points = np.vstack([a, b])
        assignments, centres = kmeans(points, 2, seed=1)
        assert len(set(assignments[:20])) == 1
        assert len(set(assignments[20:])) == 1
        assert assignments[0] != assignments[20]

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(30, 4))
        a, _ = kmeans(points, 3, seed=9)
        b, _ = kmeans(points, 3, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_invalid_k_rejected(self):
        points = np.zeros((5, 2))
        with pytest.raises(ClassificationError):
            kmeans(points, 0)
        with pytest.raises(ClassificationError):
            kmeans(points, 6)


class TestAdjustedRandIndex:
    def test_identical_labelings(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    def test_permuted_labels_still_perfect(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([1, 1, 0, 0])
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_independent_labelings_near_zero(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 4, 2000)
        b = rng.integers(0, 4, 2000)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_length_mismatch_rejected(self):
        with pytest.raises(ClassificationError):
            adjusted_rand_index(np.zeros(3), np.zeros(4))


class TestAgreement:
    def test_archetypes_cluster_consistently(self, archetype_dataset):
        taxonomy = classify(archetype_dataset)
        agreement = evaluate_agreement(archetype_dataset, taxonomy, k=5)
        assert agreement.purity > 0.5

    def test_paper_scale_agreement(self, paper_dataset, paper_taxonomy):
        agreement = evaluate_agreement(paper_dataset, paper_taxonomy)
        assert agreement.purity >= 0.6
        assert agreement.adjusted_rand_index > 0.2
        assert agreement.agrees

    def test_cluster_assignments_cover_all_kernels(self, archetype_dataset):
        assignments = cluster_dataset(archetype_dataset, k=4)
        assert assignments.shape == (archetype_dataset.num_kernels,)
