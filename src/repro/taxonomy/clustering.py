"""Unsupervised cross-check of the rule-based taxonomy.

The companion methodology (the authors' HPCA'15 machine-learning work
built on this dataset) clusters kernels by scaling *shape* rather than
by hand-written rules. This module reproduces that check: k-means over
per-kernel shape vectors, then agreement statistics against the
rule-based labels. High agreement is evidence the taxonomy's categories
are real structure in the data, not threshold artefacts.

Shape vectors concatenate the log-speedup curves of the three axis
slices (11 + 9 + 9 = 29 dimensions on the paper grid). Log space makes
"2x -> 4x" and "4x -> 8x" equally distant, which matches how the
taxonomy reasons about proportionality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ClassificationError
from repro.sweep.dataset import ScalingDataset
from repro.sweep.views import Axis, axis_lines, axis_slice
from repro.taxonomy.classifier import TaxonomyResult

#: Default cluster count: one per taxonomy category.
DEFAULT_K = 7

#: Fixed seed so the cross-check is reproducible.
DEFAULT_SEED = 20151004  # the paper's publication date


def shape_vector(dataset: ScalingDataset, kernel_name: str) -> np.ndarray:
    """One kernel's concatenated log2 speedup curves."""
    parts = []
    for axis in Axis:
        speedup = axis_slice(dataset, kernel_name, axis).speedup
        parts.append(np.log2(np.asarray(speedup)))
    return np.concatenate(parts)


def shape_matrix(dataset: ScalingDataset) -> np.ndarray:
    """Shape vectors for every kernel, shape (n_kernels, n_dims): row
    *i* is :func:`shape_vector` of kernel *i*, computed for all kernels
    at once from each axis's line matrix."""
    parts = []
    for axis in Axis:
        lines = axis_lines(dataset, axis)
        parts.append(np.log2(lines / lines[:, :1]))
    return np.concatenate(parts, axis=1)


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int = DEFAULT_SEED,
    max_iter: int = 200,
) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic k-means with k-means++ initialisation.

    Returns (assignments, centroids). Implemented locally (no sklearn
    offline) with a seeded generator so results are stable across runs.
    """
    n, _ = points.shape
    if not 1 <= k <= n:
        raise ClassificationError(f"k={k} invalid for {n} points")
    rng = np.random.default_rng(seed)

    # k-means++ seeding: spread the initial centroids.
    centroids = [points[rng.integers(n)]]
    for _ in range(k - 1):
        dists = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centroids], axis=0
        )
        total = dists.sum()
        if total == 0.0:
            centroids.append(points[rng.integers(n)])
            continue
        centroids.append(points[rng.choice(n, p=dists / total)])
    centres = np.stack(centroids)

    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        distances = np.linalg.norm(
            points[:, None, :] - centres[None, :, :], axis=2
        )
        new_assignments = distances.argmin(axis=1)
        if np.array_equal(new_assignments, assignments) and _ > 0:
            break
        assignments = new_assignments
        for j in range(k):
            members = points[assignments == j]
            if len(members) > 0:
                centres[j] = members.mean(axis=0)
    return assignments, centres


def cluster_dataset(
    dataset: ScalingDataset, k: int = DEFAULT_K, seed: int = DEFAULT_SEED
) -> np.ndarray:
    """Cluster every kernel by scaling shape; returns assignments."""
    return kmeans(shape_matrix(dataset), k, seed)[0]


# ----------------------------------------------------------------------
# Agreement statistics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ClusterAgreement:
    """Agreement between clusters and rule-based taxonomy labels."""

    purity: float
    adjusted_rand_index: float
    cluster_majorities: Dict[int, str]

    @property
    def agrees(self) -> bool:
        """Loose acceptance criterion used by the F10 experiment."""
        return self.purity >= 0.5 and self.adjusted_rand_index > 0.0


def _contingency(
    a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, List, List]:
    a_values = sorted(set(a.tolist()))
    b_values = sorted(set(b.tolist()))
    table = np.zeros((len(a_values), len(b_values)), dtype=np.int64)
    a_index = {v: i for i, v in enumerate(a_values)}
    b_index = {v: i for i, v in enumerate(b_values)}
    for x, y in zip(a.tolist(), b.tolist()):
        table[a_index[x], b_index[y]] += 1
    return table, a_values, b_values


def adjusted_rand_index(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand index between two labelings (1 = identical,
    ~0 = chance). Local implementation — sklearn is unavailable."""
    if len(a) != len(b):
        raise ClassificationError("labelings must have equal length")
    table, _, _ = _contingency(a, b)

    def comb2(x: np.ndarray) -> np.ndarray:
        return x * (x - 1) / 2.0

    sum_cells = comb2(table.astype(np.float64)).sum()
    sum_rows = comb2(table.sum(axis=1).astype(np.float64)).sum()
    sum_cols = comb2(table.sum(axis=0).astype(np.float64)).sum()
    n_pairs = comb2(np.array(float(len(a))))
    expected = sum_rows * sum_cols / n_pairs
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def evaluate_agreement(
    dataset: ScalingDataset,
    taxonomy: TaxonomyResult,
    k: int = DEFAULT_K,
    seed: int = DEFAULT_SEED,
) -> ClusterAgreement:
    """Cluster the dataset and compare against rule-based labels."""
    assignments = cluster_dataset(dataset, k, seed)
    categories = np.array(
        [label.category.value for label in taxonomy.labels]
    )

    majorities: Dict[int, str] = {}
    correct = 0
    for cluster_id in sorted(set(assignments.tolist())):
        members = categories[assignments == cluster_id]
        values, counts = np.unique(members, return_counts=True)
        majority = values[counts.argmax()]
        majorities[int(cluster_id)] = str(majority)
        correct += int(counts.max())

    codes = {c: i for i, c in enumerate(sorted(set(categories.tolist())))}
    encoded = np.array([codes[c] for c in categories.tolist()])
    ari = adjusted_rand_index(assignments, encoded)
    return ClusterAgreement(
        purity=correct / len(categories),
        adjusted_rand_index=ari,
        cluster_majorities=majorities,
    )
