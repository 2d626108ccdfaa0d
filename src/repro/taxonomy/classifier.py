"""The taxonomy classifier: dataset in, per-kernel labels out.

This is the tool the paper never shipped (the calibration notes for
this reproduction flag "scaling-study scripts scattered; taxonomy not
codified in OSS tools"): a reusable classifier that turns any scaling
dataset into taxonomy labels plus summary statistics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sweep.dataset import ScalingDataset
from repro.taxonomy.axis import AxisBehaviour, classify_axis
from repro.taxonomy.categories import (
    TaxonomyCategory,
    TaxonomyLabel,
    categorise,
)
from repro.taxonomy.features import ScalingFeatures, extract_features


@dataclass(frozen=True)
class TaxonomyResult:
    """Labels for every kernel of a dataset, with summary accessors."""

    labels: Tuple[TaxonomyLabel, ...]

    def label_for(self, kernel_name: str) -> TaxonomyLabel:
        """The label of one kernel; raises ``KeyError`` when absent."""
        for label in self.labels:
            if label.kernel_name == kernel_name:
                return label
        raise KeyError(f"no label for kernel {kernel_name!r}")

    def category_counts(self) -> Dict[TaxonomyCategory, int]:
        """Kernels per category (all categories present, zeros kept)."""
        counts = Counter(label.category for label in self.labels)
        return {cat: counts.get(cat, 0) for cat in TaxonomyCategory}

    def kernels_in(self, category: TaxonomyCategory) -> List[str]:
        """Kernel names carrying *category*."""
        return [
            label.kernel_name
            for label in self.labels
            if label.category is category
        ]

    def axis_behaviour_counts(
        self,
    ) -> Dict[str, Dict[AxisBehaviour, int]]:
        """Per-axis behaviour histograms (keys: cu/engine/memory)."""
        result: Dict[str, Dict[AxisBehaviour, int]] = {}
        for axis_name, getter in (
            ("cu", lambda l: l.cu_behaviour),
            ("engine", lambda l: l.engine_behaviour),
            ("memory", lambda l: l.memory_behaviour),
        ):
            counts = Counter(getter(label) for label in self.labels)
            result[axis_name] = {
                b: counts.get(b, 0) for b in AxisBehaviour
            }
        return result

    def intuitive_fraction(self) -> float:
        """Fraction of kernels in the "intuitive" categories."""
        intuitive = sum(
            1 for label in self.labels if label.category.is_intuitive
        )
        return intuitive / len(self.labels)

    def by_suite(self) -> Dict[str, Dict[TaxonomyCategory, int]]:
        """Category counts per suite (suite parsed from kernel names)."""
        result: Dict[str, Counter] = {}
        for label in self.labels:
            suite, _, _ = label.kernel_name.partition("/")
            result.setdefault(suite, Counter())[label.category] += 1
        return {
            suite: {cat: counts.get(cat, 0) for cat in TaxonomyCategory}
            for suite, counts in result.items()
        }


class TaxonomyClassifier:
    """Rule-based classifier over scaling datasets."""

    @staticmethod
    def _label(features: ScalingFeatures) -> TaxonomyLabel:
        cu, engine, memory = (
            classify_axis(f)
            for f in (features.cu, features.engine, features.memory)
        )
        category = categorise(features, cu, engine, memory)
        return TaxonomyLabel(
            features.kernel_name, category, cu, engine, memory, features
        )

    def classify_kernel(
        self, dataset: ScalingDataset, kernel_name: str
    ) -> TaxonomyLabel:
        """Label a single kernel."""
        return self._label(extract_features(dataset, kernel_name))

    def classify(self, dataset: ScalingDataset) -> TaxonomyResult:
        """Label every kernel of *dataset* (total: every kernel gets
        exactly one category), from one batched feature pass.

        The pass goes through :func:`extract_features`, the name the
        benchmark harness times as the feature-extraction layer.
        """
        features = extract_features(dataset)
        return TaxonomyResult(labels=tuple(map(self._label, features)))


def classify(dataset: ScalingDataset) -> TaxonomyResult:
    """Module-level convenience wrapper."""
    return TaxonomyClassifier().classify(dataset)
