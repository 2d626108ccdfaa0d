"""End-to-end taxonomy classification on modelled kernels."""

import pytest

from repro.taxonomy import (
    AxisBehaviour,
    TaxonomyCategory,
    TaxonomyClassifier,
    classify,
)


@pytest.fixture(scope="module")
def archetype_labels(request):
    dataset = request.getfixturevalue("archetype_dataset")
    result = classify(dataset)
    return {
        label.kernel_name.split("/")[1].split("_probe")[0]: label
        for label in result.labels
    }


class TestArchetypeLabels:
    """Each archetype must land in its designed category."""

    def test_compute_archetype(self, archetype_labels):
        assert archetype_labels["compute"].category is (
            TaxonomyCategory.COMPUTE_BOUND
        )

    def test_streaming_archetype(self, archetype_labels):
        assert archetype_labels["streaming"].category is (
            TaxonomyCategory.BANDWIDTH_BOUND
        )

    def test_balanced_archetype(self, archetype_labels):
        assert archetype_labels["balanced"].category is (
            TaxonomyCategory.BALANCED
        )

    def test_limited_parallelism_archetype(self, archetype_labels):
        assert archetype_labels["limited_parallelism"].category is (
            TaxonomyCategory.PARALLELISM_LIMITED
        )

    def test_thrashing_archetype_is_inverse(self, archetype_labels):
        assert archetype_labels["thrashing"].category is (
            TaxonomyCategory.CU_INVERSE
        )

    def test_tiny_archetype_is_plateau(self, archetype_labels):
        assert archetype_labels["tiny"].category is (
            TaxonomyCategory.PLATEAU
        )

    def test_cache_resident_memory_axis_flat(self, archetype_labels):
        label = archetype_labels["cache_resident"]
        assert label.memory_behaviour in (
            AxisBehaviour.FLAT, AxisBehaviour.SATURATING
        )
        assert label.category is TaxonomyCategory.COMPUTE_BOUND


class TestResultApi:
    def test_every_kernel_labelled_exactly_once(self, archetype_dataset):
        result = classify(archetype_dataset)
        assert len(result.labels) == archetype_dataset.num_kernels
        counts = result.category_counts()
        assert sum(counts.values()) == archetype_dataset.num_kernels

    def test_counts_include_empty_categories(self, archetype_dataset):
        counts = classify(archetype_dataset).category_counts()
        assert set(counts) == set(TaxonomyCategory)

    def test_label_lookup(self, archetype_dataset):
        result = classify(archetype_dataset)
        name = archetype_dataset.kernel_names[0]
        assert result.label_for(name).kernel_name == name

    def test_label_lookup_missing(self, archetype_dataset):
        with pytest.raises(KeyError):
            classify(archetype_dataset).label_for("nope/x.y")

    def test_axis_behaviour_counts_sum(self, archetype_dataset):
        result = classify(archetype_dataset)
        histograms = result.axis_behaviour_counts()
        for axis in ("cu", "engine", "memory"):
            assert sum(histograms[axis].values()) == (
                archetype_dataset.num_kernels
            )

    def test_classifier_is_deterministic(self, archetype_dataset):
        a = TaxonomyClassifier().classify(archetype_dataset)
        b = TaxonomyClassifier().classify(archetype_dataset)
        assert [l.category for l in a.labels] == [
            l.category for l in b.labels
        ]


class TestFeaturePass:
    def test_classify_extracts_features_once(
        self, archetype_dataset, monkeypatch
    ):
        """``classify`` makes one batched call through the module's
        ``extract_features`` name, which the benchmark's tracer wraps."""
        from repro.taxonomy import classifier

        calls = []
        extract = classifier.extract_features

        def counting(*args):
            calls.append(args)
            return extract(*args)

        monkeypatch.setattr(classifier, "extract_features", counting)
        result = classifier.classify(archetype_dataset)
        assert calls == [(archetype_dataset,)]
        assert len(result.labels) == archetype_dataset.num_kernels


class TestPaperScale:
    def test_every_category_populated_except_mixed(self, paper_taxonomy):
        counts = paper_taxonomy.category_counts()
        for category in TaxonomyCategory:
            if category is TaxonomyCategory.MIXED:
                continue
            assert counts[category] > 0, category

    def test_intuitive_majority(self, paper_taxonomy):
        """Most kernels scale in intuitive ways (the paper: "many
        kernels scale in intuitive ways"), but a substantial minority
        does not."""
        fraction = paper_taxonomy.intuitive_fraction()
        assert 0.4 < fraction < 0.9

    def test_inverse_population_nontrivial_but_minority(
        self, paper_taxonomy
    ):
        counts = paper_taxonomy.category_counts()
        inverse = counts[TaxonomyCategory.CU_INVERSE]
        assert 5 <= inverse <= 40

    def test_by_suite_covers_all_suites(self, paper_taxonomy):
        assert len(paper_taxonomy.by_suite()) == 8
