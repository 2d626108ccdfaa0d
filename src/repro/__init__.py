"""Reproduction of "A Taxonomy of GPGPU Performance Scaling" (IISWC 2015).

The package has four layers (see DESIGN.md for the full inventory):

* :mod:`repro.gpu` / :mod:`repro.kernels` — the substrate: a GCN-class
  GPU performance model and the workload representation it consumes.
* :mod:`repro.suites` — the 97-program / 267-kernel synthetic catalog.
* :mod:`repro.sweep` — the 891-configuration data-collection harness.
* :mod:`repro.taxonomy` / :mod:`repro.analysis` / :mod:`repro.report` —
  the paper's contribution: scaling-behaviour classification and the
  evaluation analytics built on it.

Quickstart::

    from repro import collect_paper_dataset, classify

    dataset = collect_paper_dataset()      # 267 kernels x 891 configs
    taxonomy = classify(dataset)           # per-kernel scaling labels
    print(taxonomy.category_counts())
"""

from repro.errors import (
    AnalysisError,
    ClassificationError,
    ConfigurationError,
    DatasetError,
    ReproError,
    SuiteError,
    WorkloadError,
)
from repro.gpu import (
    GpuSimulator,
    HardwareConfig,
    Microarchitecture,
    TimingEngine,
    get_engine,
    list_engines,
    register_engine,
    simulate,
)
from repro.kernels import Kernel, KernelCharacteristics, LaunchGeometry
from repro.sweep import (
    PAPER_SPACE,
    ConfigurationSpace,
    ScalingDataset,
    SweepRunner,
    collect_paper_dataset,
    reduced_space,
)
from repro.taxonomy import (
    AxisBehaviour,
    TaxonomyCategory,
    TaxonomyClassifier,
    classify,
)

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "AxisBehaviour",
    "ClassificationError",
    "ConfigurationError",
    "ConfigurationSpace",
    "DatasetError",
    "GpuSimulator",
    "HardwareConfig",
    "Kernel",
    "KernelCharacteristics",
    "LaunchGeometry",
    "Microarchitecture",
    "PAPER_SPACE",
    "ReproError",
    "ScalingDataset",
    "SuiteError",
    "SweepRunner",
    "TaxonomyCategory",
    "TaxonomyClassifier",
    "TimingEngine",
    "WorkloadError",
    "classify",
    "collect_paper_dataset",
    "get_engine",
    "list_engines",
    "reduced_space",
    "register_engine",
    "simulate",
]
