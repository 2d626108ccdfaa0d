"""Data-collection harness: configuration space, sweep runner, dataset,
axis views, fault-tolerant campaigns, and fault injection."""

from repro.sweep.cache import (
    SweepCache,
    cached_paper_dataset,
    fingerprint_blob,
    sweep_fingerprint,
)
from repro.sweep.campaign import CampaignReport, CampaignRunner
from repro.sweep.dataset import KernelRecord, ScalingDataset
from repro.sweep.faults import FaultKind, FaultSpec, FaultyEngine
from repro.sweep.noise import NoiseModel, perturb
from repro.sweep.parallel import ParallelSweepRunner
from repro.sweep.runner import SweepRunner, collect_paper_dataset
from repro.sweep.space import PAPER_SPACE, ConfigurationSpace, reduced_space
from repro.sweep.views import (
    Axis,
    AxisSlice,
    axis_lines,
    axis_slice,
    axis_values,
    clock_surface,
    end_to_end_speedups,
    normalised_cube,
)
from repro.tiles import SupervisionStats

__all__ = [
    "Axis",
    "AxisSlice",
    "CampaignReport",
    "CampaignRunner",
    "ConfigurationSpace",
    "FaultKind",
    "FaultSpec",
    "FaultyEngine",
    "KernelRecord",
    "NoiseModel",
    "PAPER_SPACE",
    "ParallelSweepRunner",
    "ScalingDataset",
    "SupervisionStats",
    "SweepCache",
    "SweepRunner",
    "axis_lines",
    "axis_slice",
    "axis_values",
    "cached_paper_dataset",
    "clock_surface",
    "collect_paper_dataset",
    "fingerprint_blob",
    "sweep_fingerprint",
    "end_to_end_speedups",
    "normalised_cube",
    "perturb",
    "reduced_space",
]
