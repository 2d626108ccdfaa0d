"""Shared fixtures.

Two dataset tiers keep the suite fast:

* ``archetype_dataset`` — one kernel per archetype over a reduced grid
  (~1s): used by most taxonomy/analysis unit tests.
* ``paper_dataset`` — the full 267 x 891 sweep (~7s, session-scoped):
  used by integration tests and anything asserting catalog-scale facts.
"""

from __future__ import annotations

import pytest

from repro.gpu import HardwareConfig, W9100_LIKE
from repro.gpu.engine import (
    EngineCapabilities,
    EngineDescriptor,
    register_engine,
    unregister_engine,
)
from repro.gpu.interval_batch import BatchIntervalModel
from repro.kernels import ARCHETYPE_BUILDERS
from repro.suites import all_kernels
from repro.sweep import SweepRunner, collect_paper_dataset, reduced_space


@pytest.fixture(scope="session")
def archetype_kernels():
    """One representative kernel per archetype."""
    return [
        builder(f"{kind}_probe", suite="probe")
        for kind, builder in ARCHETYPE_BUILDERS.items()
    ]


@pytest.fixture(scope="session")
def small_space():
    """A strided 6 x 5 x 5 grid keeping every axis extreme."""
    return reduced_space(2, 2, 2)


@pytest.fixture(scope="session")
def archetype_dataset(archetype_kernels):
    """Archetype kernels swept over the full paper grid.

    Eleven kernels x 891 configurations is well under a second, and
    full axis resolution keeps the taxonomy's end-of-axis features
    meaningful in the tests that assert archetype labels.
    """
    from repro.sweep import PAPER_SPACE

    return SweepRunner().run(archetype_kernels, PAPER_SPACE)


@pytest.fixture(scope="session")
def paper_dataset():
    """The full paper-scale dataset (collected once per session)."""
    return collect_paper_dataset()


@pytest.fixture(scope="session")
def paper_taxonomy(paper_dataset):
    """Taxonomy labels over the full dataset."""
    from repro.taxonomy import classify

    return classify(paper_dataset)


@pytest.fixture
def flagship() -> HardwareConfig:
    """The full-size discrete configuration."""
    return W9100_LIKE


@pytest.fixture(scope="session")
def catalog_kernels():
    """Every kernel in the catalog."""
    return all_kernels()


GRID_ONLY = "test-grid-only"


class GridOnlyEngine:
    """The batch interval engine re-registered in a family of its own
    with only the per-kernel grid path: no family sibling offers a
    point or a study evaluation."""

    supports_point = False
    supports_grid = True
    supports_study = False

    def __init__(self):
        self._batch = BatchIntervalModel()

    def descriptor(self):
        return EngineDescriptor(name=GRID_ONLY, family=GRID_ONLY)

    def simulate_grid(self, kernel, space):
        return self._batch.simulate_grid(kernel, space)


@pytest.fixture
def grid_only_engine():
    """Registry name of a grid-only engine, unregistered afterwards."""
    register_engine(
        GRID_ONLY,
        GridOnlyEngine,
        capabilities=EngineCapabilities(grid=True),
        summary="grid-only batch model for capability tests",
    )
    yield GRID_ONLY
    unregister_engine(GRID_ONLY)
