"""Sweep runner: kernels x configurations -> :class:`ScalingDataset`.

Replaces the paper's measurement campaign (wall-clock timing of real
kernels under firmware CU-fusing/DVFS control) with the performance
model. The full paper-scale sweep is 267 x 891 = 237,897 simulations;
the batch interval engine evaluates each kernel's whole 891-point grid
as one set of NumPy broadcasts (see ``repro/gpu/interval_batch.py``),
completing the study in well under a second, and ``grid_mode="study"``
goes one axis further — the entire kernel catalog in a single
(kernel, cu, eng, mem) broadcast, tens of milliseconds for the full
study. ``grid_mode="scalar"`` retains the original one-call-per-point
path as a reference oracle; simulators whose capability flags rule out
kernel-axis batching (the event engine, fault-injection wrappers,
point-only registrations) transparently fall back to the per-kernel
loop, preserving quarantine semantics.

Fault isolation is per kernel row: with ``strict=False`` a kernel whose
simulation raises — or silently produces non-finite or non-positive
throughput — is *quarantined* (its row NaN-filled and the cause
recorded on the dataset) instead of aborting the whole sweep. The
default ``strict=True`` keeps fail-fast semantics, surfacing a
structured :class:`~repro.errors.SimulationError` that names the
offending kernel.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.errors import DatasetError, SimulationError
from repro.gpu.engine import (
    EngineSpec,
    normalize_engine,
    normalize_grid_mode,
)
from repro.gpu.simulator import GpuSimulator
from repro.kernels.kernel import Kernel
from repro.sweep.dataset import KernelRecord, ScalingDataset
from repro.sweep.space import PAPER_SPACE, ConfigurationSpace

ProgressCallback = Callable[[int, int], None]


def check_kernel_list(kernels: Sequence[Kernel]) -> None:
    """Reject empty or duplicate-name kernel lists (shared precondition)."""
    if not kernels:
        raise DatasetError("cannot sweep an empty kernel list")
    names = [k.full_name for k in kernels]
    if len(set(names)) != len(names):
        raise DatasetError("kernel list contains duplicate full names")


class SweepRunner:
    """Collect the scaling dataset for a set of kernels.

    *engine* is any registered engine name (or an engine object);
    *simulator*, when given, replaces the internally
    constructed :class:`GpuSimulator` — any object with the same
    ``simulate_grid`` signature works, which is how the fault-injection
    test engine (:class:`~repro.sweep.faults.FaultyEngine`) slots in.
    The runner negotiates capabilities rather than inspecting engine
    identity: a study request degrades to per-kernel grids when the
    simulator declares (or reveals) no study support, and the facade
    degrades grids to point loops below that.
    """

    def __init__(
        self,
        engine: EngineSpec = "interval",
        grid_mode: str = "batch",
        simulator=None,
    ):
        self._engine_name = normalize_engine(engine)
        self._simulator = (
            simulator
            if simulator is not None
            else GpuSimulator(self._engine_name)
        )
        self._mode = normalize_grid_mode(grid_mode)

    @property
    def simulator(self):
        """The simulator used for every point."""
        return self._simulator

    @property
    def engine_name(self) -> str:
        """Registry name of the selected engine."""
        return self._engine_name

    @property
    def grid_mode_name(self) -> str:
        """Canonical grid-mode name (``batch``/``scalar``/``study``)."""
        return self._mode

    def close(self) -> None:
        """Release the simulator's resources (recreated lazily on use)."""
        getattr(self._simulator, "close", lambda: None)()

    def run(
        self,
        kernels: Sequence[Kernel],
        space: ConfigurationSpace = PAPER_SPACE,
        progress: Optional[ProgressCallback] = None,
        strict: bool = True,
    ) -> ScalingDataset:
        """Simulate every kernel at every configuration.

        *progress*, when given, is called after each kernel row with
        ``(rows_done, rows_total)``. With ``strict=False``, failing
        kernels are quarantined on the returned dataset instead of
        aborting the sweep.
        """
        check_kernel_list(kernels)
        names = [k.full_name for k in kernels]

        quarantined: Dict[str, str] = {}

        # Whole-study evaluation, unless it failed or this simulator
        # does not support it: then the per-kernel loop attributes and
        # quarantines failures kernel by kernel.
        perf = (
            self._try_study(kernels, space) if self._mode == "study" else None
        )
        if perf is not None:
            defects = self._row_defects(perf)
            if defects:
                # The study's array is the engine's own buffer: copy it
                # before writing NaN into the quarantined rows.
                perf = perf.copy()
            for row, reason in defects.items():
                error = SimulationError(names[row], reason)
                if strict:
                    raise error
                perf[row] = np.nan
                quarantined[names[row]] = error.reason
            if progress is not None:
                for row in range(len(kernels)):
                    progress(row + 1, len(kernels))
        else:
            perf = np.empty((len(kernels),) + space.shape, dtype=np.float64)
            for row, kernel in enumerate(kernels):
                try:
                    perf[row] = self._simulate_row(kernel, space)
                except Exception as exc:
                    error = self._as_simulation_error(kernel, exc)
                    if strict:
                        raise error
                    perf[row] = np.nan
                    quarantined[kernel.full_name] = error.reason
                if progress is not None:
                    progress(row + 1, len(kernels))

        records = [KernelRecord.from_full_name(name) for name in names]
        return ScalingDataset(space, records, perf, quarantined=quarantined)

    def _try_study(
        self, kernels: Sequence[Kernel], space: ConfigurationSpace
    ) -> Optional[np.ndarray]:
        """One whole-study evaluation, or ``None`` to fall back.

        Capability negotiation, not identity inspection: a simulator
        that declares ``supports_study = False`` (the event engine via
        the facade, fault-injection wrappers, point-only
        registrations), lacks ``simulate_study`` entirely, or fails the
        whole-study call returns ``None`` — the per-kernel loop then
        repeats the work with full per-kernel fault attribution, which
        is what quarantine needs.
        """
        if getattr(self._simulator, "supports_study", None) is False:
            return None
        simulate_study = getattr(self._simulator, "simulate_study", None)
        if simulate_study is None:
            return None
        try:
            result = simulate_study(kernels, space)
        except Exception:
            return None
        values = np.asarray(result.items_per_second, dtype=np.float64)
        if values.shape != (len(kernels),) + space.shape:
            return None
        return values

    @staticmethod
    def _row_defects(perf: np.ndarray) -> Dict[int, str]:
        """Row -> why that kernel's throughput is unusable, for every
        unusable row of a ``(kernels, cu, engine, memory)`` tensor."""
        rows = (1, 2, 3)
        finite = np.isfinite(perf).all(axis=rows)
        positive = (perf > 0).all(axis=rows)
        return {
            row: "engine produced non-finite throughput"
            if not finite[row]
            else "engine produced non-positive throughput"
            for row in np.flatnonzero(~(finite & positive)).tolist()
        }

    def _simulate_row(
        self, kernel: Kernel, space: ConfigurationSpace
    ) -> np.ndarray:
        """One kernel's grid, checked for silent data corruption."""
        grid = self._simulator.simulate_grid(
            kernel, space, mode=self._mode
        )
        values = np.asarray(grid.items_per_second, dtype=np.float64)
        if values.shape != space.shape:
            reason = (
                f"engine returned shape {values.shape}, "
                f"expected {space.shape}"
            )
        else:
            reason = self._row_defects(values[np.newaxis]).get(0)
        if reason is not None:
            raise SimulationError(kernel.full_name, reason)
        return values

    @staticmethod
    def _as_simulation_error(
        kernel: Kernel, exc: Exception
    ) -> SimulationError:
        if isinstance(exc, SimulationError):
            return exc
        error = SimulationError(
            kernel.full_name, f"{type(exc).__name__}: {exc}"
        )
        error.__cause__ = exc
        return error


def collect_paper_dataset(
    engine: EngineSpec = "interval",
    space: ConfigurationSpace = PAPER_SPACE,
    progress: Optional[ProgressCallback] = None,
    grid_mode: str = "batch",
    strict: bool = True,
) -> ScalingDataset:
    """Run the full study: all 267 catalog kernels over the 891 configs."""
    from repro.suites import all_kernels

    return SweepRunner(engine, grid_mode).run(
        all_kernels(), space, progress, strict=strict
    )
