"""Multiprocess sweep collection over the supervised tile executor.

Iteration workflows (ablation sweeps, noise studies, alternative
hardware families, sampling campaigns) re-run the study many times.
:class:`ParallelSweepRunner` splits the kernel list into tiles of rows
for :class:`repro.tiles.TileExecutor` and reassembles a dataset
bit-identical to the serial runner's (rows are independent and the
model is deterministic). Its tile function sweeps one tile through an
in-process :class:`SweepRunner`; kernels and the space, uarch included,
travel as plain dicts. The pool persists across :meth:`run` calls until
:meth:`ParallelSweepRunner.close`, so a campaign's chunks share one
pool. A strict-mode per-kernel failure comes back as a result naming
the kernel and is raised as :class:`SimulationError` without a retry.
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, Optional, Sequence

from repro.errors import SimulationError
from repro.gpu.engine import (
    EngineSpec,
    normalize_engine,
    normalize_grid_mode,
)
from repro.gpu.simulator import GpuSimulator
from repro.kernels.kernel import Kernel
from repro.sweep.dataset import KernelRecord, ScalingDataset
from repro.sweep.faults import FaultSpec, FaultyEngine
from repro.sweep.runner import (
    ProgressCallback,
    SweepRunner,
    check_kernel_list,
)
from repro.sweep.space import PAPER_SPACE, ConfigurationSpace
from repro.tiles import (
    DEFAULT_TILE_TIMEOUT_S,
    SupervisionStats,
    TileExecutor,
    tile_bounds,
)

#: Target tiles per worker: small enough that tile completions give
#: useful progress ticks, large enough to amortise pickling.
_TILES_PER_WORKER = 4

#: Retries per tile (on a fresh pool) before degrading to serial.
DEFAULT_MAX_RETRIES = 2

#: Base backoff between retries; multiplied by the attempt number.
DEFAULT_RETRY_BACKOFF_S = 0.25


def _serial_runner(
    engine: str, mode: str, faults: Sequence[FaultSpec]
) -> SweepRunner:
    """An in-process runner for *engine*, wrapped in any faults."""
    simulator = GpuSimulator(engine)
    if faults:
        simulator = FaultyEngine(simulator, faults)
    return SweepRunner(engine, mode, simulator=simulator)


def _sweep_tile(payload: dict) -> dict:
    """Tile function: sweep one tile of kernels (serialised as dicts).

    A per-kernel :class:`SimulationError` (strict mode) is returned as a
    result naming the kernel instead of raised, so the parent can
    surface it with the kernel's name.
    """
    runner = _serial_runner(
        payload["engine"], payload["mode"],
        [FaultSpec.from_dict(s) for s in payload["faults"]],
    )
    kernels = [Kernel.from_dict(p) for p in payload["kernels"]]
    space = ConfigurationSpace.from_dict(payload["space"])
    try:
        dataset = runner.run(kernels, space, strict=payload["strict"])
    except SimulationError as exc:
        return {"kernel": exc.kernel_name, "error": exc.reason}
    return {"rows": dataset.perf, "quarantined": dataset.quarantined}


class ParallelSweepRunner:
    """Sweep kernels across a supervised pool of worker processes."""

    def __init__(
        self,
        engine: EngineSpec = "interval",
        workers: Optional[int] = None,
        grid_mode: str = "batch",
        *,
        chunk_timeout_s: float = DEFAULT_TILE_TIMEOUT_S,
        max_retries: int = DEFAULT_MAX_RETRIES,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
        faults: Sequence[FaultSpec] = (),
    ):
        self._engine_name = normalize_engine(engine)
        self._mode = normalize_grid_mode(grid_mode)
        self._faults = list(faults)
        self._executor = TileExecutor(
            workers or max(1, multiprocessing.cpu_count() - 1),
            tile_timeout_s=chunk_timeout_s,
            max_retries=max_retries,
            retry_backoff_s=retry_backoff_s,
        )
        self._stats = SupervisionStats()

    @property
    def workers(self) -> int:
        """Worker-process count."""
        return self._executor.workers

    @property
    def engine_name(self) -> str:
        """Registry name of the selected engine."""
        return self._engine_name

    @property
    def grid_mode_name(self) -> str:
        """Canonical grid-mode name (``batch``/``scalar``/``study``)."""
        return self._mode

    @property
    def last_stats(self) -> SupervisionStats:
        """Supervision counters from the most recent :meth:`run`."""
        return self._stats

    def close(self) -> None:
        """Tear down the worker pool (recreated lazily on use)."""
        self._executor.close()

    def run(
        self,
        kernels: Sequence[Kernel],
        space: ConfigurationSpace = PAPER_SPACE,
        progress: Optional[ProgressCallback] = None,
        strict: bool = True,
    ) -> ScalingDataset:
        """Collect the dataset; identical to the serial runner's.

        *progress*, when given, is called as tiles of kernel rows
        complete with ``(rows_done, rows_total)`` — the same signature
        as the serial runner's callback. Each tile is counted exactly
        once, even when it is retried or degraded to serial execution.
        """
        check_kernel_list(kernels)
        self._stats = SupervisionStats()
        if self.workers == 1 or len(kernels) < 2 * self.workers:
            return _serial_runner(
                self._engine_name, self._mode, self._faults
            ).run(kernels, space, progress, strict=strict)

        bounds = tile_bounds(len(kernels), self.workers * _TILES_PER_WORKER)
        common = {
            "space": space.to_dict(),
            "engine": self._engine_name,
            "mode": self._mode,
            "strict": strict,
            "faults": [s.to_dict() for s in self._faults],
        }
        payloads = [
            {"kernels": [k.to_dict() for k in kernels[lo:hi]], **common}
            for lo, hi in bounds
        ]
        quarantined: Dict[int, Dict[str, str]] = {}
        done = 0

        def on_tile(index: int, result: dict) -> None:
            nonlocal done
            if "error" in result:
                raise SimulationError(result["kernel"], result["error"])
            quarantined[index] = result["quarantined"]
            lo, hi = bounds[index]
            done += hi - lo
            if progress is not None:
                progress(done, len(kernels))

        perf, self._stats = self._executor.run(
            _sweep_tile, payloads, bounds,
            (len(kernels),) + space.shape, on_tile,
        )
        records = [KernelRecord.from_full_name(k.full_name) for k in kernels]
        return ScalingDataset(
            space, records, perf,
            quarantined={
                name: reason
                for index in sorted(quarantined)
                for name, reason in quarantined[index].items()
            },
        )
