"""Multi-core whole-study engine: kernel-axis tiles over a pool.

:class:`StudyMTModel` shards the 4-D ``(kernel, cu, engine, memory)``
study lattice along the *kernel* axis over
:class:`repro.tiles.TileExecutor`. Every per-kernel quantity of
``BatchIntervalModel.simulate_study`` is elementwise over the kernel
row, so a row-slice of the pack (``KernelPack.subset``) evaluates
bit-identically to the same rows of the whole pack — the kernel-axis
tiling invariant that ``tests/gpu/test_study_mt.py`` pins. Tiles return
``time_s`` as their rows; ``items_per_second`` is re-derived in the
parent as ``global_size / time_s``, the batch engine's own final
expression, so the division commutes with tiling bitwise. The executor
runs with ``max_retries=0``: a tile whose worker dies is evaluated
in-process at once and the uncollected tiles go to a fresh pool.
Each process builds one :class:`BatchIntervalModel` and reuses it for
every tile; ``last_stats.worker_models`` reports the count.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gpu.engine import (
    STUDY_MT_DESCRIPTOR,
    EngineDescriptor,
    GridSpace,
)
from repro.gpu.interval_batch import BatchIntervalModel, StudyGridResult
from repro.gpu.occupancy import BatchOccupancy
from repro.kernels.pack import KernelPack
from repro.tiles import (
    DEFAULT_TILE_TIMEOUT_S,
    SupervisionStats,
    TileExecutor,
    in_worker,
    tile_bounds,
)

#: Kernel-axis tiles submitted per worker: >1 so a fast worker picks
#: up another tile instead of idling behind the slowest.
DEFAULT_TILES_PER_WORKER = 2

#: One batch model per process, built on its first tile and reused for
#: every later one.
_PROCESS_MODEL: Optional[BatchIntervalModel] = None

#: Construction counter for :data:`_PROCESS_MODEL`, reported with every
#: tile so the parent can assert single construction per process.
_MODEL_CONSTRUCTIONS = {"count": 0}


def _process_model() -> BatchIntervalModel:
    global _PROCESS_MODEL
    if _PROCESS_MODEL is None:
        _PROCESS_MODEL = BatchIntervalModel()
        _MODEL_CONSTRUCTIONS["count"] += 1
    return _PROCESS_MODEL


def _simulate_tile(payload: dict) -> dict:
    """Tile function: evaluate one kernel-axis tile of the study."""
    if payload["kill"] and in_worker():
        # Chaos hook for the supervision tests: die the way a real
        # crashed worker does, with no exception to catch.
        os._exit(1)
    result = _process_model().simulate_study(
        payload["pack"], payload["space"]
    )
    return {
        "rows": result.time_s,
        "pid": os.getpid(),
        "model_constructions": _MODEL_CONSTRUCTIONS["count"],
        "waves_per_cu": result.occupancy.waves_per_cu,
        "workgroups_per_cu": result.occupancy.workgroups_per_cu,
        "limiters": result.occupancy.limiters,
        "l2_hit_rate": result.l2_hit_rate,
        "dram_bytes": result.dram_bytes,
    }


class StudyMTModel:
    """Whole-study engine tiling the kernel axis across a process pool.

    Registered as ``study-mt`` in the ``interval`` family: point and
    per-kernel grid queries resolve to its family siblings, and its
    study results are bit-exact against ``interval-batch`` (and
    ``rtol=1e-12`` against the scalar oracle), so the two study
    engines are interchangeable everywhere but in wall-clock.
    """

    supports_point = False
    supports_grid = False
    supports_study = True

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        tiles_per_worker: int = DEFAULT_TILES_PER_WORKER,
        tile_timeout_s: float = DEFAULT_TILE_TIMEOUT_S,
        _chaos_kill_tiles: Tuple[int, ...] = (),
    ):
        self._executor = TileExecutor(
            workers or max(1, multiprocessing.cpu_count() - 1),
            tile_timeout_s=tile_timeout_s,
            max_retries=0,
        )
        self._tiles_per_worker = max(1, tiles_per_worker)
        # Test-only fault injection: tile indices whose pool attempt
        # dies mid-study (the serial fallback must still be exact).
        self._chaos_kill_tiles = frozenset(_chaos_kill_tiles)
        self._stats = SupervisionStats()

    def descriptor(self) -> EngineDescriptor:
        """Identity registered for this engine."""
        return STUDY_MT_DESCRIPTOR

    @property
    def workers(self) -> int:
        """Worker-process count the pool is sized for."""
        return self._executor.workers

    @property
    def last_stats(self) -> SupervisionStats:
        """Supervision counters from the most recent study."""
        return self._stats

    def close(self) -> None:
        """Tear down the persistent pool (recreated lazily on use)."""
        self._executor.close()

    def simulate_study(
        self, pack: KernelPack, space: GridSpace
    ) -> StudyGridResult:
        """Evaluate the whole study, tiled along the kernel axis.

        Identical output to ``BatchIntervalModel.simulate_study`` on
        the same pack and space, whatever the pool does.
        """
        n_kernels = len(pack)
        n_cu = space.shape[0]
        bounds = tile_bounds(
            n_kernels, self.workers * self._tiles_per_worker
        )
        payloads = [
            {
                "pack": pack.subset(lo, hi),
                "space": space,
                "kill": index in self._chaos_kill_tiles,
            }
            for index, (lo, hi) in enumerate(bounds)
        ]
        # Arm each chaos tile for one study only.
        self._chaos_kill_tiles = frozenset()

        l2_hit_rate = np.empty((n_kernels, n_cu), dtype=np.float64)
        dram_bytes = np.empty((n_kernels, n_cu), dtype=np.float64)
        waves_per_cu = np.empty(n_kernels, dtype=np.int64)
        workgroups_per_cu = np.empty(n_kernels, dtype=np.int64)
        limiters: List[str] = [""] * n_kernels
        worker_models: Dict[int, int] = {}

        def on_tile(index: int, tile: dict) -> None:
            lo, hi = bounds[index]
            waves_per_cu[lo:hi] = tile["waves_per_cu"]
            workgroups_per_cu[lo:hi] = tile["workgroups_per_cu"]
            limiters[lo:hi] = tile["limiters"]
            l2_hit_rate[lo:hi] = tile["l2_hit_rate"]
            dram_bytes[lo:hi] = tile["dram_bytes"]
            worker_models[tile["pid"]] = tile["model_constructions"]

        time_s, self._stats = self._executor.run(
            _simulate_tile, payloads, bounds,
            (n_kernels,) + tuple(space.shape), on_tile,
        )
        self._stats.worker_models = worker_models

        # The exact expression the batch engine ends with — int64
        # column over the float64 tensor — re-derived over the
        # assembled rows, so tiling commutes with the division bitwise.
        global_size = pack.geometry["global_size"]
        items_per_second = (
            global_size.reshape(n_kernels, 1, 1, 1) / time_s
        )
        return StudyGridResult(
            kernel_names=pack.names,
            time_s=time_s,
            items_per_second=items_per_second,
            occupancy=BatchOccupancy(
                waves_per_cu=waves_per_cu,
                workgroups_per_cu=workgroups_per_cu,
                limiters=tuple(limiters),
                wave_slot_cap=space.uarch.max_waves_per_cu,
            ),
            l2_hit_rate=l2_hit_rate,
            dram_bytes=dram_bytes,
            global_size=global_size.copy(),
        )
