"""Supervised kernel-axis tile executor for the multi-core sweep.

Every kernel row of the study is independent, so
:class:`~repro.sweep.parallel.ParallelSweepRunner` splits the kernel
axis into contiguous tiles (:func:`tile_bounds`, which the serial study
engine also uses to cache-block its lattice) and hands them to one
:class:`TileExecutor`. A caller supplies a module-level *tile function*
(``payload -> result dict``, whose ``"rows"`` are the tile's float64
result rows) and an ``on_tile`` callback; the executor owns the
persistent pool, the shared-memory write-back of rows, per-tile
timeouts, retries and the serial fallback, which calls the same tile
function in-process (so fault hooks meant for workers check
:func:`in_worker`). DESIGN.md, "Tile executor", has the rules. The
module is neutral in the package hierarchy: ``repro.gpu`` must not
import ``repro.sweep``, and both use it.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: How long to wait for one tile before declaring its worker wedged.
DEFAULT_TILE_TIMEOUT_S = 300.0


def in_worker() -> bool:
    """True inside a multiprocessing pool worker (a daemon process)."""
    return multiprocessing.current_process().daemon


def tile_bounds(n: int, n_tiles: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal row tiles ``[(lo, hi), ...]`` covering *n*."""
    n_tiles = max(1, min(n, n_tiles))
    edges = [n * i // n_tiles for i in range(n_tiles + 1)]
    return list(zip(edges[:-1], edges[1:]))


def untrack_segment(segment: shared_memory.SharedMemory) -> None:
    """Detach *segment* from this process's resource tracker.

    Creating or attaching registers the segment with the tracker
    (bpo-39959); a process with its *own* tracker must unregister or
    its exit unlinks a segment another process still owns. Pool workers
    inherit the creator's tracker, where attach-register is a set no-op
    and unregistering would drop the creator's sole entry, so the
    executor's workers never call this.
    """
    try:
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


def create_segment(shape) -> Optional[shared_memory.SharedMemory]:
    """A parent-owned float64 segment sized for *shape*, or ``None``
    where shared memory is unavailable (rows then ride the pickle)."""
    n_bytes = int(np.prod(shape)) * np.dtype(np.float64).itemsize
    try:
        return shared_memory.SharedMemory(create=True, size=max(1, n_bytes))
    except Exception:
        return None


#: A pool worker's attachment to the current run's segment: attached by
#: the first tile naming it, reused by later ones, closed when a later
#: run brings a new segment.
_WORKER_SEGMENT: Dict[str, object] = {"name": None, "segment": None,
                                      "view": None}


def _write_rows(shm_info: dict, rows: np.ndarray) -> bool:
    """Worker: write one tile's rows into the shared result; ``False``
    (the rows are pickled instead) if the segment cannot be attached."""
    if _WORKER_SEGMENT["name"] != shm_info["name"]:
        if _WORKER_SEGMENT["segment"] is not None:
            _WORKER_SEGMENT["segment"].close()
        _WORKER_SEGMENT.update(name=None, segment=None, view=None)
        try:
            segment = shared_memory.SharedMemory(name=shm_info["name"])
        except (OSError, ValueError):
            return False
        view = np.ndarray(tuple(shm_info["shape"]), dtype=np.float64,
                          buffer=segment.buf)
        _WORKER_SEGMENT.update(name=shm_info["name"], segment=segment,
                               view=view)
    offset = shm_info["offset"]
    _WORKER_SEGMENT["view"][offset:offset + rows.shape[0]] = rows
    return True


def _pool_tile(tile_fn, payload: dict, shm_info: Optional[dict]) -> dict:
    """Worker: run one tile, moving its rows through shared memory."""
    result = tile_fn(payload)
    rows = result.get("rows")
    if shm_info is not None and rows is not None and _write_rows(
        shm_info, rows
    ):
        del result["rows"]
        result["shared"] = True
    return result


@dataclass
class SupervisionStats:
    """Counters describing one supervised tile run."""

    tiles: int = 0
    pool_workers: int = 0
    used_pool: bool = False
    shm_used: bool = False
    pool_unavailable: bool = False
    retries: int = 0
    timeouts: int = 0
    #: Tiles that exhausted their retries and ran in-process.
    degraded_tiles: int = 0
    worker_errors: List[str] = field(default_factory=list)


class TileExecutor:
    """Runs row tiles on a supervised, persistent process pool."""

    def __init__(
        self,
        workers: int,
        *,
        tile_timeout_s: float,
        max_retries: int,
        retry_backoff_s: float = 0.0,
    ):
        self.workers = workers
        self._tile_timeout_s = tile_timeout_s
        self._max_retries = max_retries
        self._retry_backoff_s = retry_backoff_s
        self._pool = None

    def close(self) -> None:
        """Tear down the pool (recreated lazily on the next run)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def _ensure_pool(self):
        """The persistent pool, or ``None`` where none can be created
        (inside a daemonic pool worker, or sandboxes without fork)."""
        if self._pool is None and not in_worker():
            try:
                # Start the resource tracker before forking so workers
                # inherit it: a private per-worker tracker mistakes the
                # parent's segment for a leak at worker exit.
                resource_tracker.ensure_running()
                self._pool = multiprocessing.Pool(self.workers)
            except (OSError, RuntimeError, ValueError):
                self._pool = None
        return self._pool

    def run(
        self,
        tile_fn: Callable[[dict], dict],
        payloads: Sequence[dict],
        bounds: Sequence[Tuple[int, int]],
        rows_shape: Tuple[int, ...],
        on_tile: Callable[[int, dict], None],
    ) -> Tuple[np.ndarray, SupervisionStats]:
        """Evaluate every tile; the assembled rows and the run's stats.

        ``tile_fn(payloads[i])`` returns a dict whose ``"rows"`` (when
        present) are rows ``bounds[i]`` of a ``rows_shape`` float64
        result; the rest of the dict goes to ``on_tile(i, result)``,
        exactly once per tile whatever the workers do. An exception
        from ``on_tile`` aborts the run and discards the pool.
        """
        stats = SupervisionStats(tiles=len(bounds), pool_workers=self.workers)
        rows = np.empty(rows_shape, dtype=np.float64)
        remaining = list(range(len(bounds)))
        attempts = [0] * len(bounds)

        def place(index: int, result: dict, view=None) -> None:
            lo, hi = bounds[index]
            if result.pop("shared", False):
                rows[lo:hi] = view[lo:hi]
            elif result.get("rows") is not None:
                rows[lo:hi] = result.pop("rows")
            on_tile(index, result)

        def run_here(indices: List[int]) -> None:
            for index in indices:
                place(index, tile_fn(payloads[index]))

        pool = None
        if self.workers > 1 and len(bounds) > 1:
            pool = self._ensure_pool()
            stats.pool_unavailable = pool is None
        if pool is None:
            run_here(remaining)
            return rows, stats

        stats.used_pool = True
        segment = create_segment(rows_shape)
        stats.shm_used = segment is not None
        view = None
        if segment is not None:
            view = np.ndarray(rows_shape, dtype=np.float64, buffer=segment.buf)
        try:
            while remaining:
                handles = {
                    index: pool.apply_async(_pool_tile, (
                        tile_fn, payloads[index],
                        None if segment is None else {
                            "name": segment.name, "shape": list(rows_shape),
                            "offset": bounds[index][0],
                        },
                    ))
                    for index in remaining
                }
                failed = None
                for index in list(remaining):
                    try:
                        result = handles[index].get(self._tile_timeout_s)
                    except multiprocessing.TimeoutError:
                        stats.timeouts += 1
                        error = (f"no result within {self._tile_timeout_s:g}s"
                                 " (worker hung or died)")
                    except Exception as exc:
                        error = f"{type(exc).__name__}: {exc}"
                    else:
                        remaining.remove(index)
                        place(index, result, view)
                        continue
                    lo, hi = bounds[index]
                    stats.worker_errors.append(
                        f"tile {index} [{lo}:{hi}): {error}"
                    )
                    failed = index
                    break
                if failed is None:
                    break
                # Discard the pool (reaping a hung worker); the failed
                # tile retries on a fresh one, then runs in-process.
                self.close()
                attempts[failed] += 1
                if attempts[failed] > self._max_retries:
                    stats.degraded_tiles += 1
                    remaining.remove(failed)
                    run_here([failed])
                else:
                    stats.retries += 1
                    time.sleep(self._retry_backoff_s * attempts[failed])
                pool = self._ensure_pool()
                if pool is None:
                    stats.pool_unavailable = True
                    run_here(remaining)
                    break
        except BaseException:
            self.close()
            raise
        finally:
            del view
            if segment is not None:
                segment.close()
                try:
                    segment.unlink()
                except FileNotFoundError:
                    pass
        return rows, stats
