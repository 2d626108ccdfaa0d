"""Multiprocess sweep collection with worker supervision.

The batch interval engine completes the full 237,897-point study in a
fraction of a second on one core, but iteration workflows (ablation
sweeps, noise studies, alternative hardware families, ML-style sampling
campaigns) re-run it many times. :class:`ParallelSweepRunner`
partitions the kernel list across worker processes — simulation is
embarrassingly parallel per kernel row — and reassembles an
identical-to-serial dataset (bit-exact: the model is deterministic and
rows are independent).

The pool is *supervised* rather than trusted: every chunk result is
awaited with a timeout, so a hung or crashed worker fails the chunk
visibly instead of blocking the campaign forever. A failed chunk is
retried (bounded, with backoff) on a fresh pool; a chunk that keeps
failing degrades to in-process serial execution, which also covers
sandboxed environments where a process pool cannot be created at all.
Worker-side failures come back as structured records naming the
originating kernel, not as bare pickled tracebacks.

Kernels and the configuration space travel to workers as plain dicts,
including the microarchitecture, so non-default hardware families
(e.g. :data:`repro.gpu.families.APU_SPACE`) parallelise the same way
the paper grid does.

Result rows travel back through a ``multiprocessing.shared_memory``
segment rather than the result pickle: the parent allocates one
``(n_kernels, n_cu, n_eng, n_mem)`` float64 ndarray up front, each
chunk payload carries the segment name plus the chunk's kernel-row
offset, and workers write their rows straight into the mapped buffer —
the pickled result shrinks to quarantine metadata. Retried chunks
simply rewrite their rows (deterministic data, idempotent), degraded
chunks are written by the parent, and any failure to create or attach
the segment falls back to pickling rows exactly as before, so
supervision and quarantine semantics are unchanged.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.shm import (
    create_segment,
    ensure_tracker,
    untrack_segment,
    write_rows,
)
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

#: Target chunks per worker: small enough that chunk completions give
#: useful progress ticks, large enough to amortise pickling.
_CHUNKS_PER_WORKER = 4

#: How long to wait for one chunk before declaring its worker wedged.
DEFAULT_CHUNK_TIMEOUT_S = 300.0

#: Retries per chunk (on a fresh pool) before degrading to serial.
DEFAULT_MAX_RETRIES = 2

#: Base backoff between retries; multiplied by the attempt number.
DEFAULT_RETRY_BACKOFF_S = 0.25


# The shared-memory transport lives in repro.shm so the study-mt
# engine can share the layout without a gpu -> sweep import; these
# aliases keep the established monkeypatch/injection points stable.
_untrack_shared_memory = untrack_segment
_write_rows_shared = write_rows


def _sweep_chunk(payload: dict) -> dict:
    """Worker: sweep a chunk of kernels (serialised as dicts).

    Returns a structured result instead of raising, so the parent can
    surface a failure with the originating kernel's name rather than a
    bare pickled traceback. Kernels and the space travel as plain
    dicts so the worker start method (fork or spawn) does not matter.
    Rows are written into the parent's shared-memory result array when
    the payload names one (zero-copy); otherwise — or if attaching
    fails — they are pickled back as before.
    """
    try:
        kernels = [Kernel.from_dict(p) for p in payload["kernels"]]
        space = ConfigurationSpace.from_dict(payload["space"])
        engine = payload["engine"]  # a registry name string
        simulator = GpuSimulator(engine)
        specs = [FaultSpec.from_dict(s) for s in payload.get("faults", [])]
        if specs:
            simulator = FaultyEngine(simulator, specs)
        runner = SweepRunner(
            engine, payload["mode"], simulator=simulator
        )
        dataset = runner.run(kernels, space, strict=payload["strict"])
        shm_info = payload.get("shm")
        if shm_info is not None and _write_rows_shared(
            shm_info, dataset.perf
        ):
            return {"ok": True, "quarantined": dataset.quarantined}
        return {
            "ok": True,
            "perf": dataset.perf,
            "quarantined": dataset.quarantined,
        }
    except Exception as exc:
        return {
            "ok": False,
            "kernel": getattr(exc, "kernel_name", None),
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }


@dataclass
class SupervisionStats:
    """Counters describing one supervised parallel run."""

    retries: int = 0
    timeouts: int = 0
    degraded_chunks: int = 0
    pool_unavailable: bool = False
    worker_errors: List[str] = field(default_factory=list)


class ParallelSweepRunner:
    """Sweep kernels across a supervised pool of worker processes."""

    def __init__(
        self,
        engine: EngineSpec = "interval",
        workers: Optional[int] = None,
        grid_mode: str = "batch",
        *,
        chunk_timeout_s: float = DEFAULT_CHUNK_TIMEOUT_S,
        max_retries: int = DEFAULT_MAX_RETRIES,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
        faults: Sequence[FaultSpec] = (),
    ):
        self._engine_name = normalize_engine(engine)
        self._workers = workers or max(
            1, multiprocessing.cpu_count() - 1
        )
        self._mode = normalize_grid_mode(grid_mode)
        self._chunk_timeout_s = chunk_timeout_s
        self._max_retries = max_retries
        self._retry_backoff_s = retry_backoff_s
        self._faults = list(faults)
        self._stats = SupervisionStats()

    @property
    def workers(self) -> int:
        """Worker-process count."""
        return self._workers

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

    def run(
        self,
        kernels: Sequence[Kernel],
        space: ConfigurationSpace = PAPER_SPACE,
        progress: Optional[ProgressCallback] = None,
        strict: bool = True,
    ) -> ScalingDataset:
        """Collect the dataset; identical to the serial runner's.

        *progress*, when given, is called as chunks of kernel rows
        complete with ``(rows_done, rows_total)`` — the same signature
        as the serial runner's callback. Each chunk is counted exactly
        once, even when it is retried or degraded to serial execution.
        """
        check_kernel_list(kernels)
        names = [k.full_name for k in kernels]
        self._stats = SupervisionStats()

        if self._workers == 1 or len(kernels) < 2 * self._workers:
            return self._serial_runner().run(
                kernels, space, progress, strict=strict
            )

        chunk_size = -(-len(kernels) // (self._workers * _CHUNKS_PER_WORKER))
        chunks = [
            list(kernels[i:i + chunk_size])
            for i in range(0, len(kernels), chunk_size)
        ]
        offsets = [0] * len(chunks)
        for i in range(1, len(chunks)):
            offsets[i] = offsets[i - 1] + len(chunks[i - 1])

        result_shape = (len(kernels),) + space.shape
        shm = self._create_shared_result(result_shape)
        try:
            space_payload = space.to_dict()
            fault_payloads = [s.to_dict() for s in self._faults]
            payloads = [
                {
                    "kernels": [k.to_dict() for k in chunk],
                    "space": space_payload,
                    "engine": self._engine_name,
                    "mode": self._mode,
                    "strict": strict,
                    "faults": fault_payloads,
                    **(
                        {
                            "shm": {
                                "name": shm.name,
                                "shape": list(result_shape),
                                "offset": offsets[i],
                            }
                        }
                        if shm is not None
                        else {}
                    ),
                }
                for i, chunk in enumerate(chunks)
            ]

            results = self._supervise(
                chunks, payloads, space, progress, strict,
                total=len(kernels),
            )

            perf = np.empty(result_shape, dtype=np.float64)
            shared_view = (
                np.ndarray(result_shape, dtype=np.float64, buffer=shm.buf)
                if shm is not None
                else None
            )
            for i, chunk in enumerate(chunks):
                lo = offsets[i]
                hi = lo + len(chunk)
                chunk_perf = results[i].get("perf")
                if chunk_perf is not None:
                    # Pickle fallback or parent-side serial degradation.
                    perf[lo:hi] = chunk_perf
                else:
                    perf[lo:hi] = shared_view[lo:hi]
        finally:
            if shm is not None:
                shm.close()
                try:
                    shm.unlink()
                except FileNotFoundError:
                    pass

        quarantined: Dict[str, str] = {}
        for i in range(len(chunks)):
            quarantined.update(results[i]["quarantined"])
        records = [KernelRecord.from_full_name(name) for name in names]
        return ScalingDataset(space, records, perf, quarantined=quarantined)

    @staticmethod
    def _create_shared_result(result_shape) -> Optional[
        shared_memory.SharedMemory
    ]:
        """The shared result segment, or ``None`` to pickle rows back."""
        return create_segment(result_shape)

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------

    def _serial_runner(self) -> SweepRunner:
        """An in-process runner with the same engine (and faults)."""
        simulator = GpuSimulator(self._engine_name)
        if self._faults:
            simulator = FaultyEngine(simulator, self._faults)
        return SweepRunner(
            self._engine_name, self._mode, simulator=simulator
        )

    def _make_pool(self):
        """A worker pool, or ``None`` where pools cannot be created
        (e.g. sandboxes that forbid spawning processes)."""
        try:
            # Workers must inherit the parent's shm resource tracker
            # (a private per-worker tracker mistakes the parent's
            # result segment for a leak at exit).
            ensure_tracker()
            return multiprocessing.Pool(self._workers)
        except (OSError, PermissionError, RuntimeError, ValueError):
            return None

    def _supervise(
        self,
        chunks: List[List[Kernel]],
        payloads: List[dict],
        space: ConfigurationSpace,
        progress: Optional[ProgressCallback],
        strict: bool,
        total: int,
    ) -> Dict[int, dict]:
        """Run every chunk to completion, whatever the workers do.

        Chunks are submitted to the pool and collected in order with a
        per-chunk timeout. On a timeout, a crashed worker, or a
        structured worker failure, the pool is torn down and the
        incomplete chunks are resubmitted to a fresh one (completed
        results are kept); a chunk that exhausts its retries runs
        serially in-process. If no pool can be created, everything
        runs serially.
        """
        n_chunks = len(chunks)
        results: Dict[int, dict] = {}
        attempts = [0] * n_chunks
        stats = self._stats

        def tick() -> None:
            if progress is not None:
                done = sum(len(chunks[i]) for i in results)
                progress(done, total)

        def run_serial(index: int) -> None:
            dataset = self._serial_runner().run(
                chunks[index], space, strict=strict
            )
            results[index] = {
                "ok": True,
                "perf": dataset.perf,
                "quarantined": dataset.quarantined,
            }
            tick()

        pool = self._make_pool()
        if pool is None:
            stats.pool_unavailable = True
        try:
            while len(results) < n_chunks:
                remaining = [i for i in range(n_chunks) if i not in results]
                if pool is None:
                    for index in remaining:
                        run_serial(index)
                    break

                pending = {
                    i: pool.apply_async(_sweep_chunk, (payloads[i],))
                    for i in remaining
                }
                failed = None
                for i in sorted(pending):
                    try:
                        outcome = pending[i].get(self._chunk_timeout_s)
                    except multiprocessing.TimeoutError:
                        stats.timeouts += 1
                        stats.worker_errors.append(
                            f"chunk {i} ({chunks[i][0].full_name}, ...): "
                            f"no result within {self._chunk_timeout_s:g}s "
                            "(worker hung or crashed)"
                        )
                        failed = i
                        break
                    except Exception as exc:
                        stats.worker_errors.append(
                            f"chunk {i}: pool failure "
                            f"{type(exc).__name__}: {exc}"
                        )
                        failed = i
                        break
                    if outcome["ok"]:
                        results[i] = outcome
                        tick()
                        continue
                    stats.worker_errors.append(
                        f"chunk {i}: {outcome['error']}"
                        + (f" (kernel {outcome['kernel']})"
                           if outcome.get("kernel") else "")
                    )
                    if strict and outcome.get("kernel"):
                        # A deterministic per-kernel simulation failure:
                        # retrying cannot help, surface it immediately
                        # with the kernel's name.
                        raise SimulationError(
                            outcome["kernel"], outcome["error"]
                        )
                    failed = i
                    break

                if failed is None:
                    continue
                attempts[failed] += 1
                _shutdown(pool)
                pool = None
                if attempts[failed] > self._max_retries:
                    stats.degraded_chunks += 1
                    run_serial(failed)
                else:
                    stats.retries += 1
                    if self._retry_backoff_s > 0:
                        time.sleep(
                            self._retry_backoff_s * attempts[failed]
                        )
                pool = self._make_pool()
                if pool is None:
                    stats.pool_unavailable = True
        finally:
            if pool is not None:
                _shutdown(pool)
        return results


def _shutdown(pool) -> None:
    """Terminate a pool, reaping hung or runaway workers."""
    pool.terminate()
    pool.join()
