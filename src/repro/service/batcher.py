"""The inference-style micro-batcher over a timing engine.

Concurrent queries arrive one HTTP request at a time, but the engines
underneath are fastest when asked big questions: the study engine
evaluates the entire kernel x configuration lattice in one broadcast.
:class:`MicroBatcher` closes that gap the way an inference server
batches model calls (continuous batching): queries enter a bounded
admission queue, and the collector is *work-conserving* — it takes
the first queued query, drains every query already waiting behind it
(up to ``max_batch``) without awaiting, and dispatches at once, so a
query that finds the engine idle never waits on a timer. Batches grow
under load by themselves: queries that arrive while one batch runs on
the engine thread queue up and form the next batch as a whole.
``max_wait_ms`` (default 0) is an optional linger on top: when
positive and the drain left the batch short of ``max_batch``, the
collector waits up to that long from the batch's first query for more
peers. Each batch dispatches as the *fewest* engine calls that
preserve bit-exactness:

* grid queries sharing a configuration space coalesce into **one**
  ``simulate_study`` call (pack rows are bitwise identical to
  per-kernel ``simulate_grid`` results — the PR 3 invariant this
  module leans on and the service tests re-pin);
* duplicate queries — same kernel, same config or space — are
  evaluated **once** and fanned out to every waiting caller;
* point queries keep the scalar point engine's exact numerics and
  amortise only the executor dispatch.

Failure isolation mirrors the sweep layer: an engine failure is
attributed to the query that caused it and *only* that query — batch
peers get their results. A failing ``simulate_study`` is retried
kernel by kernel so one poisoned kernel cannot take down its batch.

Each query kind is one frozen dataclass that declares everything the
service needs to know about it: its ``shape`` label (the engine-call
metric label and its kind on the fleet wire), its fleet ``shard_key``,
whether a slow answer may be ``hedged``, how it evaluates itself, and,
for the ``cached`` kinds, how it reads and writes its entry in the
content-addressed sweep cache (:mod:`repro.sweep.cache`) — grid
surfaces as single-kernel datasets, energy surfaces as their arrays —
so a repeated query never touches the engine again, across restarts.
The batcher itself knows one kind by name: grid queries, which it
coalesces per space.

Backpressure is explicit: a full admission queue raises
:class:`OverloadError` (HTTP 429), a query that waits longer than its
timeout raises :class:`ServiceTimeoutError` (HTTP 503), and a stopped
batcher raises :class:`ServiceClosedError` (HTTP 503).
``stop(drain=True)`` refuses new work but answers everything already
admitted before returning.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ReproError
from repro.gpu.config import HardwareConfig
from repro.kernels.kernel import Kernel
from repro.sweep.cache import sweep_fingerprint
from repro.sweep.space import ConfigurationSpace

#: Default linger for batch peers (milliseconds): 0 dispatches as
#: soon as the engine is idle.
DEFAULT_MAX_WAIT_MS = 0.0

#: Default batch-size cap.
DEFAULT_MAX_BATCH = 64

#: Default admission-queue bound.
DEFAULT_QUEUE_LIMIT = 1024

#: Maps a configuration space to its fleet shard digest.
SpaceDigest = Callable[[ConfigurationSpace], str]


class OverloadError(ReproError):
    """The admission queue is full; the caller should shed load (429).

    *retry_after* is the shedding side's own estimate (seconds) of when
    the queue will have drained — computed from current depth and the
    observed drain rate, never a hard-coded constant — and becomes the
    429 response's ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class ServiceTimeoutError(ReproError):
    """A query exceeded its per-request timeout while queued (503)."""


class DeadlineExceededError(ServiceTimeoutError):
    """A query's absolute deadline passed before it was answered (503).

    Deadlines propagate from HTTP admission through the router into
    every worker's batcher as absolute ``time.monotonic()`` values, so
    any hop can (and does) cancel work the client has already given up
    on instead of orphaning it. Subclasses
    :class:`ServiceTimeoutError` so every existing timeout-handling
    path treats it correctly by default.
    """


class ServiceClosedError(ReproError):
    """The batcher is stopped or draining; no new work admitted (503)."""


@dataclass(frozen=True)
class PointQuery:
    """One (kernel, hardware point) evaluation."""

    kernel: Kernel
    config: HardwareConfig

    #: The kind's label on the wire and in ``gpuscale_engine_calls_total``.
    shape: ClassVar[str] = "point"
    #: Whether a slow answer may be hedged onto a second fleet worker.
    hedged: ClassVar[bool] = False
    #: Whether answers read through and write back to the sweep cache.
    cached: ClassVar[bool] = False

    def shard_key(self, space_digest: SpaceDigest) -> str:
        """Points shard by ``(kernel, config)`` identity."""
        config = self.config
        return (
            f"p|{self.kernel.full_name}|{config.cu_count}"
            f"|{config.engine_mhz}|{config.memory_mhz}"
        )

    def evaluate(self, batcher: "MicroBatcher") -> "PointResult":
        result = batcher._simulator.simulate(self.kernel, self.config)
        return PointResult(
            kernel_name=self.kernel.full_name,
            time_s=float(result.time_s),
            items_per_second=float(result.items_per_second),
        )


@dataclass(frozen=True)
class GridQuery:
    """One (kernel, configuration space) surface evaluation.

    Grid queries sharing a space coalesce into one study call; see
    :meth:`MicroBatcher._evaluate`.
    """

    kernel: Kernel
    space: ConfigurationSpace

    shape: ClassVar[str] = "grid"
    hedged: ClassVar[bool] = True
    cached: ClassVar[bool] = True

    def shard_key(self, space_digest: SpaceDigest) -> str:
        """Grids shard by ``(family, space, engine)`` alone, so every
        query against one surface lands on one worker's batcher."""
        return f"g|{space_digest(self.space)}"

    def evaluate(self, batcher: "MicroBatcher") -> "GridResult":
        grid = batcher._simulator.simulate_grid(self.kernel, self.space)
        return self.result(grid.items_per_second)

    def result(
        self, items_per_second: Any, from_cache: bool = False
    ) -> "GridResult":
        """This query's answer around a throughput surface."""
        return GridResult(
            kernel_name=self.kernel.full_name,
            items_per_second=np.asarray(items_per_second),
            global_size=self.kernel.geometry.global_size,
            from_cache=from_cache,
        )

    def cache_load(self, cache: Any, fingerprint: str):
        dataset = cache.load(fingerprint)
        if dataset is None:
            return None
        return self.result(dataset.perf[0], from_cache=True)

    def cache_store(
        self, cache: Any, fingerprint: str, result: "GridResult"
    ) -> None:
        from repro.sweep.dataset import KernelRecord, ScalingDataset

        cache.store(
            fingerprint,
            ScalingDataset(
                self.space,
                [KernelRecord.from_full_name(result.kernel_name)],
                result.items_per_second[np.newaxis, ...],
            ),
        )


@dataclass(frozen=True)
class EnergyGridQuery:
    """One (kernel, space) energy-surface evaluation.

    Answered by the vectorized :class:`~repro.power.energy.EnergyModel`
    over the batcher's simulator, so the timing half is one engine grid
    call and duplicate frontier sweeps coalesce exactly like grid
    queries do.
    """

    kernel: Kernel
    space: ConfigurationSpace

    shape: ClassVar[str] = "energy"
    hedged: ClassVar[bool] = True
    cached: ClassVar[bool] = True

    def shard_key(self, space_digest: SpaceDigest) -> str:
        return f"e|{self.kernel.full_name}|{space_digest(self.space)}"

    def evaluate(self, batcher: "MicroBatcher") -> "EnergyGridResult":
        surface = batcher.energy_model.surfaces(self.kernel, self.space)
        return _result_from(EnergyGridResult, surface)

    def cache_load(self, cache: Any, fingerprint: str):
        arrays = cache.load_energy(fingerprint)
        if arrays is None:
            return None
        return EnergyGridResult(
            kernel_name=self.kernel.full_name, from_cache=True, **arrays
        )

    def cache_store(
        self, cache: Any, fingerprint: str, result: "EnergyGridResult"
    ) -> None:
        cache.store_energy(fingerprint, result)


@dataclass(frozen=True)
class PairGridQuery:
    """One co-scheduled (kernel pair, space) surface evaluation.

    ``kernel_b=None`` is the idle-partner form (reproduces the solo
    surface — useful as a baseline through the identical code path).
    """

    kernel_a: Kernel
    kernel_b: Optional[Kernel]
    space: ConfigurationSpace

    shape: ClassVar[str] = "pair"
    hedged: ClassVar[bool] = True
    cached: ClassVar[bool] = False

    def shard_key(self, space_digest: SpaceDigest) -> str:
        partner = "-" if self.kernel_b is None else self.kernel_b.full_name
        return (
            f"x|{self.kernel_a.full_name}|{partner}"
            f"|{space_digest(self.space)}"
        )

    def evaluate(self, batcher: "MicroBatcher") -> "PairGridResult":
        surface = batcher.coschedule_model.pair_surface(
            self.kernel_a, self.kernel_b, self.space
        )
        return _result_from(PairGridResult, surface)


Query = Union[PointQuery, GridQuery, EnergyGridQuery, PairGridQuery]

#: Every query dataclass submit() admits.
QUERY_TYPES = (PointQuery, GridQuery, EnergyGridQuery, PairGridQuery)

#: Query classes by their ``shape`` label, which is also the wire kind.
QUERY_KINDS = {cls.shape: cls for cls in QUERY_TYPES}


def check_query(query: Any) -> None:
    """Refuse anything that is not one of the query dataclasses."""
    if not isinstance(query, QUERY_TYPES):
        raise TypeError(f"not a query: {query!r}")


def _result_from(cls: type, surface: Any) -> Any:
    """A result dataclass filled from the model surface's same-named
    attributes."""
    return cls(**{
        f.name: getattr(surface, f.name)
        for f in fields(cls)
        if hasattr(surface, f.name)
    })


@dataclass(frozen=True)
class PointResult:
    """A point query's answer, bit-for-bit the point engine's."""

    kernel_name: str
    time_s: float
    items_per_second: float


@dataclass(frozen=True)
class GridResult:
    """A grid query's answer: the kernel's throughput surface.

    ``items_per_second`` has the space's ``(n_cu, n_eng, n_mem)``
    shape and is bitwise identical whether it came from a coalesced
    study call, a solo grid call, or the sweep cache. Time is *always*
    derived as ``global_size / items_per_second`` by consumers, so
    every path reports identical bits for both tensors.
    """

    kernel_name: str
    items_per_second: np.ndarray
    global_size: int
    from_cache: bool = False

    @property
    def time_s(self) -> np.ndarray:
        """Execution time per configuration (derived, see class doc)."""
        return self.global_size / self.items_per_second


@dataclass(frozen=True)
class EnergyGridResult:
    """An energy query's answer: time/power/energy over the space.

    All three arrays have the space's ``(n_cu, n_eng, n_mem)`` shape
    and carry the vectorized :class:`~repro.power.energy.EnergyModel`
    bits unchanged, whether they came from the engine or from the
    energy cache — the optimiser's argmin/frontier sweep over them is
    therefore identical on every path.
    """

    kernel_name: str
    time_s: np.ndarray
    power_w: np.ndarray
    energy_j: np.ndarray
    global_size: int
    from_cache: bool = False

    @property
    def items_per_second(self) -> np.ndarray:
        """Throughput at every grid point."""
        return self.global_size / self.time_s


@dataclass(frozen=True)
class PairGridResult:
    """A pair query's answer: both kernels' contended surfaces.

    The ``*_b`` fields are None for the idle-partner (solo) form, in
    which case ``time_a`` is bitwise the kernel's solo surface.
    """

    kernel_a: str
    kernel_b: Optional[str]
    time_a: np.ndarray
    time_b: Optional[np.ndarray]
    solo_time_a: np.ndarray
    solo_time_b: Optional[np.ndarray]
    makespan_s: np.ndarray
    power_w: np.ndarray
    energy_j: np.ndarray
    global_size_a: int
    global_size_b: Optional[int]

    @property
    def slowdown_a(self) -> np.ndarray:
        """Kernel A's contended slowdown at every grid point."""
        return self.time_a / self.solo_time_a

    @property
    def slowdown_b(self) -> Optional[np.ndarray]:
        """Kernel B's contended slowdown (None when solo)."""
        if self.time_b is None:
            return None
        return self.time_b / self.solo_time_b

    @property
    def stp(self) -> np.ndarray:
        """System throughput (sum of reciprocal slowdowns)."""
        if self.time_b is None:
            return 1.0 / self.slowdown_a
        return 1.0 / self.slowdown_a + 1.0 / self.slowdown_b

    @property
    def antt(self) -> np.ndarray:
        """Average normalised turnaround time (mean slowdown)."""
        if self.time_b is None:
            return self.slowdown_a
        return (self.slowdown_a + self.slowdown_b) / 2.0


_STOP = object()


class DrainRateEstimator:
    """EWMA of how fast admitted queries get answered (queries/s).

    Fed one sample per completed micro-batch; asked, on overload, how
    long the current queue depth will take to drain. The estimate is
    clamped to ``[floor_s, cap_s]`` so a cold or idle service still
    gives a sane ``Retry-After`` and a pathological backlog never
    tells clients to go away for hours.
    """

    def __init__(
        self,
        alpha: float = 0.3,
        floor_s: float = 1.0,
        cap_s: float = 60.0,
    ):
        self._alpha = alpha
        self.floor_s = floor_s
        self.cap_s = cap_s
        self._rate_rps = 0.0
        self._last_time: Optional[float] = None

    @property
    def rate_rps(self) -> float:
        """Smoothed drain rate (0.0 until two samples have arrived)."""
        return self._rate_rps

    def record(self, answered: int, now: float) -> None:
        """Fold in one batch of *answered* queries finishing at *now*."""
        if self._last_time is not None and now > self._last_time:
            instant = answered / (now - self._last_time)
            if self._rate_rps <= 0.0:
                self._rate_rps = instant
            else:
                self._rate_rps = (
                    self._alpha * instant
                    + (1.0 - self._alpha) * self._rate_rps
                )
        self._last_time = now

    def retry_after_s(self, depth: int) -> float:
        """Seconds until a *depth*-deep queue should have drained."""
        if depth <= 0 or self._rate_rps <= 0.0:
            return self.floor_s
        return min(max(depth / self._rate_rps, self.floor_s), self.cap_s)


class MicroBatcher:
    """Coalesce concurrent queries into batched engine calls.

    *simulator* is anything with the :class:`~repro.gpu.simulator.
    GpuSimulator` call surface (``simulate``/``simulate_grid`` plus
    the ``supports_*`` flags); the facade itself is the normal choice.
    Engine work runs on a single worker thread — engines carry
    per-instance caches that are not thread-safe, and one thread is
    what makes batching (rather than lock contention) the concurrency
    story.
    """

    def __init__(
        self,
        simulator: Any,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        cache: Optional[Any] = None,
        metrics: Optional[Any] = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {max_wait_ms}"
            )
        if queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {queue_limit}"
            )
        self._simulator = simulator
        self._max_batch = max_batch
        self._max_wait_s = max_wait_ms / 1000.0
        self._queue_limit = queue_limit
        self._cache = cache
        self._metrics = metrics
        self._queue: Optional[asyncio.Queue] = None
        self._collector: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._closed = True
        self._drain_rate = DrainRateEstimator()
        self.batches_dispatched = 0
        self.queries_answered = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Begin collecting; must run inside the serving event loop."""
        if self._collector is not None:
            raise RuntimeError("batcher already started")
        self._queue = asyncio.Queue(maxsize=self._queue_limit + 1)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="gpuscale-engine"
        )
        self._closed = False
        self._collector = asyncio.get_running_loop().create_task(
            self._collect_loop()
        )

    async def stop(self, drain: bool = True) -> None:
        """Stop the batcher.

        With ``drain=True`` (the graceful path) new submissions are
        refused immediately, every admitted query is answered, and the
        worker thread is joined. With ``drain=False`` queued queries
        fail with :class:`ServiceClosedError`.
        """
        if self._collector is None:
            return
        self._closed = True
        if not drain:
            pending: List[Tuple[Query, asyncio.Future, Any]] = []
            while self._queue is not None and not self._queue.empty():
                entry = self._queue.get_nowait()
                if entry is not _STOP:
                    pending.append(entry)
            for entry in pending:
                if not entry[1].done():
                    entry[1].set_exception(
                        ServiceClosedError("service shut down")
                    )
        await self._queue.put(_STOP)
        await self._collector
        self._collector = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._queue = None

    @property
    def running(self) -> bool:
        """True while the batcher accepts queries."""
        return self._collector is not None and not self._closed

    @property
    def pending(self) -> int:
        """Queries waiting in the admission queue."""
        return 0 if self._queue is None else self._queue.qsize()

    def retry_after_s(self) -> float:
        """How long a shed caller should back off, from live state."""
        return self._drain_rate.retry_after_s(self.pending)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    async def submit(
        self,
        query: Query,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> Any:
        """Enqueue *query*; await its result.

        *deadline* is an absolute ``time.monotonic()`` instant: once
        it passes, the query is cancelled wherever it is — refused at
        admission, dropped from its micro-batch before evaluation, or
        failed while awaiting — with
        :class:`DeadlineExceededError`. *timeout* remains the relative
        form; when both are given the earlier one wins.

        Raises :class:`OverloadError` when the admission queue is
        full, :class:`ServiceClosedError` when the batcher is stopped
        or draining, and :class:`ServiceTimeoutError` when the answer
        does not arrive within *timeout* seconds.
        """
        check_query(query)
        if self._closed or self._queue is None:
            raise ServiceClosedError(
                "service is shutting down; no new queries admitted"
            )
        loop = asyncio.get_running_loop()
        remaining: Optional[float] = timeout
        if deadline is not None:
            left = deadline - loop.time()
            if left <= 0:
                self._record_deadline_exceeded()
                raise DeadlineExceededError(
                    "query deadline passed before admission"
                )
            remaining = left if remaining is None else min(remaining, left)
        if self._queue.qsize() >= self._queue_limit:
            raise OverloadError(
                f"admission queue full ({self._queue_limit} queries); "
                "retry with backoff",
                retry_after=self._drain_rate.retry_after_s(
                    self._queue.qsize()
                ),
            )
        future: asyncio.Future = loop.create_future()
        self._queue.put_nowait((query, future, deadline))
        self._note_queue_depth()
        try:
            return await asyncio.wait_for(future, remaining)
        except asyncio.TimeoutError:
            if deadline is not None and deadline - loop.time() <= 0:
                self._record_deadline_exceeded()
                raise DeadlineExceededError(
                    "query deadline passed while awaiting the engine"
                ) from None
            raise ServiceTimeoutError(
                f"query timed out after {timeout}s in the service"
            ) from None

    def _record_deadline_exceeded(self, count: int = 1) -> None:
        if self._metrics is not None:
            record = getattr(
                self._metrics, "record_deadline_exceeded", None
            )
            if record is not None:
                record(count)

    # ------------------------------------------------------------------
    # Collection and dispatch
    # ------------------------------------------------------------------

    async def _collect_loop(self) -> None:
        """Form batches and dispatch them, one at a time: the first
        queued entry plus every entry queued behind it, then a linger
        (armed only when ``max_wait_ms > 0``) while the batch is short
        of ``max_batch``. Arrivals during a dispatch form the next one.
        """
        loop = asyncio.get_running_loop()
        queue = self._queue
        while True:
            entry = await queue.get()
            linger_until = loop.time() + self._max_wait_s
            batch: List[Tuple[Query, asyncio.Future, Any]] = []
            while entry is not _STOP:
                batch.append(entry)
                if len(batch) >= self._max_batch:
                    break
                if not queue.empty():
                    entry = queue.get_nowait()
                    continue
                remaining = linger_until - loop.time()
                if remaining <= 0:
                    break
                try:
                    entry = await asyncio.wait_for(queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
            self._note_queue_depth()
            if batch:
                await self._run_batch(batch)
            if entry is _STOP:
                return

    async def _run_batch(
        self, batch: List[Tuple[Query, asyncio.Future, Any]]
    ) -> None:
        """Dispatch one batch to the worker thread; fan results out."""
        # Dedup on the loop thread: queries are frozen dataclasses, so
        # equal queries hash equal and share one engine evaluation.
        # Queries whose deadline passed while queued are cancelled
        # here — before any engine work — so a saturated batcher never
        # burns its engine thread on answers nobody is waiting for.
        loop = asyncio.get_running_loop()
        now = loop.time()
        waiters: Dict[Query, List[asyncio.Future]] = {}
        expired = 0
        for query, future, deadline in batch:
            if future.done():  # caller timed out or was cancelled
                continue
            if deadline is not None and deadline <= now:
                expired += 1
                future.set_exception(
                    DeadlineExceededError(
                        "query deadline passed while batched; "
                        "evaluation cancelled"
                    )
                )
                continue
            waiters.setdefault(query, []).append(future)
        if expired:
            self._record_deadline_exceeded(expired)
        if not waiters:
            return
        unique = list(waiters)
        outcomes, shapes, cache_stats = await loop.run_in_executor(
            self._executor, self._evaluate, unique
        )
        self.batches_dispatched += 1
        self.queries_answered += len(batch)
        self._drain_rate.record(len(batch), loop.time())
        if self._metrics is not None:
            self._metrics.record_batch(len(batch), shapes)
            for outcome, count in cache_stats.items():
                self._metrics.record_cache(outcome, count)
        for query, futures in waiters.items():
            status, value = outcomes[query]
            for future in futures:
                if future.done():  # caller timed out or was cancelled
                    continue
                if status == "ok":
                    future.set_result(value)
                else:
                    future.set_exception(value)

    def _note_queue_depth(self) -> None:
        if self._metrics is not None and self._queue is not None:
            self._metrics.set_queue_depth(self._queue.qsize())

    # ------------------------------------------------------------------
    # Engine-side evaluation (worker thread)
    # ------------------------------------------------------------------

    def _evaluate(self, queries: List[Query]):
        """Evaluate unique queries with the fewest engine calls.

        Returns ``(outcomes, shapes, cache_stats)`` where *outcomes*
        maps each query to ``("ok", result)`` or ``("err", exception)``
        — one entry per query, always, so a failure never leaks into a
        peer's slot. Each query evaluates itself, except that grid
        queries sharing a space coalesce into one study call.
        """
        outcomes: Dict[Query, Tuple[str, Any]] = {}
        shapes: List[str] = []
        cache_stats = {"hit": 0, "miss": 0, "store": 0}
        fingerprints: Dict[Query, str] = {}
        grids: Dict[ConfigurationSpace, List[GridQuery]] = {}
        for query in queries:
            if self._cache is not None and query.cached:
                fingerprint = sweep_fingerprint(
                    [query.kernel], query.space, self._simulator
                )
                fingerprints[query] = fingerprint
                try:
                    cached = query.cache_load(self._cache, fingerprint)
                except ReproError:
                    cached = None
                if cached is not None:
                    cache_stats["hit"] += 1
                    outcomes[query] = ("ok", cached)
                    continue
                cache_stats["miss"] += 1
            if isinstance(query, GridQuery):
                grids.setdefault(query.space, []).append(query)
            else:
                outcomes[query] = self._run(query, shapes)
        for space, group in grids.items():
            self._evaluate_grid_group(space, group, outcomes, shapes)
        for query, fingerprint in fingerprints.items():
            status, result = outcomes[query]
            if status == "ok" and not result.from_cache:
                try:
                    query.cache_store(self._cache, fingerprint, result)
                except (ReproError, OSError):
                    # The cache is an accelerator, never a dependency:
                    # refuse nothing to the caller over a failed store.
                    continue
                cache_stats["store"] += 1
        return outcomes, shapes, cache_stats

    def _run(self, query: Query, shapes: List[str]) -> Tuple[str, Any]:
        """One engine call for one query, its failure kept to itself."""
        shapes.append(query.shape)
        try:
            return ("ok", query.evaluate(self))
        except ReproError as exc:
            return ("err", exc)

    def _evaluate_grid_group(
        self,
        space: ConfigurationSpace,
        group: List[GridQuery],
        outcomes: Dict[Query, Tuple[str, Any]],
        shapes: List[str],
    ) -> None:
        """One space's uncached grid queries: one study call, or one
        grid call each when that is not possible."""
        supports_study = getattr(self._simulator, "supports_study", False)
        if supports_study and len(group) > 1:
            shapes.append("study")
            try:
                study = self._simulator.simulate_study(
                    [q.kernel for q in group], space
                )
            except ReproError:
                # Whole-study failures cannot be attributed to one
                # kernel; isolate by retrying kernel by kernel below.
                pass
            else:
                for row, query in enumerate(group):
                    outcomes[query] = (
                        "ok", query.result(study.items_per_second[row])
                    )
                return
        for query in group:
            outcomes[query] = self._run(query, shapes)

    # -- models the energy and pair kinds evaluate on -------------------

    @cached_property
    def energy_model(self):
        """The vectorized energy model over our engine.

        Sharing the batcher's simulator keeps fidelity tiers, engine
        fingerprints and (in tests) engine call counters honest: an
        energy surface is exactly one ``simulate_grid`` on the same
        engine grid queries use.
        """
        from repro.power.energy import EnergyModel

        return EnergyModel(simulator=self._simulator)

    @cached_property
    def coschedule_model(self):
        """The pair contention model (pure, no engine)."""
        from repro.coschedule.model import CoScheduleModel

        return CoScheduleModel()
