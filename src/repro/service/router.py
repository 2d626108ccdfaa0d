"""The fleet router: shard, dispatch, supervise, fail over, drain.

:class:`FleetExecutor` gives ``gpuscale serve --workers N`` the same
four-method surface the in-process :class:`~repro.service.batcher.
MicroBatcher` exposes (``start`` / ``submit`` / ``stop`` /
``pending``), which is the seam that lets :mod:`repro.service.server`
run identically in both modes. Behind that surface it owns N spawned
engine-worker processes (:mod:`repro.service.worker`), one socketpair
each, and routes every validated query with a consistent-hash ring on
the shard key its kind declares (``Query.shard_key``):

* **grid queries** shard by the ``(space, engine)`` fingerprint — the
  same canonical-JSON hash the sweep cache keys on — so every query
  against one surface lands on one worker. That single placement rule
  is what makes the fleet's cache single-flight *by construction*:
  concurrent misses for a fingerprint all queue on the same worker's
  batcher, which coalesces them into one study call and one cache
  write, fleet-wide.
* **point queries** shard by ``(kernel, config)`` so duplicates keep
  hitting the same batcher's dedup map.

The resilience layer (PR 7) wraps that placement rule in policy from
:mod:`repro.service.resilience`:

* every worker sits behind a :class:`~repro.service.resilience.
  CircuitBreaker` — repeated infrastructure failures (death, frame
  corruption, timeouts) open it, and an open breaker drops the worker
  out of its shards' preference chains so ring *neighbours* absorb
  the load until a cooldown probe succeeds;
* requests travel as :class:`_Dispatch` records that can be *placed*
  on more than one worker over their lifetime: failover replaces a
  placement when a worker dies or its frames stop decoding, and
  **hedged dispatch** adds a second placement for a grid query that
  has burned a configurable fraction of its deadline budget —
  first answer wins, the loser's entry is dropped so its late frame
  is freed, never double-delivered (queries are pure, so duplicates
  are always safe);
* worker restarts draw from a sliding-window :class:`~repro.service.
  resilience.RestartBudget` instead of the old lifetime cap of 3: a
  flapping worker can restart forever, just not faster than the
  budget, and while it is down its shards fail over instead of
  erroring;
* every admitted query carries an absolute monotonic *deadline* that
  rides the wire to the worker's batcher, so expired work is
  cancelled at whichever hop notices first rather than computed for
  nobody.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import socket
import time
from multiprocessing import get_context
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.service import transport
from repro.service.batcher import (
    DEFAULT_MAX_WAIT_MS,
    DeadlineExceededError,
    DrainRateEstimator,
    OverloadError,
    Query,
    ServiceClosedError,
    ServiceTimeoutError,
    check_query,
)
from repro.service.chaos import ChaosConfig
from repro.service.metrics import render_fleet
from repro.service.resilience import (
    BreakerConfig,
    CircuitBreaker,
    RestartBudget,
    WorkerUnavailableError,
    expired,
    remaining_s,
)
from repro.service.worker import WorkerConfig, worker_main

__all__ = [
    "FleetExecutor",
    "HashRing",
    "WorkerUnavailableError",
]

#: How long to wait for a freshly spawned worker's ``ready`` frame.
WORKER_START_TIMEOUT_S = 30.0

#: How long a worker gets to ack a ``drain`` frame before termination.
WORKER_DRAIN_TIMEOUT_S = 30.0

#: Virtual nodes per worker on the hash ring.
VNODES_PER_WORKER = 64

#: Default sliding-window restart allowance per worker.
DEFAULT_RESTART_BUDGET = 8
DEFAULT_RESTART_WINDOW_S = 60.0

#: Fraction of a query's deadline budget to burn before hedging a
#: grid query onto a second worker.
DEFAULT_HEDGE_FRACTION = 0.5


def _hash64(key: str) -> int:
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent hashing of shard keys onto worker indices.

    *Virtual nodes* smooth the per-worker share; the mapping depends
    only on ``(n_workers, vnodes)``, so every router instance with the
    same fleet size routes identically (and a restarted worker keeps
    exactly its old shard — restarts never reshuffle placement).
    """

    def __init__(
        self, n_workers: int, vnodes: int = VNODES_PER_WORKER
    ):
        if n_workers < 1:
            raise ValueError(f"need >= 1 worker, got {n_workers}")
        self.n_workers = n_workers
        points: List[Tuple[int, int]] = []
        for worker in range(n_workers):
            for vnode in range(vnodes):
                points.append((_hash64(f"{worker}:{vnode}"), worker))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [w for _, w in points]

    def lookup(self, key: str) -> int:
        """The worker index owning *key*."""
        index = bisect.bisect(self._hashes, _hash64(key))
        return self._owners[index % len(self._owners)]

    def preference(self, key: str) -> List[int]:
        """All workers in failover order for *key*.

        The ring walked clockwise from the key's position, keeping
        the first occurrence of each worker: element 0 is
        :meth:`lookup`, element 1 is where the shard fails over when
        its owner is down or breaker-open, and so on. Deterministic
        per key, so failover (like primary placement) never depends
        on router state.
        """
        start = bisect.bisect(self._hashes, _hash64(key))
        order: List[int] = []
        seen = set()
        total = len(self._owners)
        for step in range(total):
            owner = self._owners[(start + step) % total]
            if owner not in seen:
                seen.add(owner)
                order.append(owner)
                if len(order) == self.n_workers:
                    break
        return order


class _Dispatch:
    """One admitted query's routing state.

    A dispatch can be *placed* on several workers over its lifetime —
    failover replaces a placement, hedging adds one — and every
    placement registers in that worker's ``inflight`` map under a
    fresh request id, all pointing back at the same caller-facing
    future. The first frame to resolve the future wins; stale
    placements are dropped so their late frames are released, not
    delivered twice.
    """

    __slots__ = (
        "query", "payload", "future", "timeout", "deadline",
        "placements", "attempts",
    )

    def __init__(self, query, payload, future, timeout, deadline):
        self.query = query
        self.payload = payload
        self.future = future
        self.timeout = timeout
        self.deadline = deadline
        #: [(handle, request_id, is_hedge)]
        self.placements: List[Tuple[Any, int, bool]] = []
        self.attempts = 0


class _WorkerHandle:
    """Router-side state of one worker process."""

    def __init__(
        self,
        index: int,
        breaker: CircuitBreaker,
        budget: RestartBudget,
    ):
        self.index = index
        self.breaker = breaker
        self.budget = budget
        self.process = None
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.supervisor: Optional[asyncio.Task] = None
        self.connected = False
        self.draining = False
        self.restarts = 0
        self.pid: Optional[int] = None
        self.drain_rate = DrainRateEstimator()
        #: request_id -> _Dispatch; the resubmission source of truth
        #: when the process dies.
        self.inflight: Dict[int, _Dispatch] = {}
        #: request_id -> future for ping/metrics/drain round-trips.
        self.control: Dict[int, asyncio.Future] = {}

    @property
    def available(self) -> bool:
        """Can this worker take a dispatch right now?"""
        return self.connected and not self.draining


class FleetExecutor:
    """N worker processes behind the MicroBatcher's submit surface."""

    def __init__(
        self,
        n_workers: int,
        *,
        engine: str = "interval",
        max_batch: int = 64,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        queue_limit: int = 1024,
        use_cache: bool = True,
        cache_dir: Optional[str] = None,
        chaos: Optional[ChaosConfig] = None,
        metrics: Any = None,
        breaker: Optional[BreakerConfig] = None,
        restart_budget: int = DEFAULT_RESTART_BUDGET,
        restart_window_s: float = DEFAULT_RESTART_WINDOW_S,
        hedge_fraction: Optional[float] = DEFAULT_HEDGE_FRACTION,
    ):
        if n_workers < 1:
            raise ValueError(f"need >= 1 worker, got {n_workers}")
        if hedge_fraction is not None and not 0.0 < hedge_fraction:
            hedge_fraction = None
        self.n_workers = n_workers
        self._engine = engine
        self._worker_config = dict(
            engine=engine,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            queue_limit=queue_limit,
            use_cache=use_cache,
            cache_dir=cache_dir,
            chaos=chaos,
        )
        # The router admits a bounded number of queries per worker; the
        # worker's own queue_limit stays the authoritative 429 source
        # (it knows its drain rate), this cap just bounds router memory
        # if a worker stalls.
        self._inflight_limit = queue_limit + 4 * max_batch
        self._metrics = metrics
        self._hedge_fraction = hedge_fraction
        self._breaker_config = breaker or BreakerConfig()
        self._ring = HashRing(n_workers)
        self._handles = [
            _WorkerHandle(
                i,
                breaker=CircuitBreaker(
                    self._breaker_config,
                    on_transition=self._breaker_recorder(i),
                ),
                budget=RestartBudget(restart_budget, restart_window_s),
            )
            for i in range(n_workers)
        ]
        self._ctx = get_context("spawn")
        self._request_ids = itertools.count(1)
        self._engine_digest: Optional[str] = None
        self._space_digests: Dict[Any, str] = {}
        self._closed = True
        self._draining = False

    # ------------------------------------------------------------------
    # Metrics plumbing (all optional: a metrics-less fleet still works)
    # ------------------------------------------------------------------

    def _record(self, method: str, *args) -> None:
        hook = getattr(self._metrics, method, None)
        if hook is not None:
            hook(*args)

    def _breaker_recorder(self, index: int):
        def on_transition(old_state: str, new_state: str) -> None:
            self._record(
                "record_breaker_transition",
                str(index), old_state, new_state,
            )

        return on_transition

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        """True while the fleet accepts queries."""
        return not self._closed and not self._draining

    @property
    def pending(self) -> int:
        """Queries admitted by the router and not yet answered."""
        seen = set()
        for handle in self._handles:
            seen.update(id(d) for d in handle.inflight.values())
        return len(seen)

    async def start(self) -> None:
        """Spawn every worker and wait for all ``ready`` frames."""
        self._closed = False
        await asyncio.gather(
            *(self._spawn(handle) for handle in self._handles)
        )
        for handle in self._handles:
            handle.supervisor = asyncio.get_running_loop().create_task(
                self._supervise(handle)
            )

    async def stop(self, drain: bool = True) -> None:
        """Stop the fleet.

        ``drain=True``: refuse new work, answer every admitted query
        (restarting or failing over any worker that dies mid-drain),
        then hand each worker a ``drain`` frame so its own batcher
        drains, and join the processes. ``drain=False``: fail
        in-flight queries with :class:`ServiceClosedError` and
        terminate immediately.
        """
        if self._closed and not any(h.process for h in self._handles):
            return
        self._draining = True
        if drain:
            await self._await_inflight()
            self._closed = True
            await asyncio.gather(
                *(self._drain_worker(h) for h in self._handles)
            )
        else:
            self._closed = True
            for handle in self._handles:
                for request_id in list(handle.inflight):
                    entry = handle.inflight.pop(request_id, None)
                    if entry is not None and not entry.future.done():
                        entry.future.set_exception(
                            ServiceClosedError("service shut down")
                        )
        for handle in self._handles:
            if handle.supervisor is not None:
                handle.supervisor.cancel()
        await asyncio.gather(
            *(
                h.supervisor
                for h in self._handles
                if h.supervisor is not None
            ),
            return_exceptions=True,
        )
        for handle in self._handles:
            await self._dispose(handle, force=not drain)

    async def _await_inflight(self) -> None:
        """Wait until every admitted query has an answer."""
        while True:
            futures = [
                entry.future
                for handle in self._handles
                for entry in list(handle.inflight.values())
            ]
            futures = [f for f in futures if not f.done()]
            if not futures:
                return
            await asyncio.wait(futures)
            # Let reader callbacks pop answered entries before rescan.
            await asyncio.sleep(0)

    async def _drain_worker(self, handle: _WorkerHandle) -> None:
        handle.draining = True
        if not handle.connected:
            return
        try:
            await asyncio.wait_for(
                self._control_roundtrip(handle, "drain"),
                WORKER_DRAIN_TIMEOUT_S,
            )
        except (asyncio.TimeoutError, ReproError, ConnectionError):
            pass  # _dispose falls back to terminate + join

    async def _dispose(
        self, handle: _WorkerHandle, force: bool
    ) -> None:
        """Close the socket and join (or kill) the process."""
        handle.connected = False
        if handle.writer is not None:
            handle.writer.close()
            try:
                await handle.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            handle.writer = None
        process = handle.process
        if process is None:
            return
        loop = asyncio.get_running_loop()
        if force and process.is_alive():
            process.terminate()
        await loop.run_in_executor(None, process.join, 10)
        if process.is_alive():
            process.kill()
            await loop.run_in_executor(None, process.join, 10)
        handle.process = None

    # ------------------------------------------------------------------
    # Spawning and supervision
    # ------------------------------------------------------------------

    async def _spawn(self, handle: _WorkerHandle) -> None:
        """Start (or replace) *handle*'s process; await its ready frame."""
        parent_sock, child_sock = socket.socketpair()
        config = WorkerConfig(
            worker_id=handle.index,
            generation=handle.restarts,
            **self._worker_config,
        )
        process = self._ctx.Process(
            target=worker_main,
            args=(child_sock, config),
            name=f"gpuscale-worker-{handle.index}",
            daemon=True,
        )
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, process.start)
        child_sock.close()
        reader, writer = await asyncio.open_connection(sock=parent_sock)
        frame = await asyncio.wait_for(
            transport.read_frame(reader), WORKER_START_TIMEOUT_S
        )
        if frame is None or frame[0] != "ready":
            writer.close()
            process.terminate()
            raise WorkerUnavailableError(
                f"worker {handle.index} never reported ready "
                f"(got {frame!r})"
            )
        handle.process = process
        handle.reader = reader
        handle.writer = writer
        handle.pid = frame[2]
        handle.connected = True

    async def _supervise(self, handle: _WorkerHandle) -> None:
        """Read frames until shutdown, restarting a dead worker.

        Only the EOF read here ends a worker's life: :meth:`_send` may
        mark the handle disconnected earlier, which must not stop the
        restart. The loop ends with the fleet, or when a restart gives
        up because the fleet closed or the worker drained while down.
        """
        while True:
            frame = None
            try:
                frame = await transport.read_frame(handle.reader)
            except (transport.TransportError, ConnectionError, OSError):
                frame = None
            if frame is not None:
                self._handle_frame(handle, frame)
                continue
            # EOF (or stream corruption): the worker died, crashed
            # mid-frame, or exited after a drain ack.
            handle.connected = False
            self._fail_control(
                handle, f"worker {handle.index} died mid-request"
            )
            if self._closed or (
                handle.draining and not handle.inflight
            ):
                return
            await self._restart(handle)
            if not handle.connected:
                return

    def _fail_control(self, handle: _WorkerHandle, message: str) -> None:
        """Fail pending control round-trips so nothing awaits a ghost."""
        for request_id in list(handle.control):
            future = handle.control.pop(request_id, None)
            if future is not None and not future.done():
                future.set_exception(WorkerUnavailableError(message))

    async def _restart(self, handle: _WorkerHandle) -> None:
        """Respawn *handle*'s worker within its restart budget.

        Worker death is an infrastructure failure, so it feeds the
        breaker. While the budget is exhausted the shard's in-flight
        work fails over to ring neighbours and the supervisor sleeps
        until the next restart slot frees up — a crash-looping worker
        degrades its shard, it no longer loses it forever.
        """
        await self._dispose(handle, force=True)
        handle.breaker.record_failure()
        while not self._closed:
            if handle.draining and not handle.inflight:
                return
            if not handle.budget.try_acquire():
                self._failover_all(handle)
                wait = min(handle.budget.next_free_s() + 0.01, 1.0)
                await asyncio.sleep(wait)
                continue
            try:
                await self._spawn(handle)
            except (ReproError, OSError, asyncio.TimeoutError):
                await asyncio.sleep(0.2)
                continue
            handle.restarts += 1
            self._record("record_worker_restart", str(handle.index))
            self._resubmit(handle)
            return

    def _resubmit(self, handle: _WorkerHandle) -> None:
        """Replay in-flight queries onto a freshly restarted worker.

        Safe because queries are pure, deterministic computations: the
        caller keeps awaiting the same future and cannot observe the
        replay (results are bit-identical by the engine's determinism).
        """
        for request_id in list(handle.inflight):
            entry = handle.inflight.get(request_id)
            if entry is None:
                continue
            if entry.future.done():  # caller gave up while worker was down
                handle.inflight.pop(request_id, None)
                continue
            self._send_query(handle, request_id, entry)

    def _failover_all(self, handle: _WorkerHandle) -> None:
        """Move a down worker's in-flight work to ring neighbours.

        Dispatches with no eligible neighbour stay parked on *handle*
        and are resubmitted when it finally respawns.
        """
        for request_id in list(handle.inflight):
            dispatch = handle.inflight.get(request_id)
            if dispatch is None:
                continue
            if dispatch.future.done():
                handle.inflight.pop(request_id, None)
                continue
            target = self._pick_target(dispatch, exclude=(handle,))
            if target is None:
                continue  # parked until respawn
            handle.inflight.pop(request_id, None)
            self._drop_placement(dispatch, handle, request_id)
            self._place(dispatch, target)

    def _send(
        self, handle: _WorkerHandle, frame: Tuple[Any, ...]
    ) -> None:
        """Best-effort frame write; a dead socket is the supervisor's
        problem (EOF -> restart -> resubmit), not the submitter's.

        A writer that is closing has lost its peer: the frame is not
        written (a query stays parked in ``inflight`` for
        :meth:`_resubmit`) and the handle counts as down from here on.
        """
        writer = handle.writer
        if writer is None or writer.is_closing():
            handle.connected = False
        if not handle.connected:
            return
        try:
            transport.send_frame(writer, frame)
        except (ConnectionError, OSError, RuntimeError):
            handle.connected = False

    def _handle_frame(
        self, handle: _WorkerHandle, frame: Tuple[Any, ...]
    ) -> None:
        kind = frame[0]
        if kind == "result":
            _, request_id, encoded = frame
            dispatch = handle.inflight.pop(request_id, None)
            handle.drain_rate.record(
                1, asyncio.get_running_loop().time()
            )
            if dispatch is None or dispatch.future.done():
                transport.release_result(encoded)
                return
            try:
                result = transport.decode_result(encoded)
            except transport.TransportError as exc:
                # The worker answered but the handoff failed (e.g. a
                # vanished shm segment): infrastructure, not the
                # query's fault — count it and try another placement.
                handle.breaker.record_failure()
                self._drop_placement(dispatch, handle, request_id)
                self._failover_dispatch(dispatch, exc)
                return
            except ReproError as exc:
                dispatch.future.set_exception(exc)
                self._settle(dispatch)
                return
            handle.breaker.record_success()
            if self._was_hedge(dispatch, handle, request_id):
                self._record("record_hedge", str(handle.index), "won")
            dispatch.future.set_result(result)
            self._settle(dispatch)
        elif kind == "error":
            _, request_id, code, message, extra = frame
            dispatch = handle.inflight.pop(request_id, None)
            if dispatch is None or dispatch.future.done():
                return
            # The worker is answering — its infrastructure is fine,
            # whatever it thinks of the query.
            handle.breaker.record_success()
            dispatch.future.set_exception(
                transport.decode_error(code, message, extra)
            )
            self._settle(dispatch)
        elif kind in ("pong", "metrics", "drained"):
            future = handle.control.pop(frame[1], None)
            if future is not None and not future.done():
                future.set_result(frame)

    @staticmethod
    def _was_hedge(
        dispatch: _Dispatch, handle: _WorkerHandle, request_id: int
    ) -> bool:
        return any(
            h is handle and rid == request_id and is_hedge
            for h, rid, is_hedge in dispatch.placements
        )

    def _settle(self, dispatch: _Dispatch) -> None:
        """Drop every remaining placement of a resolved dispatch so
        stale frames are released instead of delivered twice."""
        for h, rid, _ in dispatch.placements:
            h.inflight.pop(rid, None)
        dispatch.placements.clear()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _candidates(self, query: Query) -> List[_WorkerHandle]:
        """The shard's failover chain as handles, owner first."""
        return [
            self._handles[index]
            for index in self._ring.preference(self.shard_key(query))
        ]

    def _first_eligible(
        self, query: Query, now: float
    ) -> Optional[_WorkerHandle]:
        """The first live, breaker-closed worker in the shard's chain."""
        for handle in self._candidates(query):
            if handle.available and handle.breaker.allow(now):
                return handle
        return None

    def _first_restarting(
        self, query: Query, now: float
    ) -> Optional[_WorkerHandle]:
        """The first down, breaker-admitted worker in the shard's
        chain whose supervisor is still alive to respawn it; a dispatch
        placed there is sent by :meth:`_resubmit` once it is back."""
        for handle in self._candidates(query):
            if (
                not handle.connected
                and not handle.draining
                and handle.breaker.allow(now)
                and handle.supervisor is not None
                and not handle.supervisor.done()
            ):
                return handle
        return None

    def _pick_target(
        self,
        dispatch: _Dispatch,
        exclude: Tuple[_WorkerHandle, ...] = (),
    ) -> Optional[_WorkerHandle]:
        """The best worker for a new placement of *dispatch*."""
        placed = {h for h, _, _ in dispatch.placements}
        now = time.monotonic()
        for handle in self._candidates(dispatch.query):
            if handle in placed or handle in exclude:
                continue
            if not handle.available or not handle.breaker.allow(now):
                continue
            if len(handle.inflight) >= self._inflight_limit:
                continue
            return handle
        return None

    def _place(
        self,
        dispatch: _Dispatch,
        handle: _WorkerHandle,
        is_hedge: bool = False,
    ) -> int:
        request_id = next(self._request_ids)
        dispatch.placements.append((handle, request_id, is_hedge))
        dispatch.attempts += 1
        handle.inflight[request_id] = dispatch
        self._send_query(handle, request_id, dispatch)
        return request_id

    def _send_query(
        self, handle: _WorkerHandle, request_id: int, dispatch: _Dispatch
    ) -> None:
        """The query frame: the deadline rides along to the worker."""
        self._send(
            handle,
            (
                "query", request_id, dispatch.payload,
                dispatch.timeout, dispatch.deadline,
            ),
        )

    def _drop_placement(
        self,
        dispatch: _Dispatch,
        handle: _WorkerHandle,
        request_id: int,
    ) -> None:
        dispatch.placements = [
            p for p in dispatch.placements
            if not (p[0] is handle and p[1] == request_id)
        ]

    def _failover_dispatch(
        self, dispatch: _Dispatch, exc: ReproError
    ) -> None:
        """Re-place a dispatch whose placement just failed, or fail
        its future with *exc* once the fleet is out of options."""
        if dispatch.future.done():
            self._settle(dispatch)
            return
        if dispatch.placements:
            return  # a sibling placement (hedge) is still in flight
        if dispatch.attempts > 2 * self.n_workers + 1:
            dispatch.future.set_exception(exc)
            return
        target = self._pick_target(dispatch)
        if target is None:
            # Allow one same-worker retry when nobody else is
            # eligible (single-worker fleets still recover from a
            # lost shm segment by recomputing).
            target = self._first_eligible(dispatch.query, time.monotonic())
        if target is None:
            dispatch.future.set_exception(exc)
            return
        self._place(dispatch, target)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def _space_digest(self, space) -> str:
        """Cache ``(space, engine)`` fingerprints by space identity."""
        digest = self._space_digests.get(space)
        if digest is None:
            from repro.gpu.engine import engine_fingerprint
            from repro.gpu.uarch import family_label
            from repro.sweep.cache import fingerprint_blob

            if self._engine_digest is None:
                self._engine_digest = fingerprint_blob(
                    {"engine": engine_fingerprint(self._engine)}
                )
            # The family label rides in the shard key so the routing
            # unit is (family, grid, engine); the physics values in
            # space.to_dict() already keep distinct families on
            # distinct shards, the label keeps that legible.
            digest = (
                f"{family_label(space.uarch)}|"
                + fingerprint_blob(
                    {
                        "space": space.to_dict(),
                        "engine": self._engine_digest,
                    }
                )
            )
            self._space_digests[space] = digest
        return digest

    def shard_key(self, query: Query) -> str:
        """The consistent-hash key each query kind declares, over this
        fleet's ``(family, space, engine)`` space digest."""
        return query.shard_key(self._space_digest)

    def worker_for(self, query: Query) -> int:
        """Which worker index *query* routes to (exposed for tests)."""
        return self._ring.lookup(self.shard_key(query))

    async def submit(
        self,
        query: Query,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> Any:
        """Route *query* to its shard's healthiest worker.

        *deadline* is absolute ``loop.time()``/``time.monotonic()``;
        it travels with the query to the worker's batcher, bounds the
        await here, and (for grid queries) paces the hedge timer.
        """
        check_query(query)
        if self._closed or self._draining:
            raise ServiceClosedError(
                "service is shutting down; no new queries admitted"
            )
        loop = asyncio.get_running_loop()
        now = loop.time()
        if expired(deadline, now):
            self._record("record_deadline_exceeded")
            raise DeadlineExceededError(
                "deadline expired before fleet dispatch"
            )
        left = remaining_s(deadline, now)
        budget = timeout
        deadline_bound = False
        if left is not None and (budget is None or left <= budget):
            budget = left
            deadline_bound = True

        # The primary is the healthiest worker in the shard's chain
        # (down and breaker-open workers fail over to neighbours), but
        # saturation does NOT fail over: spilling a hot shard onto its
        # neighbour would break the single-flight cache placement, so
        # a saturated owner still answers 429 with a backoff hint.
        primary = self._first_eligible(query, now)
        if primary is None:
            # No live worker can take it: park on one that is
            # restarting, so the query waits for the respawn (bounded
            # by its budget) instead of failing while it happens.
            primary = self._first_restarting(query, now)
        if primary is None:
            raise self._no_target_error(query, now)
        if len(primary.inflight) >= self._inflight_limit:
            raise OverloadError(
                f"worker {primary.index} has "
                f"{len(primary.inflight)} queries in flight; retry "
                "with backoff",
                retry_after=primary.drain_rate.retry_after_s(
                    len(primary.inflight)
                ),
            )
        dispatch = _Dispatch(
            query=query,
            payload=transport.encode_query(query),
            future=loop.create_future(),
            timeout=timeout,
            deadline=deadline,
        )
        self._place(dispatch, primary)
        hedge_task = None
        if (
            self._hedge_fraction is not None
            and budget is not None
            and query.hedged
            and self.n_workers > 1
        ):
            hedge_task = loop.create_task(
                self._hedge_later(
                    dispatch, budget * self._hedge_fraction
                )
            )
        try:
            return await asyncio.wait_for(dispatch.future, budget)
        except asyncio.TimeoutError:
            # Slow workers count against their breakers: a worker
            # that repeatedly runs queries into their deadlines is
            # indistinguishable from a hung one.
            for h, _, _ in dispatch.placements:
                h.breaker.record_failure()
            if deadline_bound:
                self._record("record_deadline_exceeded")
                raise DeadlineExceededError(
                    f"query missed its deadline after {budget:.3f}s "
                    "in the fleet"
                ) from None
            raise ServiceTimeoutError(
                f"query timed out after {timeout}s in the service"
            ) from None
        finally:
            if hedge_task is not None:
                hedge_task.cancel()
            self._settle(dispatch)

    def _no_target_error(self, query: Query, now: float) -> ReproError:
        """Why is no worker eligible right now?"""
        states = []
        for handle in self._candidates(query):
            if not handle.available:
                states.append(f"worker {handle.index} down")
            elif not handle.breaker.allow(now):
                states.append(f"worker {handle.index} breaker-open")
        return WorkerUnavailableError(
            "no worker can take this query: " + "; ".join(states)
        )

    async def _hedge_later(
        self, dispatch: _Dispatch, delay: float
    ) -> None:
        """After *delay*, duplicate the dispatch onto a second worker.

        Queries are pure, so the duplicate is safe: both placements
        compute the same bits, the first one back resolves the
        future, and :meth:`_settle` drops the loser so its late frame
        is freed.
        """
        try:
            await asyncio.sleep(delay)
        except asyncio.CancelledError:
            return
        if dispatch.future.done() or not dispatch.placements:
            return
        target = self._pick_target(dispatch)
        if target is None:
            return
        self._place(dispatch, target, is_hedge=True)
        self._record("record_hedge", str(target.index), "issued")

    # ------------------------------------------------------------------
    # Health and metrics
    # ------------------------------------------------------------------

    async def _control_roundtrip(
        self, handle: _WorkerHandle, kind: str
    ) -> Tuple[Any, ...]:
        if not handle.connected:
            raise WorkerUnavailableError(
                f"worker {handle.index} is not connected"
            )
        request_id = next(self._request_ids)
        future = asyncio.get_running_loop().create_future()
        handle.control[request_id] = future
        self._send(handle, (kind, request_id))
        try:
            return await future
        finally:
            handle.control.pop(request_id, None)

    def worker_states(self) -> List[Dict[str, Any]]:
        """Per-worker liveness, breaker, and budget for ``/healthz``."""
        now = time.monotonic()
        states = []
        for handle in self._handles:
            alive = (
                handle.process is not None
                and handle.process.is_alive()
                and handle.connected
            )
            states.append(
                {
                    "worker": handle.index,
                    "pid": handle.pid,
                    "alive": bool(alive),
                    "restarts": handle.restarts,
                    "inflight": len(handle.inflight),
                    "breaker": handle.breaker.state(now),
                    "restart_budget": {
                        "available": handle.budget.available(now),
                        "window_s": handle.budget.window_s,
                        "next_free_s": round(
                            handle.budget.next_free_s(now), 3
                        ),
                    },
                }
            )
        return states

    async def render_metrics(self, router_registry) -> str:
        """The fleet-wide ``/metrics`` exposition.

        Collects a snapshot from every reachable worker (a worker that
        fails to answer within 2 s is skipped — a scrape must never
        hang on a dying process) and merges them with the router's own
        registry under per-worker labels plus ``worker="fleet"``
        totals.
        """
        snapshots = {"router": router_registry.snapshot()}

        async def collect(handle: _WorkerHandle) -> None:
            try:
                frame = await asyncio.wait_for(
                    self._control_roundtrip(handle, "metrics"), 2.0
                )
                snapshots[str(handle.index)] = frame[2]
            except (
                asyncio.TimeoutError, ReproError, ConnectionError,
            ):
                pass

        await asyncio.gather(
            *(collect(handle) for handle in self._handles)
        )
        return render_fleet(snapshots)

    def retry_after_s(self) -> float:
        """Backoff hint across the fleet: the worst per-worker drain."""
        return max(
            handle.drain_rate.retry_after_s(len(handle.inflight))
            for handle in self._handles
        )
