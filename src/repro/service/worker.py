"""One engine-worker process of the ``--workers N`` fleet.

A worker is deliberately thin: it owns a :class:`~repro.service.
batcher.MicroBatcher` (and therefore an engine instance, a worker
thread, and optionally a sweep-cache handle) and speaks the
:mod:`repro.service.transport` frame protocol over the socketpair its
router passed in. All HTTP parsing, validation, sharding, and
supervision stay on the router side — the worker only ever sees
already-validated queries, which is what lets the single- and
multi-process modes share the batcher code path unchanged.

Lifecycle: announce ``("ready", worker_id, pid)`` once the batcher is
up, answer ``query``/``ping``/``metrics`` frames until either a
``drain`` frame arrives (finish everything admitted, ack with
``drained``, exit 0) or the socket hits EOF (the router died — tear
down without draining so a killed fleet leaves no orphans).

Queries arrive as ``("query", id, payload, timeout, deadline)`` where
*deadline* is absolute ``time.monotonic()`` — CLOCK_MONOTONIC is
system-wide on Linux, so the router's clock and ours agree — and is
enforced by the batcher at admission and again per batch, so work the
client has already given up on is cancelled instead of computed.

When a :class:`~repro.service.chaos.ChaosConfig` rides in the worker
config, a seeded :class:`~repro.service.chaos.ChaosInjector` sits in
the delivery path and makes this worker misbehave on schedule: die
before answering, stall, write a truncated or corrupt frame, or
sabotage the shared-memory handoff. Every injected fault is one the
router must already survive in production; the injector just makes
them reproducible. Faults that abandon a query (`kill`, `truncate`,
`corrupt`) are injected *before* the result is computed, so no
shared-memory segment is ever created and then leaked; the
`shm_fail` fault unlinks its own segment before announcing it, so
the router's failed attach leaks nothing either.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import socket
from dataclasses import dataclass
from typing import Optional

from repro.service import transport
from repro.service.batcher import DEFAULT_MAX_WAIT_MS, MicroBatcher
from repro.service.chaos import ChaosConfig, ChaosInjector
from repro.service.metrics import ServiceMetrics


@dataclass(frozen=True)
class WorkerConfig:
    """Everything one worker needs, picklable for the spawn context.

    *generation* counts how many times this worker slot has been
    respawned; it feeds the chaos seed so a restarted worker draws a
    fresh fault sequence instead of deterministically replaying the
    crash that killed its predecessor.
    """

    worker_id: int
    engine: str = "interval"
    max_batch: int = 64
    max_wait_ms: float = DEFAULT_MAX_WAIT_MS
    queue_limit: int = 1024
    use_cache: bool = True
    cache_dir: Optional[str] = None
    chaos: Optional[ChaosConfig] = None
    generation: int = 0


def worker_main(sock: socket.socket, config: WorkerConfig) -> None:
    """Process entry point (target of ``multiprocessing.Process``)."""
    try:
        asyncio.run(serve_worker(sock, config))
    except KeyboardInterrupt:
        pass


async def serve_worker(
    sock: socket.socket, config: WorkerConfig
) -> None:
    """Run one worker until drained or orphaned."""
    from repro.gpu.simulator import GpuSimulator

    reader, writer = await asyncio.open_connection(sock=sock)
    simulator = GpuSimulator(config.engine)
    cache = None
    if config.use_cache:
        from repro.sweep.cache import SweepCache

        cache = SweepCache(config.cache_dir)
    metrics = ServiceMetrics()
    batcher = MicroBatcher(
        simulator,
        max_batch=config.max_batch,
        max_wait_ms=config.max_wait_ms,
        queue_limit=config.queue_limit,
        cache=cache,
        metrics=metrics,
    )
    await batcher.start()

    injector: Optional[ChaosInjector] = None
    if config.chaos is not None:
        injector = ChaosInjector(
            config.chaos, config.worker_id, config.generation
        )

    loop = asyncio.get_running_loop()
    tasks: "set[asyncio.Task]" = set()

    async def answer(
        request_id: int, payload, timeout, deadline
    ) -> None:
        action = injector.sample() if injector is not None else None
        if action == "kill":
            # Death before the result exists: nothing to leak.
            os._exit(17)
        if action == "truncate":
            # A crash mid-write: announce 64 bytes, deliver fewer,
            # die. The router's read_frame hits IncompleteReadError
            # and treats the stream as dead.
            writer.write(
                transport._LENGTH.pack(64) + b"\x80chaos-truncated"
            )
            with contextlib.suppress(Exception):
                await writer.drain()
            os._exit(18)
        if action == "corrupt":
            # A flipped byte in flight: well-framed garbage. The
            # router's unpickle fails, the stream is no longer
            # trustworthy, and this worker gets restarted.
            blob = b"\x93chaos-corrupt-body"
            writer.write(transport._LENGTH.pack(len(blob)) + blob)
            await writer.drain()
            return
        if action == "hang":
            await asyncio.sleep(config.chaos.hang_s)
        elif action == "delay":
            await asyncio.sleep(config.chaos.delay_ms / 1000.0)
        try:
            query = transport.decode_query(payload)
            result = await batcher.submit(
                query, timeout=timeout, deadline=deadline
            )
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            code, message, extra = transport.encode_error(exc)
            frame = ("error", request_id, code, message, extra)
        else:
            encoded = transport.encode_result(result)
            if action == "shm_fail" and encoded[0] == "grid-shm":
                # Unlink our own segment, then announce it anyway:
                # the router's attach fails but nothing is leaked.
                transport.release_result(encoded)
            frame = ("result", request_id, encoded)
        transport.send_frame(writer, frame)
        await writer.drain()

    transport.send_frame(writer, ("ready", config.worker_id, os.getpid()))
    await writer.drain()

    drained = False
    try:
        while True:
            try:
                frame = await transport.read_frame(reader)
            except (transport.TransportError, ConnectionError):
                break
            if frame is None:  # router closed: we are orphaned
                break
            kind = frame[0]
            if kind == "query":
                _, request_id, payload, timeout, deadline = frame
                task = loop.create_task(
                    answer(request_id, payload, timeout, deadline)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            elif kind == "ping":
                transport.send_frame(writer, ("pong", frame[1]))
                await writer.drain()
            elif kind == "metrics":
                transport.send_frame(
                    writer,
                    ("metrics", frame[1], metrics.registry.snapshot()),
                )
                await writer.drain()
            elif kind == "drain":
                if (
                    injector is not None
                    and injector.sample_drain_kill()
                ):
                    # Die mid-drain: in-flight answers abandoned,
                    # drained ack never sent. The router must fail
                    # the stragglers over or error them — never
                    # hang waiting for this ack.
                    os._exit(19)
                if tasks:
                    await asyncio.gather(
                        *list(tasks), return_exceptions=True
                    )
                await batcher.stop(drain=True)
                drained = True
                transport.send_frame(writer, ("drained", frame[1]))
                await writer.drain()
                break
    finally:
        for task in list(tasks):
            task.cancel()
        if tasks:
            await asyncio.gather(*list(tasks), return_exceptions=True)
        if not drained and batcher.running:
            await batcher.stop(drain=False)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
