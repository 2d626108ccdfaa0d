"""Closed-loop HTTP/1.1 keep-alive client for the served workloads.

One client process, a fixed number of persistent connections; each
connection sends its next request only after the previous response
has arrived. Load runs in short windows; between windows the
connections are idle and the caller runs the reference probe.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple


@dataclass
class Request:
    """One prepared request: what is sent, and what the checker needs."""

    kind: str
    path: str
    body: bytes
    spec: dict


@dataclass
class Outcome:
    request: Request
    status: int
    latency_s: float
    body: Optional[bytes] = None


@dataclass
class LoadLog:
    """Everything observed during the load windows of one run."""

    outcomes: List[Outcome] = field(default_factory=list)
    window_s: List[float] = field(default_factory=list)
    window_ops: List[int] = field(default_factory=list)
    #: Probe medians taken before the first window and after each one.
    probe_ms: List[float] = field(default_factory=list)

    def windows(self):
        """``(outcomes, seconds)`` per window."""
        first = 0
        for n, seconds in zip(self.window_ops, self.window_s):
            yield self.outcomes[first:first + n], seconds
            first += n


class Connection:
    """One keep-alive connection.

    The HTTP framing here is the benchmark's own, not
    ``repro.service.loadgen``'s: the client's time is inside every
    latency the benchmark reports, so it must not change when the
    program under test changes.
    """

    def __init__(self, host: str, port: int):
        self._host, self._port = host, port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass

    async def request(
        self, method: str, path: str, body: bytes = b""
    ) -> Tuple[int, bytes]:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self._host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        self._writer.write(head + body)
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self._reader.readexactly(length) if length else b""
        return status, payload


async def run_windows(
    host: str,
    port: int,
    connections: int,
    next_request: Callable[[], Request],
    keep: Callable[[int], bool],
    seconds: float,
    window_s: float,
    probe: Callable[[], float],
    log: LoadLog,
) -> None:
    """Closed-loop load in windows of *window_s* until *seconds* of load.

    *keep(i)* says whether the i-th response body is kept for checking;
    *probe()* runs before and after every window, while every
    connection is idle, and its result is logged.
    """
    conns = [Connection(host, port) for _ in range(connections)]
    for conn in conns:
        await conn.open()
    try:
        loaded = 0.0
        log.probe_ms.append(probe())
        while loaded < seconds:
            start = time.perf_counter()
            until = start + window_s
            done_before = len(log.outcomes)

            async def drive(conn: Connection) -> None:
                while time.perf_counter() < until:
                    request = next_request()
                    sent = time.perf_counter()
                    status, body = await conn.request(
                        "POST", request.path, request.body
                    )
                    latency = time.perf_counter() - sent
                    index = len(log.outcomes)
                    log.outcomes.append(Outcome(
                        request, status, latency,
                        body if keep(index) else None,
                    ))

            await asyncio.gather(*(drive(conn) for conn in conns))
            elapsed = time.perf_counter() - start
            loaded += elapsed
            log.window_s.append(elapsed)
            log.window_ops.append(len(log.outcomes) - done_before)
            log.probe_ms.append(probe())
    finally:
        for conn in conns:
            await conn.close()
