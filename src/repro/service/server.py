"""The asyncio HTTP query service (stdlib only).

:class:`GpuScaleService` binds a plain ``asyncio.start_server`` socket
and speaks just enough HTTP/1.1 — request line, headers,
``Content-Length`` bodies, keep-alive — to serve JSON queries against
the engine registry through the micro-batcher:

====================  ======  =========================================
endpoint              method  answers
====================  ======  =========================================
``/v1/simulate``      POST    one kernel at a point or over a grid
``/v1/classify``      POST    taxonomy label for one kernel
``/v1/whatif``        POST    ranked optimisation counterfactuals
``/v1/transfer``      POST    cross-family surface + class prediction
``/v1/optimize``      POST    energy-optimal config or Pareto frontier
``/v1/coschedule``    POST    co-resident pair contention point/surface
``/v1/engines``       GET     the engine registry's capability table
``/v1/families``      GET     the microarchitecture-family registry
``/healthz``          GET     liveness (``ok`` / ``draining``)
``/metrics``          GET     Prometheus text exposition
====================  ======  =========================================

The service is layered so both serving modes share one code path:
socket handling and HTTP parsing live here, request validation in
:mod:`repro.service.schema`, and query execution behind an *executor*
seam — anything with ``start`` / ``submit`` / ``stop`` / ``pending``.
With ``workers <= 1`` the executor is the in-process
:class:`~repro.service.batcher.MicroBatcher`; with ``workers > 1`` it
is a :class:`~repro.service.router.FleetExecutor` sharding queries
onto worker processes. Endpoint handlers cannot tell the difference.

Overload semantics (see DESIGN.md "Service architecture"): a full
admission queue answers 429 with a ``Retry-After`` computed from the
queue's depth and observed drain rate, a per-request timeout or a
draining server answers 503, malformed bodies answer structured 400s
from :mod:`repro.service.schema`. Shutdown is graceful by default: the
listener closes, in-flight requests finish, the executor drains, and
only then do idle keep-alive connections get torn down.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.service import schema
from repro.service.batcher import (
    DEFAULT_MAX_WAIT_MS,
    EnergyGridQuery,
    GridQuery,
    MicroBatcher,
    OverloadError,
    PairGridQuery,
    PointQuery,
)
from repro.service.chaos import ChaosConfig
from repro.service.errors import error_kind
from repro.service.metrics import ServiceMetrics
from repro.service.resilience import deadline_from_timeout

#: Submits one query to the executor under its request's budget.
Submit = Callable[[Any], Awaitable[Any]]

#: Hard caps on what one request may ship.
MAX_REQUEST_LINE = 8192
MAX_HEADERS = 100
MAX_BODY_BYTES = 2 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpViolation(Exception):
    """A malformed HTTP request (connection closes after the error)."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one ``gpuscale serve`` instance.

    ``workers`` selects the serving mode: ``1`` (the default) runs the
    batcher in-process; ``N > 1`` runs a router in this process and
    ``N`` spawned engine-worker processes, each with its own batcher
    configured by the same ``max_batch`` / ``max_wait_ms`` /
    ``queue_limit`` knobs.

    Resilience knobs: ``restart_budget`` / ``restart_window_s`` bound
    worker respawns per sliding window; ``hedge_fraction`` is how much
    of a request's deadline budget may burn before a grid query is
    hedged to a second worker (``None`` disables hedging); ``chaos``
    carries a parsed fault-injection schedule into every worker.
    """

    host: str = "127.0.0.1"
    port: int = 8000
    engine: str = "interval"
    max_batch: int = 64
    max_wait_ms: float = DEFAULT_MAX_WAIT_MS
    queue_limit: int = 1024
    request_timeout_s: float = 30.0
    use_cache: bool = True
    cache_dir: Optional[str] = None
    workers: int = 1
    restart_budget: int = 8
    restart_window_s: float = 60.0
    hedge_fraction: Optional[float] = 0.5
    chaos: Optional[ChaosConfig] = None


def _error_payload(code: str, message: str) -> Dict[str, Any]:
    return {"error": {"code": code, "message": message}}


def _json_error(
    status: int, code: str, message: str
) -> Tuple[int, str, str, None]:
    return (
        status, json.dumps(_error_payload(code, message)),
        "application/json", None,
    )


class GpuScaleService:
    """One serving instance: listener + executor + metrics.

    ``self.executor`` is the query-execution seam — a
    :class:`MicroBatcher` (single-process) or a
    :class:`~repro.service.router.FleetExecutor` (``workers > 1``).
    ``self.batcher`` stays as an alias for the single-process case and
    backwards compatibility.
    """

    def __init__(
        self,
        config: ServiceConfig = ServiceConfig(),
        simulator: Optional[Any] = None,
        cache: Optional[Any] = None,
        metrics: Optional[ServiceMetrics] = None,
    ):
        self.config = config
        self.metrics = metrics or ServiceMetrics()
        self.fleet = None
        batching = dict(
            max_batch=config.max_batch,
            max_wait_ms=config.max_wait_ms,
            queue_limit=config.queue_limit,
            metrics=self.metrics,
        )
        if config.workers > 1:
            if simulator is not None or cache is not None:
                raise ValueError(
                    "fleet mode builds per-worker simulators and "
                    "caches; injecting them is single-process only"
                )
            from repro.service.router import FleetExecutor

            self._simulator = None
            self.fleet = FleetExecutor(
                config.workers,
                engine=config.engine,
                use_cache=config.use_cache,
                cache_dir=config.cache_dir,
                chaos=config.chaos,
                restart_budget=config.restart_budget,
                restart_window_s=config.restart_window_s,
                hedge_fraction=config.hedge_fraction,
                **batching,
            )
            self.executor: Any = self.fleet
        else:
            from repro.gpu.simulator import GpuSimulator

            self._simulator = simulator or GpuSimulator(config.engine)
            if cache is None and config.use_cache:
                from repro.sweep.cache import SweepCache

                cache = SweepCache(config.cache_dir)
            self.executor = MicroBatcher(
                self._simulator, cache=cache, **batching
            )
        self.batcher = self.executor
        # (method, path) -> (schema parser name or None, handler).
        self._routes: Dict[Tuple[str, str], Tuple[Optional[str], Any]] = {
            ("GET", "/healthz"): (None, self._get_healthz),
            ("GET", "/metrics"): (None, self._get_metrics),
            ("GET", "/v1/engines"): (None, self._get_engines),
            ("GET", "/v1/families"): (None, self._get_families),
            ("POST", "/v1/simulate"): ("parse_simulate", self._post_simulate),
            ("POST", "/v1/classify"): ("parse_classify", self._post_classify),
            ("POST", "/v1/whatif"): ("parse_whatif", self._post_whatif),
            ("POST", "/v1/transfer"): ("parse_transfer", self._post_transfer),
            ("POST", "/v1/optimize"): ("parse_optimize", self._post_optimize),
            ("POST", "/v1/coschedule"): (
                "parse_coschedule", self._post_coschedule,
            ),
        }
        self._paths = {path for _, path in self._routes}
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._connections: "set[asyncio.Task]" = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the real one)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        """True once shutdown has begun."""
        return self._draining

    async def start(self) -> None:
        """Start the executor (batcher or fleet), bind the listener."""
        await self.executor.start()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
        )

    async def serve_forever(self) -> None:
        """Serve until cancelled (used by ``gpuscale serve``)."""
        if self._server is None:
            raise RuntimeError("service is not started")
        await self._server.serve_forever()

    async def shutdown(self, drain: bool = True) -> None:
        """Stop serving.

        Graceful (``drain=True``): refuse new work, let in-flight
        requests and every admitted query finish, then close idle
        connections. ``drain=False`` tears everything down at once.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            await self._idle.wait()
        await self.executor.stop(drain=drain)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(
                *self._connections, return_exceptions=True
            )
        self._connections.clear()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                    and not self._draining
                )
                self._inflight += 1
                self._idle.clear()
                self.metrics.adjust_inflight(1)
                started = time.perf_counter()
                try:
                    status, payload, content_type, extra = (
                        await self._dispatch(method, path, body)
                    )
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
                    self.metrics.adjust_inflight(-1)
                self.metrics.record_request(
                    path, status, time.perf_counter() - started
                )
                await self._write_response(
                    writer, status, payload, content_type,
                    keep_alive=keep_alive, extra_headers=extra,
                )
                if not keep_alive:
                    break
        except _HttpViolation as violation:
            status, body, content_type, _ = _json_error(
                violation.status, violation.code, violation.message
            )
            await self._write_response(
                writer, status, body, content_type, keep_alive=False
            )
        except (
            asyncio.CancelledError,
            asyncio.IncompleteReadError,
            ConnectionError,
        ):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        try:
            line = await reader.readline()
        except ValueError as exc:  # line longer than the stream limit
            raise _HttpViolation(
                400, "request_too_long", str(exc)
            ) from exc
        if not line:
            return None
        if len(line) > MAX_REQUEST_LINE:
            raise _HttpViolation(
                400, "request_too_long", "request line exceeds 8 KiB"
            )
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpViolation(
                400, "malformed_request",
                f"unparseable request line {line!r}",
            )
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            header_line = await reader.readline()
            if header_line in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= MAX_HEADERS:
                raise _HttpViolation(
                    400, "malformed_request", "too many headers"
                )
            name, sep, value = (
                header_line.decode("latin-1").partition(":")
            )
            if not sep:
                raise _HttpViolation(
                    400, "malformed_request",
                    f"unparseable header {header_line!r}",
                )
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            raise _HttpViolation(
                400, "malformed_request",
                f"unparseable Content-Length {raw_length!r}",
            ) from None
        if length > MAX_BODY_BYTES:
            raise _HttpViolation(
                413, "body_too_large",
                f"body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap",
            )
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: str,
        content_type: str,
        keep_alive: bool,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        encoded = body.encode()
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(encoded)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + encoded)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, str, str, Optional[Dict[str, str]]]:
        """Route one request; returns (status, body, type, headers).

        A POST body goes through its endpoint's :mod:`schema` parser,
        looked up by name at request time, and the request's budget;
        the handler then only builds its queries and its JSON.
        """
        route = self._routes.get((method, path))
        if route is None:
            if path in self._paths:
                return _json_error(
                    405, "method_not_allowed",
                    f"{method} is not supported on {path}",
                )
            return _json_error(404, "not_found", f"no endpoint at {path}")
        parser, handler = route
        if parser is not None and self._draining:
            return _json_error(503, "draining", "server is shutting down")
        try:
            if parser is None:
                response = await handler()
            else:
                request = getattr(schema, parser)(self._decode_json(body))
                response = await handler(request, self._submitter(request))
        except ReproError as exc:
            kind = error_kind(exc)
            if kind.reason is not None:
                self.metrics.record_rejection(kind.reason)
            payload = (
                exc.to_payload() if kind.code is None
                else _error_payload(kind.code, str(exc))
            )
            headers = None
            if kind.status == 429:
                headers = {"Retry-After": str(self._retry_after_s(exc))}
            return (
                kind.status, json.dumps(payload), "application/json",
                headers,
            )
        if isinstance(response, str):  # /metrics renders its own text
            return (
                200, response,
                "text/plain; version=0.0.4; charset=utf-8", None,
            )
        return 200, json.dumps(response), "application/json", None

    def _retry_after_s(self, exc: OverloadError) -> int:
        """Whole seconds for the 429 ``Retry-After`` header.

        Prefers the estimate the shedding component attached to the
        exception (queue depth / observed drain rate); falls back to
        asking the executor live, then to one second.
        """
        estimate = getattr(exc, "retry_after", None)
        if estimate is None:
            probe = getattr(self.executor, "retry_after_s", None)
            if probe is not None:
                estimate = probe()
        if estimate is None or not estimate > 0:
            estimate = 1.0
        return max(1, math.ceil(estimate))

    @staticmethod
    def _decode_json(body: bytes) -> Any:
        if not body:
            raise schema.RequestError(
                "invalid_json", "POST body is empty; send a JSON object"
            )
        try:
            return json.loads(body)
        except json.JSONDecodeError as exc:
            raise schema.RequestError(
                "invalid_json", f"body is not valid JSON: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Deadlines
    # ------------------------------------------------------------------

    def _submitter(self, request: Any) -> Submit:
        """Submit queries to the executor under *request*'s budget.

        The caller's ``timeout_ms`` can only shrink the server's
        configured ceiling, never grow it; the deadline is absolute
        ``time.monotonic()`` and travels with every query all the way
        into the worker's batcher.
        """
        timeout = self.config.request_timeout_s
        if request.timeout_s is not None:
            timeout = min(timeout, request.timeout_s)
        deadline = deadline_from_timeout(timeout)

        def submit(query: Any) -> Awaitable[Any]:
            return self.executor.submit(
                query, timeout=timeout, deadline=deadline
            )

        return submit

    async def _submit_grid(self, query: GridQuery, submit: Submit) -> Any:
        """Submit one grid query, counted against its family."""
        from repro.gpu.uarch import family_label

        self.metrics.record_family(family_label(query.space.uarch))
        return await submit(query)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    async def _get_healthz(self) -> Dict[str, Any]:
        from repro.gpu.uarch import family_names

        status = "draining" if self._draining else "ok"
        payload: Dict[str, Any] = {
            "status": status,
            "engine": getattr(
                self._simulator, "engine_name", self.config.engine
            )
            or self.config.engine,
            "queue_depth": self.executor.pending,
            "families": list(family_names()),
        }
        if self.fleet is not None:
            states = self.fleet.worker_states()
            payload["workers"] = states
            if not self._draining and not all(
                state["alive"] for state in states
            ):
                # A dead worker is being restarted (or its shard is
                # lost); either way the fleet is not fully healthy.
                payload["status"] = "degraded"
        return payload

    async def _get_metrics(self) -> str:
        if self.fleet is not None:
            return await self.fleet.render_metrics(self.metrics.registry)
        return self.metrics.render()

    async def _get_engines(self) -> Dict[str, Any]:
        from repro.gpu.engine import list_engines

        engines = [
            {
                "name": reg.name,
                "family": reg.descriptor.family,
                "version": reg.descriptor.version,
                "capabilities": reg.capabilities.as_dict(),
                "fidelity": reg.descriptor.fidelity,
                "fingerprint_material": (
                    reg.descriptor.fingerprint_material()
                ),
                "summary": reg.summary,
            }
            for reg in list_engines()
        ]
        return {"engines": engines}

    async def _get_families(self) -> Dict[str, Any]:
        from repro.gpu.uarch import list_families

        return {
            "families": [family.to_dict() for family in list_families()]
        }

    async def _post_simulate(
        self, request: schema.SimulateRequest, submit: Submit
    ) -> Dict[str, Any]:
        if not request.is_grid:
            result = await submit(
                PointQuery(kernel=request.kernel, config=request.config)
            )
            return {
                "kernel": result.kernel_name,
                "config": _config_json(request.config),
                "time_s": result.time_s,
                "items_per_second": result.items_per_second,
                "fidelity": "exact",
            }
        result = await self._submit_grid(
            GridQuery(kernel=request.kernel, space=request.space), submit
        )
        return {
            "kernel": result.kernel_name,
            "space": _space_json(request.space),
            "items_per_second": result.items_per_second.tolist(),
            "time_s": result.time_s.tolist(),
            "from_cache": result.from_cache,
            "fidelity": "exact",
        }

    async def _post_classify(
        self, request: schema.ClassifyRequest, submit: Submit
    ) -> Dict[str, Any]:
        from repro.taxonomy.explain import explain_label

        result = await self._submit_grid(
            GridQuery(kernel=request.kernel, space=request.space), submit
        )
        label = _classify_one(
            request.space, result.kernel_name, result.items_per_second
        )
        return {
            "kernel": result.kernel_name,
            **_label_json(label),
            "explanation": explain_label(label),
            "from_cache": result.from_cache,
            "fidelity": "exact",
        }

    async def _post_transfer(
        self, request: schema.TransferRequest, submit: Submit
    ) -> Dict[str, Any]:
        from repro.predict.transfer import transfer_predictor

        # Fitting the cross-family corpus costs two batch studies; it
        # is memoised per family pair, so only the first request for a
        # pair pays — off the event loop either way.
        predictor = await asyncio.to_thread(
            transfer_predictor,
            request.source_family,
            request.target_family,
        )
        result = await self._submit_grid(
            GridQuery(kernel=request.kernel, space=predictor.source.space),
            submit,
        )
        prediction = predictor.predict_cube(
            np.asarray(result.items_per_second),
            kernel_name=result.kernel_name,
        )
        target_space = predictor.target.space
        label = _classify_one(
            target_space, result.kernel_name, prediction.cube
        )
        transfer_error = await asyncio.to_thread(
            predictor.measured_error
        )
        self.metrics.record_transfer(
            request.source_family, request.target_family
        )
        return {
            "kernel": result.kernel_name,
            "source_family": request.source_family,
            "target_family": request.target_family,
            **_label_json(label),
            "neighbours": list(prediction.neighbours),
            "neighbour_distances": list(
                prediction.neighbour_distances
            ),
            "transfer_error": transfer_error,
            "target_space": _space_json(target_space),
            "items_per_second": prediction.cube.tolist(),
            "from_cache": result.from_cache,
            "fidelity": "exact",
        }

    async def _post_whatif(
        self, request: schema.WhatIfRequest, submit: Submit
    ) -> Dict[str, Any]:
        from repro.predict.what_if import STANDARD_SCENARIOS

        # Baseline plus every scenario submitted together: all seven
        # are queued before the batcher's collector runs again, and
        # its drain takes them as one micro-batch.
        kernels = [request.kernel] + [
            scenario.apply(request.kernel)
            for scenario in STANDARD_SCENARIOS
        ]
        results = await asyncio.gather(*(
            submit(PointQuery(kernel=kernel, config=request.config))
            for kernel in kernels
        ))
        baseline = results[0].items_per_second
        scenarios = sorted(
            (
                {
                    "name": scenario.name,
                    "description": scenario.description,
                    "speedup": result.items_per_second / baseline,
                    "optimised_items_per_second": (
                        result.items_per_second
                    ),
                }
                for scenario, result in zip(
                    STANDARD_SCENARIOS, results[1:]
                )
            ),
            key=lambda row: -row["speedup"],
        )
        return {
            "kernel": request.kernel.full_name,
            "config": _config_json(request.config),
            "baseline_items_per_second": baseline,
            "scenarios": scenarios,
        }

    async def _post_optimize(
        self, request: schema.OptimizeRequest, submit: Submit
    ) -> Dict[str, Any]:
        """Energy-optimal serving over the full surface.

        The surface (solo energy, or pair makespan/pair energy) is
        computed wherever the executor routes it; the argmin / Pareto
        sweep runs *here* on the returned arrays. Selection is pure
        NumPy over bits that cross the fleet transport unchanged, so
        single-process and fleet answers are identical by
        construction.
        """
        from repro.errors import AnalysisError
        from repro.power.dvfs_opt import (
            frontier_points,
            select_optimum,
        )

        if request.kernel_b is None:
            result = await submit(
                EnergyGridQuery(kernel=request.kernel, space=request.space)
            )
            time_s = np.asarray(result.time_s)
            names = {"kernel": result.kernel_name}
            from_cache = result.from_cache
        else:
            result = await submit(PairGridQuery(
                kernel_a=request.kernel,
                kernel_b=request.kernel_b,
                space=request.space,
            ))
            # A pair is priced on its makespan and pair energy: the
            # objective optimises the co-run as a whole.
            time_s = np.asarray(result.makespan_s)
            names = {
                "kernel": result.kernel_a,
                "kernel_b": result.kernel_b,
            }
            from_cache = False
        energy_j = np.asarray(result.energy_j)
        power_w = np.asarray(result.power_w)
        self.metrics.record_optimize(request.objective.value)
        head = {
            **names,
            "objective": request.objective.value,
            "power_cap_w": request.power_cap_w,
        }
        try:
            if request.frontier:
                points = frontier_points(
                    request.space, time_s, energy_j, power_w,
                    request.power_cap_w,
                )
                return {
                    **head,
                    "frontier": [
                        {
                            "config": _config_json(p.config),
                            "time_s": p.time_s,
                            "energy_j": p.energy_j,
                            "power_w": p.power_w,
                            "edp": p.edp,
                        }
                        for p in points
                    ],
                    "from_cache": from_cache,
                }
            c, e, m = select_optimum(
                time_s, energy_j, power_w,
                request.objective, request.power_cap_w,
            )
        except AnalysisError as exc:
            # An unsatisfiable power cap is the caller's constraint
            # problem, not a server fault: answer a structured 400.
            raise schema.RequestError(
                "unsatisfiable_power_cap", str(exc), field="power_cap_w"
            ) from exc
        return {
            **head,
            "config": _config_json(request.space.config(c, e, m)),
            "time_s": float(time_s[c, e, m]),
            "energy_j": float(energy_j[c, e, m]),
            "power_w": float(power_w[c, e, m]),
            "edp": float(energy_j[c, e, m] * time_s[c, e, m]),
            "from_cache": from_cache,
        }

    async def _post_coschedule(
        self, request: schema.CoScheduleRequest, submit: Submit
    ) -> Dict[str, Any]:
        """One co-resident pair: point breakdown or surface summary."""
        from repro.sweep.space import ConfigurationSpace

        if request.is_point:
            point = request.config
            space = ConfigurationSpace(
                cu_counts=(point.cu_count,),
                engine_mhz=(point.engine_mhz,),
                memory_mhz=(point.memory_mhz,),
            )
        else:
            space = request.space
        result = await submit(PairGridQuery(
            kernel_a=request.kernel_a,
            kernel_b=request.kernel_b,
            space=space,
        ))
        self.metrics.record_coschedule()
        stp = np.asarray(result.stp)
        antt = np.asarray(result.antt)
        names = {"kernel_a": result.kernel_a, "kernel_b": result.kernel_b}
        if request.is_point:
            idx = (0, 0, 0)
            return {
                **names,
                "config": _config_json(request.config),
                "a": {
                    "time_s": float(result.time_a[idx]),
                    "solo_time_s": float(result.solo_time_a[idx]),
                    "slowdown": float(result.slowdown_a[idx]),
                },
                "b": {
                    "time_s": float(result.time_b[idx]),
                    "solo_time_s": float(result.solo_time_b[idx]),
                    "slowdown": float(result.slowdown_b[idx]),
                },
                "makespan_s": float(result.makespan_s[idx]),
                "power_w": float(result.power_w[idx]),
                "energy_j": float(result.energy_j[idx]),
                "stp": float(stp[idx]),
                "antt": float(antt[idx]),
            }
        best = np.unravel_index(int(np.argmax(stp)), stp.shape)
        return {
            **names,
            "space": _space_json(space),
            "stp": _summary(stp, "min", "mean", "max"),
            "antt": _summary(antt, "min", "mean", "max"),
            "slowdown_a": _summary(result.slowdown_a, "min", "max"),
            "slowdown_b": _summary(result.slowdown_b, "min", "max"),
            "best_stp": {
                "config": _config_json(
                    space.config(*(int(i) for i in best))
                ),
                "stp": float(stp[best]),
                "antt": float(antt[best]),
            },
        }


def _config_json(config: Any) -> Dict[str, Any]:
    return {
        "cu_count": config.cu_count,
        "engine_mhz": config.engine_mhz,
        "memory_mhz": config.memory_mhz,
    }


def _space_json(space: Any) -> Dict[str, Any]:
    return {
        "cu_counts": list(space.cu_counts),
        "engine_mhz": list(space.engine_mhz),
        "memory_mhz": list(space.memory_mhz),
    }


def _label_json(label: Any) -> Dict[str, Any]:
    return {
        "category": label.category.value,
        "behaviours": {
            "cu": label.cu_behaviour.value,
            "engine": label.engine_behaviour.value,
            "memory": label.memory_behaviour.value,
        },
    }


def _summary(values: Any, *stats: str) -> Dict[str, float]:
    """``{stat: float(values.stat())}`` for each named NumPy reduction."""
    return {stat: float(getattr(values, stat)()) for stat in stats}


def _classify_one(space: Any, kernel_name: str, cube: Any) -> Any:
    """The taxonomy label of one kernel's surface over *space*."""
    from repro.sweep.dataset import KernelRecord, ScalingDataset
    from repro.taxonomy.classifier import classify

    dataset = ScalingDataset(
        space,
        [KernelRecord.from_full_name(kernel_name)],
        np.asarray(cube)[np.newaxis, ...],
    )
    return classify(dataset).labels[0]


async def run_service(
    config: ServiceConfig,
    *,
    stop_event: Optional[asyncio.Event] = None,
    ready_callback=None,
) -> None:
    """Start a service, announce readiness, serve until *stop_event*.

    The CLI's async main: installs nothing itself (signal handling is
    the caller's job), drains gracefully once *stop_event* fires.
    """
    service = GpuScaleService(config)
    await service.start()
    if ready_callback is not None:
        ready_callback(service)
    if stop_event is None:
        stop_event = asyncio.Event()
    try:
        await stop_event.wait()
    finally:
        await service.shutdown(drain=True)
