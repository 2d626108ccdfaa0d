"""The service's one exception table.

Every exception a query can end in is listed once in :data:`ERROR_KINDS`
with everything the service decides about it: the code it travels
under on the router-worker wire, the HTTP status and machine-readable
error code it answers with, and the ``gpuscale_rejected_total`` reason
it counts under. :mod:`repro.service.transport` encodes and rebuilds
errors from this table, and :mod:`repro.service.server` renders them
from it, so a fleet answer and a single-process answer fail alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.service.batcher import (
    DeadlineExceededError,
    OverloadError,
    ServiceClosedError,
    ServiceTimeoutError,
)
from repro.service.resilience import WorkerUnavailableError
from repro.service.schema import RequestError


@dataclass(frozen=True)
class ErrorKind:
    """How one exception class crosses the wire and answers over HTTP.

    *args* names the constructor's positional arguments; each travels
    as the exception attribute of that name (``"message"`` is the
    exception's text). *code* is ``None`` when the exception renders
    its own error body (:class:`~repro.service.schema.RequestError`).
    *reason* is ``None`` for failures that are not rejections.
    """

    cls: type
    wire: str
    status: int
    code: Optional[str]
    reason: Optional[str]
    args: Tuple[str, ...] = ("message",)


#: First match wins, so a subclass precedes its base.
ERROR_KINDS = (
    ErrorKind(RequestError, "request", 400, None, "invalid_request",
              ("code", "message", "field")),
    ErrorKind(OverloadError, "overload", 429, "overloaded", "overload",
              ("message", "retry_after")),
    ErrorKind(DeadlineExceededError, "deadline", 503,
              "deadline_exceeded", "deadline"),
    ErrorKind(ServiceTimeoutError, "timeout", 503, "timeout", "timeout"),
    ErrorKind(WorkerUnavailableError, "unavailable", 503,
              "no_worker_available", "unavailable"),
    ErrorKind(ServiceClosedError, "closed", 503, "draining", "draining"),
    ErrorKind(ConfigurationError, "configuration", 400,
              "unsupported_query", None),
    ErrorKind(WorkloadError, "workload", 400, "invalid_kernel", None),
    ErrorKind(SimulationError, "simulation", 500, "simulation_failed",
              None, ("kernel_name", "reason")),
    ErrorKind(ReproError, "repro", 500, "internal_error", None),
)

#: The table by wire code.
BY_WIRE = {kind.wire: kind for kind in ERROR_KINDS}


def error_kind(exc: BaseException) -> Optional[ErrorKind]:
    """The table row for *exc*; ``None`` for a non-package exception."""
    for kind in ERROR_KINDS:
        if isinstance(exc, kind.cls):
            return kind
    return None
