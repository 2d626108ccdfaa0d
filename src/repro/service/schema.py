"""Versioned request schemas with structured validation errors.

Every ``/v1/*`` POST body is validated here before it reaches the
batcher. Validation failures raise :class:`RequestError`, which carries
a machine-readable ``code``, a human-readable ``message``, and (where
one applies) the offending ``field`` — the server renders it as a
structured 400 body::

    {"error": {"code": "missing_field", "message": "...", "field": "kernel"}}

Request bodies carry an optional ``"version"`` key; absent means the
current :data:`SCHEMA_VERSION`. Anything else is rejected with
``unsupported_version`` so clients pinned to a future schema fail
loudly instead of being half-interpreted.

Kernels are named two ways: a catalog identifier string
(``"rodinia/bfs.kernel1"``) or a full inline kernel definition (the
:meth:`~repro.kernels.kernel.Kernel.to_dict` payload), so callers can
query hypothetical kernels that exist nowhere in the catalog.
Configuration spaces are named three ways: ``"paper"`` (the 11 x 9 x 9
study grid), any registered microarchitecture family name (that
family's canonical grid, e.g. ``"kaveri"``), or an explicit
``{cu_counts, engine_mhz, memory_mhz}`` axes payload — optionally with
a ``"uarch"`` key naming a registered family or inlining
:meth:`~repro.gpu.config.Microarchitecture.to_dict` values, so callers
can sweep custom grids on non-default physics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.errors import ConfigurationError, ReproError, SuiteError, WorkloadError
from repro.gpu.config import HardwareConfig, Microarchitecture
from repro.kernels.kernel import Kernel
from repro.sweep.space import PAPER_SPACE, ConfigurationSpace

#: The one schema version this server speaks.
SCHEMA_VERSION = 1

#: Cap on grid sizes a single query may request (anti-foot-gun: a
#: malformed axes payload must not commission a gigapoint broadcast).
MAX_GRID_POINTS = 1_000_000


class RequestError(ReproError):
    """A structurally invalid request (HTTP 400).

    *code* is stable and machine-readable; *field* names the offending
    body key when one exists.
    """

    def __init__(
        self, code: str, message: str, field: Optional[str] = None
    ):
        super().__init__(message)
        self.code = code
        self.message = message
        self.field = field

    def to_payload(self) -> Dict[str, Any]:
        """The structured 400 body."""
        error: Dict[str, Any] = {
            "code": self.code, "message": self.message,
        }
        if self.field is not None:
            error["field"] = self.field
        return {"error": error}


@dataclass(frozen=True)
class SimulateRequest:
    """A validated ``/v1/simulate`` body: one kernel, one call shape.

    Exactly one of *config* (a point query) or *space* (a grid query)
    is set. *timeout_s* is the caller's own budget (from the optional
    ``timeout_ms`` body key); the server clamps it to its configured
    ceiling and turns it into the request's absolute deadline.
    """

    kernel: Kernel
    config: Optional[HardwareConfig] = None
    space: Optional[ConfigurationSpace] = None
    timeout_s: Optional[float] = None

    @property
    def is_grid(self) -> bool:
        """True for grid queries."""
        return self.space is not None


@dataclass(frozen=True)
class ClassifyRequest:
    """A validated ``/v1/classify`` body: kernel plus taxonomy grid."""

    kernel: Kernel
    space: ConfigurationSpace
    timeout_s: Optional[float] = None


@dataclass(frozen=True)
class WhatIfRequest:
    """A validated ``/v1/whatif`` body: kernel plus evaluation point."""

    kernel: Kernel
    config: HardwareConfig
    timeout_s: Optional[float] = None


@dataclass(frozen=True)
class OptimizeRequest:
    """A validated ``/v1/optimize`` body: energy-optimal serving.

    *kernel* is optimised alone, or co-scheduled with *kernel_b* when
    one is given (the objective then prices the pair's makespan and
    pair energy). *frontier* swaps the single-optimum answer for the
    full (time, energy) Pareto frontier; *power_cap_w* excludes
    configurations whose modelled board power exceeds the cap.
    """

    kernel: Kernel
    objective: Any
    kernel_b: Optional[Kernel] = None
    power_cap_w: Optional[float] = None
    frontier: bool = False
    space: ConfigurationSpace = PAPER_SPACE
    timeout_s: Optional[float] = None


@dataclass(frozen=True)
class CoScheduleRequest:
    """A validated ``/v1/coschedule`` body: one co-resident pair.

    With *config* set the response is that single point's contention
    breakdown; otherwise the pair is evaluated over *space* and the
    response summarises the STP/ANTT surfaces.
    """

    kernel_a: Kernel
    kernel_b: Kernel
    config: Optional[HardwareConfig] = None
    space: ConfigurationSpace = PAPER_SPACE
    timeout_s: Optional[float] = None

    @property
    def is_point(self) -> bool:
        """True when the request names a single configuration."""
        return self.config is not None


@dataclass(frozen=True)
class TransferRequest:
    """A validated ``/v1/transfer`` body: kernel plus a family pair.

    The kernel is measured on *source_family*'s canonical grid (through
    the normal batcher/fleet path) and its scaling surface and taxonomy
    class on *target_family* are predicted from the cross-family
    corpus — no target-family sweep of the kernel happens.
    """

    kernel: Kernel
    source_family: str
    target_family: str
    timeout_s: Optional[float] = None


def _require_mapping(payload: Any) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise RequestError(
            "invalid_body",
            f"request body must be a JSON object, got "
            f"{type(payload).__name__}",
        )
    return payload


def check_version(payload: Mapping[str, Any]) -> None:
    """Reject bodies written against another schema version."""
    version = payload.get("version", SCHEMA_VERSION)
    if not isinstance(version, int) or isinstance(version, bool):
        raise RequestError(
            "unsupported_version",
            f"version must be an integer, got {version!r}",
            field="version",
        )
    if version != SCHEMA_VERSION:
        raise RequestError(
            "unsupported_version",
            f"this server speaks schema version {SCHEMA_VERSION}, "
            f"request carries {version}",
            field="version",
        )


def parse_kernel(payload: Mapping[str, Any]) -> Kernel:
    """The request's kernel: catalog name or inline definition."""
    if "kernel" not in payload:
        raise RequestError(
            "missing_field", "request has no 'kernel'", field="kernel"
        )
    return parse_kernel_spec(payload["kernel"], field="kernel")


def parse_kernel_spec(spec: Any, field: str = "kernel") -> Kernel:
    """One kernel reference: catalog name or inline definition."""
    if isinstance(spec, str):
        from repro.suites import kernel_by_name

        try:
            return kernel_by_name(spec)
        except SuiteError:
            raise RequestError(
                "unknown_kernel",
                f"no catalog kernel named {spec!r} "
                "(see 'gpuscale catalog')",
                field=field,
            ) from None
    if isinstance(spec, Mapping):
        try:
            return Kernel.from_dict(dict(spec))
        except (WorkloadError, KeyError, TypeError, ValueError) as exc:
            raise RequestError(
                "invalid_kernel",
                f"inline kernel definition rejected: {exc}",
                field=field,
            ) from exc
    raise RequestError(
        "invalid_kernel",
        f"{field} must be a catalog name string or an inline "
        f"definition object, got {type(spec).__name__}",
        field=field,
    )


def _parse_number(
    payload: Mapping[str, Any], field: str, parent: str
) -> float:
    value = payload.get(field)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(
            "invalid_config",
            f"{parent}.{field} must be a number, got {value!r}",
            field=f"{parent}.{field}",
        )
    return float(value)


def parse_config(spec: Any, field: str = "config") -> HardwareConfig:
    """A hardware point: ``{cu_count, engine_mhz, memory_mhz}``."""
    if not isinstance(spec, Mapping):
        raise RequestError(
            "invalid_config",
            f"{field} must be an object, got {type(spec).__name__}",
            field=field,
        )
    unknown = set(spec) - {"cu_count", "engine_mhz", "memory_mhz"}
    if unknown:
        raise RequestError(
            "invalid_config",
            f"unknown {field} keys: {sorted(unknown)}",
            field=field,
        )
    for required in ("cu_count", "engine_mhz", "memory_mhz"):
        if required not in spec:
            raise RequestError(
                "missing_field",
                f"{field} has no '{required}'",
                field=f"{field}.{required}",
            )
    try:
        return HardwareConfig(
            cu_count=int(_parse_number(spec, "cu_count", field)),
            engine_mhz=_parse_number(spec, "engine_mhz", field),
            memory_mhz=_parse_number(spec, "memory_mhz", field),
        )
    except ReproError as exc:
        if isinstance(exc, RequestError):
            raise
        raise RequestError(
            "invalid_config", str(exc), field=field
        ) from exc


def parse_family(spec: Any, field: str = "family"):
    """A registered family by name, or a structured 400."""
    from repro.gpu.uarch import family_names, get_family

    if not isinstance(spec, str):
        raise RequestError(
            "unknown_family",
            f"{field} must be a family name string, got "
            f"{type(spec).__name__}",
            field=field,
        )
    try:
        return get_family(spec)
    except ConfigurationError:
        known = ", ".join(family_names())
        raise RequestError(
            "unknown_family",
            f"no microarchitecture family named {spec!r}; registered "
            f"families: {known}",
            field=field,
        ) from None


def _parse_uarch(spec: Any, field: str) -> Microarchitecture:
    """The axes payload's optional physics: a family name or values."""
    if isinstance(spec, str):
        return parse_family(spec, field=field).uarch
    if isinstance(spec, Mapping):
        try:
            return Microarchitecture.from_dict(dict(spec))
        except (ReproError, TypeError, ValueError) as exc:
            raise RequestError(
                "invalid_space",
                f"{field} rejected: {exc}",
                field=field,
            ) from exc
    raise RequestError(
        "invalid_space",
        f"{field} must be a family name string or a "
        f"microarchitecture values object, got {type(spec).__name__}",
        field=field,
    )


def parse_space(spec: Any, field: str = "space") -> ConfigurationSpace:
    """A configuration grid: ``"paper"``, a family name, or axes.

    A string other than ``"paper"`` resolves through the family
    registry to that family's canonical grid. An axes object may carry
    an optional ``"uarch"`` key (family name or inline physics values)
    so a custom grid can sweep non-default physics.
    """
    if spec == "paper":
        return PAPER_SPACE
    if isinstance(spec, str):
        return parse_family(spec, field=field).space
    if not isinstance(spec, Mapping):
        raise RequestError(
            "invalid_space",
            f"{field} must be \"paper\", a family name, or an axes "
            f"object, got {spec!r}",
            field=field,
        )
    unknown = set(spec) - {"cu_counts", "engine_mhz", "memory_mhz", "uarch"}
    if unknown:
        raise RequestError(
            "invalid_space",
            f"unknown {field} keys: {sorted(unknown)}",
            field=field,
        )
    axes = {k: v for k, v in spec.items() if k != "uarch"}
    uarch = (
        _parse_uarch(spec["uarch"], f"{field}.uarch")
        if "uarch" in spec
        else None
    )
    try:
        space = ConfigurationSpace.from_dict(dict(axes))
        if uarch is not None:
            space = ConfigurationSpace(
                cu_counts=space.cu_counts,
                engine_mhz=space.engine_mhz,
                memory_mhz=space.memory_mhz,
                uarch=uarch,
            )
    except (ReproError, KeyError, TypeError, ValueError) as exc:
        raise RequestError(
            "invalid_space",
            f"{field} rejected: {exc}",
            field=field,
        ) from exc
    if space.size > MAX_GRID_POINTS:
        raise RequestError(
            "grid_too_large",
            f"{field} spans {space.size} points; this server caps "
            f"grid queries at {MAX_GRID_POINTS}",
            field=field,
        )
    return space


def parse_timeout_ms(payload: Mapping[str, Any]) -> Optional[float]:
    """The optional per-request budget, converted to seconds.

    ``timeout_ms`` lets a caller ask for *less* time than the server's
    default; the server clamps it to its own ceiling, so it can never
    buy more.
    """
    if "timeout_ms" not in payload:
        return None
    value = payload["timeout_ms"]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(
            "invalid_timeout",
            f"timeout_ms must be a number, got {value!r}",
            field="timeout_ms",
        )
    if not value > 0:
        raise RequestError(
            "invalid_timeout",
            f"timeout_ms must be > 0, got {value!r}",
            field="timeout_ms",
        )
    return float(value) / 1000.0


def parse_tolerance(payload: Mapping[str, Any]) -> Optional[float]:
    """The optional acceptable relative error of a grid query.

    ``tolerance`` is a fraction (``0.25`` accepts answers within 25%
    of the exact surface). Every query is answered exactly, and an
    exact answer satisfies every tolerance, so a valid value is
    accepted and otherwise ignored; a malformed one is still a 400.
    """
    if "tolerance" not in payload:
        return None
    value = payload["tolerance"]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(
            "invalid_tolerance",
            f"tolerance must be a number, got {value!r}",
            field="tolerance",
        )
    if not value >= 0:
        raise RequestError(
            "invalid_tolerance",
            f"tolerance must be >= 0, got {value!r}",
            field="tolerance",
        )
    return float(value)


def parse_simulate(payload: Any) -> SimulateRequest:
    """Validate a ``/v1/simulate`` body."""
    payload = _require_mapping(payload)
    check_version(payload)
    kernel = parse_kernel(payload)
    timeout_s = parse_timeout_ms(payload)
    tolerance = parse_tolerance(payload)
    has_config = "config" in payload
    has_space = "space" in payload
    if has_config == has_space:
        raise RequestError(
            "invalid_shape",
            "exactly one of 'config' (point query) or 'space' "
            "(grid query) is required",
        )
    if has_config:
        if tolerance is not None:
            raise RequestError(
                "invalid_tolerance",
                "tolerance applies to grid queries only; point "
                "queries are always answered exactly",
                field="tolerance",
            )
        return SimulateRequest(
            kernel=kernel,
            config=parse_config(payload["config"]),
            timeout_s=timeout_s,
        )
    return SimulateRequest(
        kernel=kernel,
        space=parse_space(payload["space"]),
        timeout_s=timeout_s,
    )


def parse_classify(payload: Any) -> ClassifyRequest:
    """Validate a ``/v1/classify`` body (space defaults to the paper
    grid — the taxonomy's end-of-axis features want full resolution)."""
    payload = _require_mapping(payload)
    check_version(payload)
    kernel = parse_kernel(payload)
    space = (
        parse_space(payload["space"]) if "space" in payload else PAPER_SPACE
    )
    timeout_s = parse_timeout_ms(payload)
    parse_tolerance(payload)  # validated only: every answer is exact
    return ClassifyRequest(kernel=kernel, space=space, timeout_s=timeout_s)


def parse_transfer(payload: Any) -> TransferRequest:
    """Validate a ``/v1/transfer`` body.

    Requires ``kernel``, ``source_family``, and ``target_family`` (two
    distinct registered family names); accepts the usual optional
    ``timeout_ms``.
    """
    payload = _require_mapping(payload)
    check_version(payload)
    kernel = parse_kernel(payload)
    for required in ("source_family", "target_family"):
        if required not in payload:
            raise RequestError(
                "missing_field",
                f"request has no '{required}'",
                field=required,
            )
    source = parse_family(payload["source_family"], field="source_family")
    target = parse_family(payload["target_family"], field="target_family")
    if source.name == target.name:
        raise RequestError(
            "invalid_transfer",
            f"source_family and target_family must differ, got "
            f"{source.name!r} twice",
            field="target_family",
        )
    return TransferRequest(
        kernel=kernel,
        source_family=source.name,
        target_family=target.name,
        timeout_s=parse_timeout_ms(payload),
    )


def parse_whatif(payload: Any) -> WhatIfRequest:
    """Validate a ``/v1/whatif`` body (config defaults to the paper
    grid's flagship corner)."""
    payload = _require_mapping(payload)
    check_version(payload)
    kernel = parse_kernel(payload)
    config = (
        parse_config(payload["config"])
        if "config" in payload
        else PAPER_SPACE.max_config
    )
    return WhatIfRequest(
        kernel=kernel, config=config, timeout_s=parse_timeout_ms(payload)
    )


def parse_objective(payload: Mapping[str, Any]):
    """The optional DVFS objective; defaults to ``min_edp``."""
    from repro.power.dvfs_opt import Objective

    spec = payload.get("objective", Objective.MIN_EDP.value)
    if isinstance(spec, str):
        for objective in Objective:
            if objective.value == spec:
                return objective
    known = ", ".join(o.value for o in Objective)
    raise RequestError(
        "invalid_objective",
        f"objective must be one of: {known}; got {spec!r}",
        field="objective",
    )


def parse_power_cap(payload: Mapping[str, Any]) -> Optional[float]:
    """The optional board-power cap in watts (must be > 0)."""
    if "power_cap_w" not in payload:
        return None
    value = payload["power_cap_w"]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(
            "invalid_power_cap",
            f"power_cap_w must be a number, got {value!r}",
            field="power_cap_w",
        )
    if not value > 0:
        raise RequestError(
            "invalid_power_cap",
            f"power_cap_w must be > 0, got {value!r}",
            field="power_cap_w",
        )
    return float(value)


def _parse_flag(
    payload: Mapping[str, Any], field: str, default: bool = False
) -> bool:
    value = payload.get(field, default)
    if not isinstance(value, bool):
        raise RequestError(
            "invalid_flag",
            f"{field} must be a boolean, got {value!r}",
            field=field,
        )
    return value


def parse_optimize(payload: Any) -> OptimizeRequest:
    """Validate a ``/v1/optimize`` body.

    Requires ``kernel``; accepts optional ``kernel_b`` (pair
    optimisation), ``objective`` (default ``min_edp``),
    ``power_cap_w``, ``frontier`` (boolean), ``space`` and
    ``timeout_ms``.
    """
    payload = _require_mapping(payload)
    check_version(payload)
    kernel = parse_kernel(payload)
    kernel_b = (
        parse_kernel_spec(payload["kernel_b"], field="kernel_b")
        if "kernel_b" in payload
        else None
    )
    space = (
        parse_space(payload["space"])
        if "space" in payload
        else PAPER_SPACE
    )
    return OptimizeRequest(
        kernel=kernel,
        kernel_b=kernel_b,
        objective=parse_objective(payload),
        power_cap_w=parse_power_cap(payload),
        frontier=_parse_flag(payload, "frontier"),
        space=space,
        timeout_s=parse_timeout_ms(payload),
    )


def parse_coschedule(payload: Any) -> CoScheduleRequest:
    """Validate a ``/v1/coschedule`` body.

    Requires ``kernel_a`` and ``kernel_b``; accepts at most one of
    ``config`` (single-point breakdown) or ``space`` (surface
    summary, default the paper grid), plus ``timeout_ms``.
    """
    payload = _require_mapping(payload)
    check_version(payload)
    for required in ("kernel_a", "kernel_b"):
        if required not in payload:
            raise RequestError(
                "missing_field",
                f"request has no '{required}'",
                field=required,
            )
    if "config" in payload and "space" in payload:
        raise RequestError(
            "invalid_shape",
            "at most one of 'config' (point) or 'space' (surface) "
            "may be given",
        )
    config = (
        parse_config(payload["config"]) if "config" in payload else None
    )
    space = (
        parse_space(payload["space"])
        if "space" in payload
        else PAPER_SPACE
    )
    return CoScheduleRequest(
        kernel_a=parse_kernel_spec(payload["kernel_a"], field="kernel_a"),
        kernel_b=parse_kernel_spec(payload["kernel_b"], field="kernel_b"),
        config=config,
        space=space,
        timeout_s=parse_timeout_ms(payload),
    )
