"""Service telemetry: counters, gauges, histograms, Prometheus text.

A deliberately small, stdlib-only metrics core: the service needs
counts (requests by endpoint/status, batches, rejections), live levels
(queue depth, in-flight requests), and distributions (request latency,
batch size) — and it needs to render them in the Prometheus text
exposition format at ``/metrics`` so any scraper can watch a running
``gpuscale serve``. Everything is guarded by one registry lock; the
recording paths are a dict increment, cheap enough for the request
hot path.

Bucket conventions follow Prometheus: histogram buckets are cumulative
``_bucket{le="..."}`` series with a ``+Inf`` terminator plus ``_sum``
and ``_count``. Label values are escaped per the exposition format
(backslash, double quote, newline).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): 250 us to 10 s, log-ish spacing.
LATENCY_BUCKETS = (
    0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default batch-size buckets (requests coalesced per engine dispatch).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

LabelValues = Tuple[str, ...]


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus exposition format."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def _format_value(value: float) -> str:
    """Render a sample value (integers without a trailing ``.0``)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(names: Sequence[str], values: LabelValues) -> str:
    if not names:
        return ""
    pairs = ", ".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


class Counter:
    """A monotonically increasing sample set, optionally labelled."""

    kind = "counter"

    def __init__(
        self, name: str, help_text: str,
        labelnames: Sequence[str] = (),
    ):
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._values: Dict[LabelValues, float] = {}

    def inc(self, amount: float = 1.0, *labels: str) -> None:
        """Add *amount* to the sample at *labels* (created at 0)."""
        if len(labels) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {labels!r}"
            )
        self._values[labels] = self._values.get(labels, 0.0) + amount

    def value(self, *labels: str) -> float:
        """Current sample at *labels* (0 when never incremented)."""
        return self._values.get(labels, 0.0)

    def snapshot(self) -> Dict[str, object]:
        """A plain-data copy (picklable; crosses process boundaries)."""
        return {
            "kind": self.kind,
            "help": self.help_text,
            "labelnames": list(self.labelnames),
            "samples": [
                [list(labels), value]
                for labels, value in sorted(self._values.items())
            ],
        }

    def total(self) -> float:
        """Sum across every label combination."""
        return sum(self._values.values())

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        if not self._values:
            if not self.labelnames:
                lines.append(f"{self.name} 0")
            return lines
        for labels in sorted(self._values):
            lines.append(
                f"{self.name}{_render_labels(self.labelnames, labels)} "
                f"{_format_value(self._values[labels])}"
            )
        return lines


class Gauge(Counter):
    """A sample that can go up and down (queue depth, in-flight)."""

    kind = "gauge"

    def set(self, value: float, *labels: str) -> None:
        """Set the sample at *labels* to *value*."""
        if len(labels) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {labels!r}"
            )
        self._values[labels] = float(value)

    def dec(self, amount: float = 1.0, *labels: str) -> None:
        """Subtract *amount* from the sample at *labels*."""
        self.inc(-amount, *labels)


class Histogram:
    """A fixed-bucket distribution (unlabelled; one series per metric)."""

    kind = "histogram"

    def __init__(
        self, name: str, help_text: str,
        buckets: Sequence[float],
    ):
        if list(buckets) != sorted(buckets) or len(set(buckets)) != len(
            buckets
        ):
            raise ValueError(
                f"{name} buckets must be strictly increasing: {buckets}"
            )
        self.name = name
        self.help_text = help_text
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[i] += 1
                return
        self._counts[-1] += 1

    def bucket_counts(self) -> Dict[str, int]:
        """Cumulative counts keyed by upper bound (incl. ``+Inf``)."""
        result: Dict[str, int] = {}
        running = 0
        for bound, count in zip(self.buckets, self._counts):
            running += count
            result[_format_value(bound)] = running
        result["+Inf"] = running + self._counts[-1]
        return result

    def quantile(self, q: float) -> float:
        """Approximate *q*-quantile from the bucket boundaries.

        Returns the upper bound of the first bucket whose cumulative
        count reaches ``q * count`` — the same estimate a Prometheus
        ``histogram_quantile`` would give, without interpolation. The
        last bucket's estimate is its lower bound (there is no upper).
        """
        if self.count == 0:
            return float("nan")
        target = q * self.count
        running = 0
        for bound, count in zip(self.buckets, self._counts):
            running += count
            if running >= target:
                return bound
        return self.buckets[-1] if self.buckets else float("inf")

    def snapshot(self) -> Dict[str, object]:
        """A plain-data copy (picklable; crosses process boundaries)."""
        return {
            "kind": self.kind,
            "help": self.help_text,
            "buckets": list(self.buckets),
            "counts": list(self._counts),
            "sum": self.sum,
            "count": self.count,
        }

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for bound, cumulative in self.bucket_counts().items():
            lines.append(
                f'{self.name}_bucket{{le="{bound}"}} {cumulative}'
            )
        lines.append(f"{self.name}_sum {_format_value(self.sum)}")
        lines.append(f"{self.name}_count {self.count}")
        return lines


class MetricsRegistry:
    """A lock-guarded collection of metrics with one text renderer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: "Dict[str, object]" = {}

    def counter(
        self, name: str, help_text: str,
        labelnames: Sequence[str] = (),
    ) -> Counter:
        """Create (or fetch) a counter registered under *name*."""
        return self._register(Counter(name, help_text, labelnames))

    def gauge(
        self, name: str, help_text: str,
        labelnames: Sequence[str] = (),
    ) -> Gauge:
        """Create (or fetch) a gauge registered under *name*."""
        return self._register(Gauge(name, help_text, labelnames))

    def histogram(
        self, name: str, help_text: str, buckets: Sequence[float],
    ) -> Histogram:
        """Create (or fetch) a histogram registered under *name*."""
        return self._register(Histogram(name, help_text, buckets))

    def _register(self, metric):
        with self._lock:
            existing = self._metrics.get(metric.name)
            if existing is not None:
                if type(existing) is not type(metric):
                    raise ValueError(
                        f"metric {metric.name!r} already registered "
                        f"as {type(existing).__name__}"
                    )
                return existing
            self._metrics[metric.name] = metric
            return metric

    @property
    def lock(self) -> threading.Lock:
        """The registry lock (shared by the recording helpers below)."""
        return self._lock

    def render(self) -> str:
        """The full Prometheus text exposition (trailing newline)."""
        with self._lock:
            lines: List[str] = []
            for name in sorted(self._metrics):
                lines.extend(self._metrics[name].render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-data copies of every metric, keyed by name.

        Taken under the registry lock, so one snapshot is internally
        consistent; the result is picklable and is what fleet workers
        ship to the router for :func:`render_fleet`.
        """
        with self._lock:
            return {
                name: metric.snapshot()
                for name, metric in self._metrics.items()
            }


def _merge_histogram(
    merged: Dict[str, object], snap: Dict[str, object]
) -> None:
    if merged["buckets"] != snap["buckets"]:
        # Differently-bucketed twins cannot merge; keep the first.
        return
    merged["counts"] = [
        a + b for a, b in zip(merged["counts"], snap["counts"])
    ]
    merged["sum"] += snap["sum"]
    merged["count"] += snap["count"]


def _render_snapshot_metric(
    name: str,
    snap: Dict[str, object],
    worker: Optional[str],
    with_meta: bool,
) -> List[str]:
    """Render one snapshotted metric, optionally labelled by worker."""
    lines: List[str] = []
    if with_meta:
        lines.append(f"# HELP {name} {snap['help']}")
        lines.append(f"# TYPE {name} {snap['kind']}")
    prefix = [] if worker is None else [("worker", worker)]
    if snap["kind"] == "histogram":
        running = 0
        counts = snap["counts"]
        for bound, count in zip(snap["buckets"], counts):
            running += count
            labels = prefix + [("le", _format_value(bound))]
            lines.append(f"{name}_bucket{_render_pairs(labels)} {running}")
        labels = prefix + [("le", "+Inf")]
        lines.append(
            f"{name}_bucket{_render_pairs(labels)} {running + counts[-1]}"
        )
        lines.append(
            f"{name}_sum{_render_pairs(prefix)} "
            f"{_format_value(snap['sum'])}"
        )
        lines.append(f"{name}_count{_render_pairs(prefix)} {snap['count']}")
        return lines
    samples = snap["samples"]
    if not samples and not snap["labelnames"] and worker is None:
        lines.append(f"{name} 0")
        return lines
    for labelvalues, value in samples:
        labels = prefix + list(zip(snap["labelnames"], labelvalues))
        lines.append(
            f"{name}{_render_pairs(labels)} {_format_value(value)}"
        )
    if not samples and not snap["labelnames"]:
        lines.append(f"{name}{_render_pairs(prefix)} 0")
    return lines


def _render_pairs(pairs: List[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    rendered = ", ".join(
        f'{label}="{_escape_label(str(value))}"' for label, value in pairs
    )
    return "{" + rendered + "}"


def render_fleet(snapshots: Dict[str, Dict[str, Dict[str, object]]]) -> str:
    """Aggregate per-process registry snapshots into one exposition.

    *snapshots* maps a worker label (``"router"``, ``"0"``, ``"1"``,
    ...) to that process's :meth:`MetricsRegistry.snapshot`. Every
    series is re-emitted with a ``worker`` label, and a synthetic
    ``worker="fleet"`` series carries the totals — counters and gauges
    sum sample-wise, histograms merge bucket-wise — so one scrape
    shows both the per-worker breakdown and the fleet aggregate under
    the metric's single HELP/TYPE header (what keeps the exposition
    format valid across N processes).
    """
    names = sorted({n for snap in snapshots.values() for n in snap})
    lines: List[str] = []
    for name in names:
        merged: Optional[Dict[str, object]] = None
        first = True
        for worker in sorted(snapshots):
            snap = snapshots[worker].get(name)
            if snap is None:
                continue
            lines.extend(
                _render_snapshot_metric(name, snap, worker, first)
            )
            first = False
            if merged is None:
                merged = {
                    key: (list(value) if isinstance(value, list) else value)
                    for key, value in snap.items()
                }
                if "samples" in snap:
                    merged["samples"] = [
                        [list(labels), value]
                        for labels, value in snap["samples"]
                    ]
            elif snap["kind"] == "histogram":
                _merge_histogram(merged, snap)
            else:
                totals = {
                    tuple(labels): value
                    for labels, value in merged["samples"]
                }
                for labels, value in snap["samples"]:
                    key = tuple(labels)
                    totals[key] = totals.get(key, 0.0) + value
                merged["samples"] = [
                    [list(labels), value]
                    for labels, value in sorted(totals.items())
                ]
        if merged is not None:
            lines.extend(
                _render_snapshot_metric(name, merged, "fleet", False)
            )
    return "\n".join(lines) + "\n"


class ServiceMetrics:
    """The query service's instrument panel.

    One instance per :class:`~repro.service.server.GpuScaleService`.
    All recording methods are thread-safe: the asyncio loop and the
    engine executor thread both report here.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = registry or MetricsRegistry()
        r = self.registry
        self.requests = r.counter(
            "gpuscale_requests_total",
            "HTTP requests served, by endpoint and status code.",
            ("endpoint", "status"),
        )
        self.request_latency = r.histogram(
            "gpuscale_request_latency_seconds",
            "End-to-end request latency (parse to response write).",
            LATENCY_BUCKETS,
        )
        self.batches = r.counter(
            "gpuscale_batches_total",
            "Micro-batches dispatched to the engine executor.",
        )
        self.batch_size = r.histogram(
            "gpuscale_batch_size",
            "Requests coalesced per micro-batch.",
            BATCH_SIZE_BUCKETS,
        )
        self.engine_calls = r.counter(
            "gpuscale_engine_calls_total",
            "Engine evaluations issued, by call shape.",
            ("shape",),
        )
        self.cache_events = r.counter(
            "gpuscale_cache_events_total",
            "Sweep-cache outcomes for grid queries.",
            ("outcome",),
        )
        self.rejected = r.counter(
            "gpuscale_rejected_total",
            "Requests rejected before evaluation, by reason.",
            ("reason",),
        )
        self.queue_depth = r.gauge(
            "gpuscale_queue_depth",
            "Queries waiting in the admission queue.",
        )
        self.inflight = r.gauge(
            "gpuscale_inflight_requests",
            "HTTP requests currently being handled.",
        )
        # Resilience instrumentation. The per-worker shard breakdown
        # uses a 'shard' label (not 'worker') so fleet aggregation —
        # which stamps every series with the emitting process's
        # worker label — never produces duplicate label names.
        self.deadline_exceeded = r.counter(
            "gpuscale_deadline_exceeded_total",
            "Queries cancelled because their deadline passed.",
        )
        self.hedges = r.counter(
            "gpuscale_hedges_total",
            "Hedged grid dispatches, by shard and outcome "
            "(issued / won).",
            ("shard", "outcome"),
        )
        self.breaker_transitions = r.counter(
            "gpuscale_breaker_transitions_total",
            "Circuit-breaker state transitions, by shard.",
            ("shard", "transition"),
        )
        self.breaker_open = r.gauge(
            "gpuscale_breaker_open",
            "1 while a shard's circuit breaker is open.",
            ("shard",),
        )
        self.worker_restarts = r.counter(
            "gpuscale_worker_restarts_total",
            "Worker processes respawned by the router, by shard.",
            ("shard",),
        )
        self.family_queries = r.counter(
            "gpuscale_family_queries_total",
            "Grid queries served, by microarchitecture family "
            "('custom' for unregistered physics).",
            ("family",),
        )
        self.transfer_requests = r.counter(
            "gpuscale_transfer_requests_total",
            "Cross-architecture transfer predictions served, by "
            "family pair.",
            ("source_family", "target_family"),
        )
        self.optimize_requests = r.counter(
            "gpuscale_optimize_requests_total",
            "Energy-optimisation requests served, by objective.",
            ("objective",),
        )
        self.coschedule_pairs = r.counter(
            "gpuscale_coschedule_pairs_total",
            "Co-scheduled kernel pairs evaluated for responses.",
        )

    # -- recording helpers (each takes the registry lock once) ---------

    def record_request(
        self, endpoint: str, status: int, latency_s: float
    ) -> None:
        """Count one finished HTTP request and its latency."""
        with self.registry.lock:
            self.requests.inc(1.0, endpoint, str(status))
            self.request_latency.observe(latency_s)

    def record_batch(self, size: int, engine_shapes: Iterable[str]) -> None:
        """Count one dispatched micro-batch of *size* requests."""
        with self.registry.lock:
            self.batches.inc()
            self.batch_size.observe(size)
            for shape in engine_shapes:
                self.engine_calls.inc(1.0, shape)

    def record_cache(self, outcome: str, count: int = 1) -> None:
        """Count sweep-cache outcomes (``hit`` / ``miss`` / ``store``)."""
        if count <= 0:
            return
        with self.registry.lock:
            self.cache_events.inc(count, outcome)

    def record_rejection(self, reason: str) -> None:
        """Count one pre-evaluation rejection (overload, timeout, ...)."""
        with self.registry.lock:
            self.rejected.inc(1.0, reason)

    def record_deadline_exceeded(self, count: int = 1) -> None:
        """Count queries cancelled because their deadline passed."""
        if count <= 0:
            return
        with self.registry.lock:
            self.deadline_exceeded.inc(count)

    def record_hedge(self, shard: int, outcome: str) -> None:
        """Count one hedge event (``issued`` / ``won``) for *shard*."""
        with self.registry.lock:
            self.hedges.inc(1.0, str(shard), outcome)

    def record_breaker_transition(
        self, shard: int, old_state: str, new_state: str
    ) -> None:
        """Count one breaker edge and publish the open/closed level."""
        with self.registry.lock:
            self.breaker_transitions.inc(
                1.0, str(shard), f"{old_state}->{new_state}"
            )
            self.breaker_open.set(
                1.0 if new_state == "open" else 0.0, str(shard)
            )

    def record_worker_restart(self, shard: int) -> None:
        """Count one worker respawn for *shard*."""
        with self.registry.lock:
            self.worker_restarts.inc(1.0, str(shard))

    def record_family(self, family: str) -> None:
        """Count one grid query against a microarchitecture family."""
        with self.registry.lock:
            self.family_queries.inc(1.0, family)

    def record_transfer(self, source: str, target: str) -> None:
        """Count one cross-architecture transfer prediction."""
        with self.registry.lock:
            self.transfer_requests.inc(1.0, source, target)

    def record_optimize(self, objective: str) -> None:
        """Count one energy-optimisation request for *objective*."""
        with self.registry.lock:
            self.optimize_requests.inc(1.0, objective)

    def record_coschedule(self) -> None:
        """Count one co-scheduled pair evaluation."""
        with self.registry.lock:
            self.coschedule_pairs.inc()

    def set_queue_depth(self, depth: int) -> None:
        """Publish the admission queue's current depth."""
        with self.registry.lock:
            self.queue_depth.set(depth)

    def adjust_inflight(self, delta: int) -> None:
        """Track HTTP requests entering (+1) and leaving (-1) handling."""
        with self.registry.lock:
            self.inflight.inc(delta)

    def render(self) -> str:
        """The ``/metrics`` payload."""
        return self.registry.render()
