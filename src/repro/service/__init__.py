"""The online query service: inference-style serving of the engines.

The study engine answers 237,897-point sweeps in ~30 ms, but until
this package every consumer had to fork a CLI run. :mod:`repro.service`
turns the engine registry into an always-on building block shaped like
an inference stack:

* :mod:`repro.service.batcher` — the query kinds and an asyncio
  micro-batcher that coalesces concurrent queries into the fewest
  engine calls, bit-exact versus direct per-request calls.
* :mod:`repro.service.server` — a stdlib-only asyncio HTTP server
  with one request pipeline for every endpoint in its table.
* :mod:`repro.service.schema` — versioned request validation;
  :mod:`repro.service.errors` — the one exception-to-status table.
* :mod:`repro.service.metrics` — counters and latency/batch-size
  histograms rendered in Prometheus text format.
* :mod:`repro.service.router` / :mod:`repro.service.worker` /
  :mod:`repro.service.transport` — the ``--workers N`` multi-process
  fleet: a consistent-hash router in the serving process, N spawned
  engine workers each running their own batcher, and the framed
  shared-memory IPC between them.
* :mod:`repro.service.loadgen` — the closed- and open-loop
  load-generator harness behind the service throughput and
  saturation benchmarks.

``gpuscale serve`` wires it all together.
"""

from repro.service.batcher import (
    DrainRateEstimator,
    EnergyGridQuery,
    GridQuery,
    MicroBatcher,
    OverloadError,
    PairGridQuery,
    PointQuery,
    ServiceClosedError,
    ServiceTimeoutError,
)
from repro.service.metrics import (
    MetricsRegistry,
    ServiceMetrics,
    render_fleet,
)
from repro.service.router import (
    FleetExecutor,
    HashRing,
    WorkerUnavailableError,
)
from repro.service.schema import RequestError, SCHEMA_VERSION
from repro.service.server import GpuScaleService, ServiceConfig
from repro.service.worker import WorkerConfig

__all__ = [
    "DrainRateEstimator",
    "EnergyGridQuery",
    "FleetExecutor",
    "GpuScaleService",
    "GridQuery",
    "HashRing",
    "MetricsRegistry",
    "MicroBatcher",
    "OverloadError",
    "PairGridQuery",
    "PointQuery",
    "RequestError",
    "SCHEMA_VERSION",
    "ServiceClosedError",
    "ServiceConfig",
    "ServiceMetrics",
    "ServiceTimeoutError",
    "WorkerConfig",
    "WorkerUnavailableError",
    "render_fleet",
]
