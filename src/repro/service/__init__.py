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

from importlib import import_module

#: Public name -> the submodule defining it. Names resolve on first
#: access, so importing one submodule (the CLI's argument parser reads
#: the batcher's defaults) does not load the server, router and fleet.
_EXPORTS = {
    "DrainRateEstimator": "batcher",
    "EnergyGridQuery": "batcher",
    "GridQuery": "batcher",
    "MicroBatcher": "batcher",
    "OverloadError": "batcher",
    "PairGridQuery": "batcher",
    "PointQuery": "batcher",
    "ServiceClosedError": "batcher",
    "ServiceTimeoutError": "batcher",
    "MetricsRegistry": "metrics",
    "ServiceMetrics": "metrics",
    "render_fleet": "metrics",
    "FleetExecutor": "router",
    "HashRing": "router",
    "WorkerUnavailableError": "router",
    "RequestError": "schema",
    "SCHEMA_VERSION": "schema",
    "GpuScaleService": "server",
    "ServiceConfig": "server",
    "WorkerConfig": "worker",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    return getattr(import_module(f"{__name__}.{module}"), name)
