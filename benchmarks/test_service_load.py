"""Service throughput: the micro-batching query service under load.

Not a paper artifact — this guards the property that makes
``gpuscale serve`` useful as infrastructure: the micro-batcher must
amortise engine dispatch well enough that a single-worker service
sustains ≥1,000 requests/second end to end (socket, HTTP parse,
schema validation, batcher, engine, JSON response) on a shared CI
machine. The floor is ~2x below what commodity hardware measures, so
it catches a batching regression (per-request engine dispatch, lost
dedup) without flaking on slow runners.

Each run records sustained throughput, p50/p99 latency, and the
batch-size distribution scraped from ``/metrics`` into
``BENCH_service.json`` — CI uploads it, so the service-throughput
trajectory accumulates across commits alongside the sweep numbers.
"""

import asyncio
import json
import os
import re
import time

from repro.gpu import GpuSimulator
from repro.service.loadgen import (
    encode_request,
    fetch,
    run_load,
    run_saturation,
    standard_point_payloads,
)
from repro.service.server import GpuScaleService, ServiceConfig

#: Measurements gathered here, emitted as one JSON artifact by the
#: final test (file order places it last).
_MEASUREMENTS = {}

#: Where the trajectory artifact lands (override with
#: ``$BENCH_SERVICE_OUT``).
_ARTIFACT_PATH = os.environ.get("BENCH_SERVICE_OUT", "BENCH_service.json")

#: The acceptance floor: sustained point-query throughput.
THROUGHPUT_FLOOR_RPS = 1_000

#: Fleet mode: ``--workers 4`` must clear 5,000 req/s on CI-class
#: hardware (4 vCPUs). On smaller boxes four processes time-share the
#: cores and the router's IPC costs what the parallelism can't repay,
#: so the floor falls back to a sanity bound instead of flaking.
FLEET_WORKERS = 4
FLEET_FLOOR_RPS = 5_000 if (os.cpu_count() or 1) >= 4 else 800

KERNELS = [
    "rodinia/bfs.kernel1",
    "shoc/triad.triad",
    "rodinia/nw.needle_1",
]
CONFIGS = [(44, 1000.0, 1250.0), (8, 600.0, 475.0)]


async def _serve_and_load(payload_pool, *, total, concurrency):
    """Boot an in-process service, run the load, scrape /metrics."""
    service = GpuScaleService(ServiceConfig(port=0, use_cache=False))
    await service.start()
    try:
        report = await run_load(
            service.config.host,
            service.port,
            payload_pool,
            total=total,
            concurrency=concurrency,
        )
        _status, metrics_body = await fetch(
            service.config.host, service.port, "GET", "/metrics"
        )
        return report, metrics_body.decode()
    finally:
        await service.shutdown(drain=True)


def _batch_size_distribution(metrics_text):
    """The ``gpuscale_batch_size`` histogram as {le: cumulative}."""
    distribution = {}
    for match in re.finditer(
        r'gpuscale_batch_size_bucket\{le="([^"]+)"\} (\d+)',
        metrics_text,
    ):
        distribution[match.group(1)] = int(match.group(2))
    sums = re.search(r"gpuscale_batch_size_sum (\S+)", metrics_text)
    count = re.search(r"gpuscale_batch_size_count (\d+)", metrics_text)
    return (
        distribution,
        float(sums.group(1)) if sums else 0.0,
        int(count.group(1)) if count else 0,
    )


def _record(line, report, metrics_text):
    distribution, size_sum, batches = _batch_size_distribution(
        metrics_text
    )
    _MEASUREMENTS[line] = {
        **report.as_dict(),
        "batches": batches,
        "mean_batch_size": size_sum / batches if batches else 0.0,
        "batch_size_distribution": distribution,
    }


def test_point_load_sustains_floor():
    """3,000 point queries over 16 keep-alive connections."""
    pool = standard_point_payloads(KERNELS, CONFIGS)

    report, metrics_text = asyncio.run(
        _serve_and_load(pool, total=3000, concurrency=16)
    )
    _record("points", report, metrics_text)

    print(
        f"\nservice point-load: {report.throughput_rps:,.0f} req/s, "
        f"p50 {report.p50_ms:.2f} ms, p99 {report.p99_ms:.2f} ms, "
        f"mean batch {_MEASUREMENTS['points']['mean_batch_size']:.1f}"
    )
    assert report.errors == 0
    assert report.requests == 3000
    assert report.throughput_rps > THROUGHPUT_FLOOR_RPS
    # The batcher must actually be coalescing: with 16 concurrent
    # clients, far fewer engine batches than requests.
    assert _MEASUREMENTS["points"]["mean_batch_size"] > 2.0
    # p99 stays within an interactive budget even on shared runners.
    assert report.p99_ms < 250.0


def test_mixed_load_with_grid_queries():
    """Points and full-surface grid queries interleaved."""
    space = {
        "cu_counts": [4, 16, 44],
        "engine_mhz": [300.0, 1000.0],
        "memory_mhz": [475.0, 1250.0],
    }
    pool = standard_point_payloads(KERNELS, CONFIGS) + [
        encode_request(
            "/v1/simulate", {"kernel": name, "space": space}
        )
        for name in KERNELS
    ]

    report, metrics_text = asyncio.run(
        _serve_and_load(pool, total=900, concurrency=8)
    )
    _record("mixed", report, metrics_text)

    print(
        f"\nservice mixed-load: {report.throughput_rps:,.0f} req/s, "
        f"p99 {report.p99_ms:.2f} ms"
    )
    assert report.errors == 0
    assert report.requests == 900
    # Grid surfaces are ~12 points each and ride the same batches;
    # a loose floor still catches per-request dispatch regressions.
    assert report.throughput_rps > THROUGHPUT_FLOOR_RPS / 2


def _fleet_batch_stats(metrics_text):
    """Batch-size stats from the ``worker="fleet"`` merged series."""
    distribution = {}
    for match in re.finditer(
        r'gpuscale_batch_size_bucket\{worker="fleet", '
        r'le="([^"]+)"\} (\d+)',
        metrics_text,
    ):
        distribution[match.group(1)] = int(match.group(2))
    sums = re.search(
        r'gpuscale_batch_size_sum\{worker="fleet"\} (\S+)', metrics_text
    )
    count = re.search(
        r'gpuscale_batch_size_count\{worker="fleet"\} (\d+)',
        metrics_text,
    )
    return (
        distribution,
        float(sums.group(1)) if sums else 0.0,
        int(count.group(1)) if count else 0,
    )


def test_fleet_load_sustains_floor():
    """3,000 point queries against a ``--workers 4`` fleet.

    The floor is hardware-gated: ≥5,000 req/s where four real cores
    exist (CI), a sanity bound where they don't. Worker count and the
    host's core count land in the artifact either way, so a trajectory
    point is never read against the wrong floor.
    """
    pool = standard_point_payloads(KERNELS, CONFIGS)

    async def scenario():
        service = GpuScaleService(
            ServiceConfig(
                port=0, use_cache=False, workers=FLEET_WORKERS
            )
        )
        await service.start()
        try:
            report = await run_load(
                service.config.host,
                service.port,
                pool,
                total=3000,
                concurrency=32,
            )
            _status, metrics_body = await fetch(
                service.config.host, service.port, "GET", "/metrics"
            )
            return report, metrics_body.decode()
        finally:
            await service.shutdown(drain=True)

    report, metrics_text = asyncio.run(scenario())
    distribution, size_sum, batches = _fleet_batch_stats(metrics_text)
    _MEASUREMENTS["fleet"] = {
        **report.as_dict(),
        "workers": FLEET_WORKERS,
        "cpu_count": os.cpu_count(),
        "floor_rps": FLEET_FLOOR_RPS,
        "batches": batches,
        "mean_batch_size": size_sum / batches if batches else 0.0,
        "batch_size_distribution": distribution,
    }

    print(
        f"\nservice fleet-load ({FLEET_WORKERS} workers, "
        f"{os.cpu_count()} cpus): {report.throughput_rps:,.0f} req/s, "
        f"p50 {report.p50_ms:.2f} ms, p99 {report.p99_ms:.2f} ms"
    )
    assert report.errors == 0
    assert report.requests == 3000
    assert report.throughput_rps > FLEET_FLOOR_RPS
    # The scrape really aggregated across processes.
    assert 'worker="fleet"' in metrics_text
    assert batches > 0


class _SlowPointSimulator:
    """Point engine with a fixed per-call cost, to set a known knee."""

    supports_point = True
    supports_grid = False
    supports_study = False
    engine_name = "interval"

    def __init__(self, delay_s: float):
        self._inner = GpuSimulator("interval")
        self._delay_s = delay_s

    def simulate(self, kernel, config):
        time.sleep(self._delay_s)
        return self._inner.simulate(kernel, config)


def test_open_loop_saturation_past_the_knee():
    """Fixed-rate arrivals through and past the service's knee.

    Below the knee the open-loop report shows (almost) pure 200s; at
    2.5x measured capacity the service must shed with 429s — never
    socket errors or silent drops — and arrival-to-completion latency
    must visibly grow. Both rungs land in the artifact.

    The service answers with a ~2 ms-per-point engine and one query
    per batch, so its capacity (~500 req/s) sits well below what the
    in-process open-loop client can offer: the past-knee rung really
    is past the service's knee, not the client's.
    """
    pool = standard_point_payloads(KERNELS, CONFIGS)

    async def scenario():
        service = GpuScaleService(
            ServiceConfig(
                port=0, use_cache=False, queue_limit=16, max_batch=1
            ),
            simulator=_SlowPointSimulator(0.002),
        )
        await service.start()
        host, port = service.config.host, service.port
        try:
            capacity = await run_load(
                host, port, pool, total=600, concurrency=16
            )
            below, past = await run_saturation(
                host, port, pool,
                rates_rps=[
                    capacity.throughput_rps * 0.4,
                    capacity.throughput_rps * 2.5,
                ],
                step_duration_s=1.5,
                connections=64,
            )
            return capacity, below, past
        finally:
            await service.shutdown(drain=True)

    capacity, below, past = asyncio.run(scenario())
    _MEASUREMENTS["saturation"] = {
        "capacity_rps": capacity.throughput_rps,
        "below_knee": below.as_dict(),
        "past_knee": past.as_dict(),
    }

    print(
        f"\nservice saturation: capacity "
        f"{capacity.throughput_rps:,.0f} rps; below knee "
        f"shed {below.shed_rate:.1%} p99 {below.p99_ms:.1f} ms; "
        f"past knee shed {past.shed_rate:.1%} "
        f"p99 {past.p99_ms:.1f} ms"
    )
    assert below.errors == 0 and past.errors == 0
    assert set(below.statuses) | set(past.statuses) <= {200, 429, 503}
    # Below the knee: essentially everything is answered.
    assert below.shed_rate < 0.1
    assert below.statuses.get(200, 0) > 0
    # Past the knee: the service sheds with 429s, and the open-loop
    # latency (arrival to completion) reflects the backlog.
    assert past.statuses.get(429, 0) > 0
    assert past.shed_rate > below.shed_rate
    assert past.p99_ms > below.p50_ms


def test_emit_trajectory_artifact():
    """Write this run's service measurements to ``BENCH_service.json``.

    File order runs this after the load tests, so the artifact
    carries whatever lines completed; CI uploads it, accumulating a
    per-commit service-throughput trajectory.
    """
    assert _MEASUREMENTS, "no service benchmarks ran before the emitter"
    with open(_ARTIFACT_PATH, "w") as handle:
        json.dump({"service": _MEASUREMENTS}, handle, indent=1)
        handle.write("\n")
    print(f"\nservice trajectory written to {_ARTIFACT_PATH}")
