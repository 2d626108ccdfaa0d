"""The served workloads: ``serve-points`` and ``serve-fleet``.

Both drive a ``gpuscale serve`` subprocess from this one client
process over 2 keep-alive connections in a closed loop. Load runs in
short windows with reference probes between them, while the
connections are idle. Set-up (launch until ``/healthz`` answers 200,
plus writing the hot set for the fleet) is repeated per run on a
fresh cache directory and reported as its median.
"""

from __future__ import annotations

import asyncio
import collections
import json
import random
import shutil
import time
from typing import Callable, Dict, List, Optional

from perfbench import client, common, layers, tracing
from perfbench.server import Server

CONNECTIONS = 2
SETUP_LAUNCHES = 5

# No record of real traffic exists, so the fleet's request mix is a
# choice, not a measurement. Its constants and their reasons:
#
# - The four classes are drawn with equal shares, so no class carries
#   more of serve-fleet's rps and latency than another.
# - ``HOT_SET``: kernels whose paper grids set-up writes to the cache;
#   ``grid_hit`` and ``classify`` pick from them, so hits read 16 cache
#   files, not one. Writing 16 cold paper grids is about an eighth of
#   the fleet's set-up (0.13 of ~0.95 s on a 2-vCPU host): a slower
#   cache write shows in ``setup_s``, and the launch still dominates.
# - ``SUBSPACE_AXIS``: values drawn per axis of the paper grid for
#   ``grid_miss`` and ``optimize``. 3 to 6 values give 27 to 216 of the
#   891 configurations: a one-row study far below the full grid, so
#   misses never collide with the hot set.
FLEET_CLASSES = ("grid_hit", "grid_miss", "classify", "optimize")
HOT_SET = 16
SUBSPACE_AXIS = (3, 6)

#: Per workload: fleet workers, load window (s), share of responses
#: whose bodies are kept and checked bit-exact after the run, and
#: whether load figures are host-adjusted. ``serve-points`` latency is
#: mostly the batcher's fixed coalescing timer, which a slower host
#: does not stretch: adjusting it by the probe only adds the probe's
#: scatter, so its load figures are reported as measured.
SHAPES = {
    "serve-points": {"workers": 1, "window_s": 0.5, "sample": 4,
                     "host_adjusted": False},
    "serve-fleet": {"workers": 2, "window_s": 0.5, "sample": 8,
                    "host_adjusted": True},
}

_CHECK_KIND = {
    "point": "point", "grid_hit": "grid", "grid_miss": "grid",
    "classify": "classify", "optimize": "optimize",
}


class Traffic:
    """The seeded request stream of one workload."""

    def __init__(self, workload: str, seed: int):
        from repro.suites import registry
        from repro.sweep import PAPER_SPACE

        self.workload = workload
        self.space = PAPER_SPACE
        self.names = [k.full_name for k in registry.all_kernels()]
        self.rng = random.Random(seed)
        self.hot = self.rng.sample(self.names, HOT_SET)
        self._seen = set()

    def next(self) -> client.Request:
        if self.workload == "serve-points":
            return self._point()
        kind = self.rng.choice(FLEET_CLASSES)
        return getattr(self, f"_{kind}")()

    def _request(self, kind: str, path: str, spec: dict, points: int):
        spec = dict(spec, points=points)
        body = {k: v for k, v in spec.items() if k != "points"}
        return client.Request(kind, path, json.dumps(body).encode(), spec)

    def _point(self):
        space, rng = self.space, self.rng
        config = {
            "cu_count": rng.choice(space.cu_counts),
            "engine_mhz": rng.choice(space.engine_mhz),
            "memory_mhz": rng.choice(space.memory_mhz),
        }
        return self._request(
            "point", "/v1/simulate",
            {"kernel": rng.choice(self.names), "config": config}, 1,
        )

    def hot_grid(self, name: str):
        return self._request(
            "grid_hit", "/v1/simulate", {"kernel": name, "space": "paper"},
            self.space.size,
        )

    def _grid_hit(self):
        return self.hot_grid(self.rng.choice(self.hot))

    def _classify(self):
        return self._request(
            "classify", "/v1/classify",
            {"kernel": self.rng.choice(self.hot), "space": "paper"},
            self.space.size,
        )

    def _subspace(self) -> tuple:
        """A kernel and a random sub-grid of the paper grid, never repeated."""
        rng = self.rng
        while True:
            axes = tuple(
                tuple(sorted(rng.sample(list(axis), rng.randint(*SUBSPACE_AXIS))))
                for axis in (self.space.cu_counts, self.space.engine_mhz,
                             self.space.memory_mhz)
            )
            name = rng.choice(self.names)
            if (name, axes) not in self._seen:
                self._seen.add((name, axes))
                break
        space = dict(zip(("cu_counts", "engine_mhz", "memory_mhz"),
                         (list(a) for a in axes)))
        size = len(axes[0]) * len(axes[1]) * len(axes[2])
        return name, space, size

    def _grid_miss(self):
        name, space, size = self._subspace()
        return self._request(
            "grid_miss", "/v1/simulate", {"kernel": name, "space": space}, size,
        )

    def _optimize(self):
        name, space, size = self._subspace()
        return self._request(
            "optimize", "/v1/optimize",
            {"kernel": name, "space": space, "objective": "min_edp"}, size,
        )


class ServedRun:
    def __init__(self, workload: str, seed: int,
                 tamper: Optional[Callable[[bytes], bytes]] = None):
        self.workload = workload
        self.seed = seed
        self.shape = SHAPES[workload]
        self.traffic = Traffic(workload, seed)
        self.tamper = tamper
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def _fail(self, reason: str) -> None:
        self.failed += 1
        self.failures.append(reason)

    def launch(self, cache_name: str, spans_out=None) -> tuple:
        """Start a server on a fresh cache; returns (server, set-up s)."""
        server = Server(self.shape["workers"], common.WORK / cache_name,
                        spans_out)
        try:
            elapsed = server.start()
            if self.workload == "serve-fleet":
                started = time.perf_counter()
                for name in self.traffic.hot:
                    self.attempted += 1
                    status, _ = server.post(
                        "/v1/simulate", self.traffic.hot_grid(name).body)
                    if status != 200:
                        self._fail(f"hot-set write answered {status}")
                elapsed += time.perf_counter() - started
        except BaseException:
            server.stop()
            raise
        return server, elapsed

    def load(self, server: Server, seconds: float,
             probe: common.PairedProbe) -> client.LoadLog:
        log = client.LoadLog()
        stride = self.shape["sample"]
        offset = self.seed % stride
        asyncio.run(client.run_windows(
            "127.0.0.1", server.port, CONNECTIONS, self.traffic.next,
            lambda i: (i + offset) % stride == 0, seconds,
            self.shape["window_s"], probe, log,
        ))
        return log

    def check(self, log: client.LoadLog, oracle) -> None:
        """Every non-2xx fails; every kept body must be bit-exact."""
        for outcome in log.outcomes:
            self.attempted += 1
            if not 200 <= outcome.status < 300:
                self._fail(f"{outcome.request.kind} answered {outcome.status}")
                continue
            if outcome.body is None:
                continue
            body = outcome.body
            if self.tamper is not None:
                body = self.tamper(body)
            try:
                response = json.loads(body)
            except ValueError:
                self._fail(f"{outcome.request.kind}: response is not JSON")
                continue
            spec = {k: v for k, v in outcome.request.spec.items()
                    if k != "points"}
            reason = oracle.check(
                _CHECK_KIND[outcome.request.kind], spec, response)
            if reason is not None:
                self._fail(reason)


def _load_figures(log: client.LoadLog, host_adjusted: bool) -> Dict[str, float]:
    """Latency percentiles and rates, adjusted by the run's probe median
    when *host_adjusted*, else as measured.

    The probes between load windows are too few to adjust each window
    on its own (their scatter matches the latency's), so their median
    over the run is used.
    """
    probe_ms = common.median(log.probe_ms)
    # Adjusting by the reference probe time itself leaves values as measured.
    basis = probe_ms if host_adjusted else common.REF_PROBE_MS
    lat_ms = [o.latency_s * 1000.0 for o in log.outcomes]
    rates, points = [], []
    for outcomes, seconds in log.windows():
        rates.append(len(outcomes) / seconds)
        points.append(sum(o.request.spec["points"] for o in outcomes) / seconds)
    return {
        "latency_ms_p50": common.adjust_time(common.median(lat_ms), basis),
        "latency_ms_p90": common.adjust_time(
            common.percentile(lat_ms, 90), basis),
        "rps": common.adjust_rate(common.median(rates), basis),
        "points_per_s": common.adjust_rate(common.median(points), basis),
        "raw_p50": common.median(lat_ms),
        "raw_rps": len(lat_ms) / sum(log.window_s),
        "probe_ms": probe_ms,
        "samples": len(lat_ms),
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        tamper: Optional[Callable[[bytes], bytes]] = None) -> tuple:
    from perfbench.oracle import Oracle

    bench = ServedRun(workload, seed, tamper)
    oracle = Oracle()
    raw_setup: List[float] = []
    setup_probes = [common.probe_once()]
    launches = 1 if trace else SETUP_LAUNCHES
    for i in range(launches):
        server, elapsed = bench.launch(f"cache{i}")
        raw_setup.append(elapsed)
        setup_probes.append(common.probe_once())
        if i < launches - 1:
            server.stop()
    try:
        with common.PairedProbe() as probe:
            log = bench.load(server, seconds / 2 if trace else seconds, probe)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    figures = _load_figures(log, bench.shape["host_adjusted"])
    record = common.run_record(
        workload=workload, seed=seed, trace=trace,
        samples=figures["samples"], probe_median_ms=figures["probe_ms"],
        class_samples=dict(collections.Counter(
            o.request.kind for o in log.outcomes)),
        serve_flags=server.flags, fleet_workers=server.workers,
        host_adjusted_load=bench.shape["host_adjusted"],
        study_mt_pool="idle (not used by the service)",
        raw={"latency_ms_p50": figures["raw_p50"],
             "rps": figures["raw_rps"], "setup_s": common.median(raw_setup)},
    )
    # Checked first, so the oracle's offline layer timings include it.
    bench.check(log, oracle)
    if trace:
        metrics = _traced(bench, seconds / 2, log, figures, oracle)
    else:
        metrics = {
            "setup_s": common.metric(common.median(
                common.bracketed(raw_setup, setup_probes)), "s"),
            "peak_rss_mb": common.metric(peak_rss, "MiB"),
            **{name: common.metric(figures[name], layers.END_TO_END[name])
               for name in ("rps", "latency_ms_p50", "latency_ms_p90",
                            "points_per_s")},
        }
    record["failures"] = bench.failures[:10]
    return record, {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def _class_p50(log: client.LoadLog, kind: str) -> float:
    lat_ms = [o.latency_s * 1000.0 for o in log.outcomes
              if o.request.kind == kind]
    return common.adjust_time(
        common.median(lat_ms), common.median(log.probe_ms))


def _traced(bench: ServedRun, seconds: float, untraced: client.LoadLog,
            figures: Dict[str, float], oracle) -> dict:
    """Second half of a traced run: a server started through the
    benchmark's launcher, which records spans in the serving process."""
    spans_out = common.WORK / "serve-spans.json"
    server, _ = bench.launch("cache-traced", spans_out)
    # Spans of the set-up (the fleet's hot-set writes) are left out, so
    # per-request figures cover the load's requests only.
    load_start = time.perf_counter()
    try:
        with common.PairedProbe() as probe:
            log = bench.load(server, seconds, probe)
        scraped = server.metrics()
    finally:
        server.stop()
    bench.check(log, oracle)
    spans = tracing.Spans.load(str(spans_out), since=load_start)
    traced = _load_figures(log, bench.shape["host_adjusted"])
    probe_ms = traced["probe_ms"]

    def adj_ms(seconds_values, scale=1000.0):
        return common.adjust_time(
            common.median(seconds_values) * scale, probe_ms)

    submits = spans.durations_of("service.batcher.submit") + \
        spans.durations_of("service.router.submit")
    parses = spans.durations_of("service.schema.parse")
    requests = len(log.outcomes)
    client_mean = common.mean([o.latency_s for o in log.outcomes])
    server_self = client_mean - (sum(parses) + sum(submits)) / requests
    hits = scraped.get("gpuscale_cache_events_total{outcome=hit}", 0.0)
    misses = scraped.get("gpuscale_cache_events_total{outcome=miss}", 0.0)
    v1 = sum(v for k, v in scraped.items()
             if k.startswith("gpuscale_requests_total{endpoint=/v1/"))
    batches = scraped.get("gpuscale_batch_size_count", 0.0)
    values = {
        "service.schema.parse_us": adj_ms(parses, 1e6),
        "service.batcher.submit_ms": adj_ms(
            spans.durations_of("service.batcher.submit")),
        "service.batcher.wait_ms": adj_ms(
            spans.linked_waits("service.batcher.submit")),
        "gpu.simulate_us": adj_ms(spans.durations_of("gpu.simulate"), 1e6),
        "service.server.self_ms": common.adjust_time(
            server_self * 1000.0, probe_ms),
        "service.batcher.batch_size_mean": (
            scraped.get("gpuscale_batch_size_sum", 0.0) / batches
            if batches else 0.0),
        "service.engine_calls_per_request": (
            scraped.get("gpuscale_engine_calls_total", 0.0) / v1 if v1 else 0.0),
        "service.router.submit_ms": adj_ms(
            spans.durations_of("service.router.submit")),
        "service.transport.encode_query_us": adj_ms(
            spans.durations_of("service.transport.encode_query"), 1e6),
        "service.transport.decode_result_us": adj_ms(
            spans.durations_of("service.transport.decode_result"), 1e6),
        "service.transport.frame_bytes_mean": common.mean(
            spans.counts.get("service.transport.frame_bytes", [])),
        "shm.result_bytes_mean": common.mean(
            spans.counts.get("shm.result_bytes", [])),
        "sweep.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "sweep.cache.lookups": hits + misses,
        "service.rejected_total": scraped.get("gpuscale_rejected_total", 0.0),
        "service.deadline_exceeded_total": scraped.get(
            "gpuscale_deadline_exceeded_total", 0.0),
        "service.worker_restarts_total": scraped.get(
            "gpuscale_worker_restarts_total", 0.0),
        "service.hedges_total": scraped.get("gpuscale_hedges_total", 0.0),
        "host.ref_probe_ms": figures["probe_ms"],
        "host.raw_latency_ms_p50": figures["raw_p50"],
        "host.raw_rps": figures["raw_rps"],
        "host.latency_samples": figures["samples"],
        "trace.overhead_pct": (
            traced["latency_ms_p50"] / figures["latency_ms_p50"] - 1.0) * 100.0,
    }
    if bench.workload == "serve-fleet":
        for kind in FLEET_CLASSES:
            values[f"endpoint.{kind}_ms_p50"] = _class_p50(untraced, kind)
        values.update(_cache_timings(server.cache_dir, probe_ms))
        for name, timings in oracle.timings.items():
            values[f"{name}_ms"] = adj_ms(timings)
    return layers.per_layer_metrics(values)


def _cache_timings(cache_dir, probe_ms: float, limit: int = 40) -> dict:
    """SweepCache.load and .store timed on the run's own entries."""
    from repro.sweep.cache import SweepCache

    source = SweepCache(cache_dir)
    target_dir = common.WORK / "cache-store-probe"
    shutil.rmtree(target_dir, ignore_errors=True)
    target = SweepCache(target_dir)
    loads, stores = [], []
    entries = [p for p in source.entries() if p.name.startswith("sweep_")]
    for path in entries[:limit]:
        fingerprint = path.stem[len("sweep_"):]
        started = time.perf_counter()
        dataset = source.load(fingerprint)
        loads.append(time.perf_counter() - started)
        if dataset is None:
            continue
        started = time.perf_counter()
        target.store(fingerprint, dataset)
        stores.append(time.perf_counter() - started)
    shutil.rmtree(target_dir, ignore_errors=True)
    return {
        "sweep.cache.load_ms": common.adjust_time(
            common.median(loads) * 1000.0, probe_ms),
        "sweep.cache.store_ms": common.adjust_time(
            common.median(stores) * 1000.0, probe_ms),
    }
