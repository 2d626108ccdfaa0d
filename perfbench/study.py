"""The ``study`` workload: the paper's full sweep plus taxonomy, in-process.

One caller runs ``SweepRunner(grid_mode="study").run(all_kernels(),
PAPER_SPACE)`` followed by ``classify(dataset)`` back to back, with a
reference probe between operations. Set-up is timed in fresh
interpreters (imports, catalog, one cold study plus classify).
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from perfbench import common, layers, tracing
from perfbench.study_setup import study_digest

SETUP_RUNS = 5
TRACED_SETUP_RUNS = 3
SAMPLE_ROWS = 8


def _setup_child(spans_out: Optional[str] = None) -> tuple:
    """One fresh-interpreter set-up; returns (seconds, digest)."""
    cmd = [sys.executable, str(common.BENCH / "study_setup.py")]
    if spans_out is not None:
        cmd += ["--spans-out", spans_out]
    started = time.perf_counter()
    out = subprocess.run(
        cmd, capture_output=True, text=True, env=common.child_env(),
        cwd=common.ROOT, timeout=120,
    )
    elapsed = time.perf_counter() - started
    if out.returncode != 0:
        raise common.BenchError(f"study set-up failed:\n{out.stderr}")
    return elapsed, json.loads(out.stdout.splitlines()[-1])


def sample_rows(seed: int, n_kernels: int) -> List[int]:
    """The study's seeded input: which rows are re-derived per kernel."""
    return random.Random(seed).sample(range(n_kernels), SAMPLE_ROWS)


@dataclass
class Phase:
    """Operations timed back to back, a probe on either side of each."""

    latencies: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)
    engine_calls: List[int] = field(default_factory=list)

    def figures(self) -> Dict[str, float]:
        adjusted = [
            x * 1000.0 for x in common.bracketed(self.latencies, self.probes)
        ]
        raw_ms = [x * 1000.0 for x in self.latencies]
        return {
            "latency_ms_p50": common.median(adjusted),
            "latency_ms_p90": common.percentile(adjusted, 90),
            "rps": 1000.0 * len(adjusted) / sum(adjusted),
            "raw_p50": common.median(raw_ms),
            "raw_rps": len(raw_ms) / sum(self.latencies),
            "probe_ms": common.median(self.probes),
            "samples": len(adjusted),
        }


class StudyRun:
    def __init__(self, seed: int, tamper: Optional[Callable] = None):
        from repro.suites import registry
        from repro.sweep import PAPER_SPACE

        self.seed = seed
        self.tamper = tamper
        self.space = PAPER_SPACE
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._registry = registry
        self.kernels = registry.all_kernels()
        dataset, taxonomy = self.op()
        self.reference = study_digest(dataset, taxonomy)
        self.reference_perf = np.array(dataset.perf)

    def op(self):
        from repro.sweep import SweepRunner
        from repro.taxonomy import classifier

        dataset = SweepRunner(grid_mode="study").run(
            self._registry.all_kernels(), self.space
        )
        return dataset, classifier.classify(dataset)

    def _fail(self, reason: str) -> None:
        self.failed += 1
        self.failures.append(reason)

    def check_setups(self, digests: List[dict]) -> None:
        for digest in digests:
            self.attempted += 1
            if digest != self.reference:
                self._fail("set-up study differs from the in-process one")

    def check_sample_rows(self) -> None:
        """A seeded sample of rows, bit-exact against per-kernel grids."""
        from repro.gpu.simulator import GpuSimulator

        simulator = GpuSimulator()
        for row in sample_rows(self.seed, len(self.kernels)):
            self.attempted += 1
            grid = simulator.simulate_grid(self.kernels[row], self.space)
            if not common.bit_equal(
                grid.items_per_second, self.reference_perf[row]
            ):
                self._fail(f"row {row} differs from simulate_grid")

    def measure(self, seconds: float) -> Phase:
        from repro.gpu.engine import engine_calls

        phase = Phase()
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            phase.probes.append(common.probe_once())
            before = engine_calls()
            started = time.perf_counter()
            dataset, taxonomy = self.op()
            phase.latencies.append(time.perf_counter() - started)
            phase.engine_calls.append(engine_calls() - before)
            self.attempted += 1
            perf = np.array(dataset.perf)
            if self.tamper is not None:
                perf = self.tamper(perf)
            if not common.bit_equal(perf, self.reference_perf):
                self._fail("study perf differs from the set-up study")
            elif (study_digest(dataset, taxonomy)["categories"]
                  != self.reference["categories"]):
                self._fail("taxonomy category counts changed")
        phase.probes.append(common.probe_once())
        return phase


def _setups() -> tuple:
    """Timed fresh-interpreter set-ups: (adjusted seconds, raw, digests)."""
    _setup_child()  # untimed: same file-cache state for every timed one
    probes = [common.probe_once()]
    raw, digests = [], []
    for _ in range(SETUP_RUNS):
        elapsed, digest = _setup_child()
        probes.append(common.probe_once())
        raw.append(elapsed)
        digests.append(digest)
    return common.bracketed(raw, probes), raw, digests


def run(seed: int, seconds: float, trace: bool,
        tamper: Optional[Callable] = None) -> tuple:
    setup_s, raw_setup, digests = ([], [], []) if trace else _setups()
    bench = StudyRun(seed, tamper)
    bench.check_setups(digests)
    phase = bench.measure(seconds / 2 if trace else seconds)
    figures = phase.figures()
    record = common.run_record(
        workload="study", seed=seed, trace=trace,
        samples=figures["samples"], probe_median_ms=figures["probe_ms"],
        serve_flags=None, fleet_workers=None,
        study_mt_pool=_study_mt_state(),
        raw={"latency_ms_p50": figures["raw_p50"],
             "rps": figures["raw_rps"], "setup_s": common.median(raw_setup)},
    )
    if trace:
        metrics = _traced(bench, seconds / 2, figures)
    else:
        points = bench.reference_perf.size
        metrics = {
            "setup_s": common.metric(common.median(setup_s), "s"),
            "rps": common.metric(figures["rps"], "1/s"),
            "latency_ms_p50": common.metric(figures["latency_ms_p50"], "ms"),
            "latency_ms_p90": common.metric(figures["latency_ms_p90"], "ms"),
            "peak_rss_mb": common.metric(common.self_peak_rss_mb(), "MiB"),
            "points_per_s": common.metric(figures["rps"] * points, "1/s"),
        }
    bench.check_sample_rows()
    record["failures"] = bench.failures[:10]
    return record, {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def _traced(bench: StudyRun, seconds: float, untraced: dict) -> dict:
    """Second half of a traced run: same operations, spans recorded."""
    work = common.WORK / "study-spans"
    work.mkdir(parents=True, exist_ok=True)
    cold_catalog = []
    for i in range(TRACED_SETUP_RUNS):
        path = work / f"setup{i}.json"
        _setup_child(str(path))
        cold_catalog += tracing.Spans.load(str(path)).durations_of(
            "suites.all_kernels")
    recorder = tracing.Recorder()
    tracing.install_study(recorder)
    phase = bench.measure(seconds)
    traced = phase.figures()
    spans = tracing.Spans(recorder.to_dict())
    ops = len(phase.latencies)
    probe_ms = traced["probe_ms"]

    def ms(values):
        return common.adjust_time(common.median(values) * 1000.0, probe_ms)

    def per_op_ms(name):
        return common.adjust_time(spans.total(name) / ops * 1000.0, probe_ms)

    return layers.per_layer_metrics({
        "suites.all_kernels_ms": ms(cold_catalog),
        "kernels.memoized_pack_ms": ms(
            spans.durations_of("kernels.memoized_pack")),
        "gpu.simulate_study_ms": ms(spans.durations_of("gpu.simulate_study")),
        "gpu.engine_calls_per_op": sum(phase.engine_calls) / ops,
        "sweep.runner_self_ms": ms(
            [spans.self_times[i] for i in spans.indices("sweep.runner")]),
        "taxonomy.extract_features_ms": per_op_ms(
            "taxonomy.extract_features"),
        "taxonomy.classify_self_ms": ms(
            [spans.self_times[i] for i in spans.indices("taxonomy.classify")]),
        "host.ref_probe_ms": untraced["probe_ms"],
        "host.raw_latency_ms_p50": untraced["raw_p50"],
        "host.raw_rps": untraced["raw_rps"],
        "host.latency_samples": untraced["samples"],
        "trace.overhead_pct": (
            traced["latency_ms_p50"] / untraced["latency_ms_p50"] - 1.0
        ) * 100.0,
    })


def _study_mt_state() -> str:
    """Whether the multi-core study pool ran during this process."""
    from repro.gpu.engine import engine_calls

    return "engaged" if engine_calls("study-mt") else "idle (not used)"
