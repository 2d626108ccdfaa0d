"""Harness throughput: the data-collection sweep itself.

Not a paper artifact — these benchmarks guard the property that makes
the reproduction practical: the analytical engine must sweep hundreds
of configurations per kernel in milliseconds, so the full 237,897-point
study stays interactive and what-if campaigns (ablations, noise
studies, sampling estimators) can re-run it thousands of times.

Three paths are timed: the whole-study engine (one broadcast over the
entire kernel x configuration lattice), the vectorized per-kernel batch
grid engine, and the per-point scalar oracle both are validated
against. The assertion floors are loose enough for shared CI machines
but tight enough to catch a 5x regression on any path. Each run also
appends its measurements to ``BENCH_sweep.json`` (CI uploads it, so
the trajectory of sweep throughput accumulates across commits).
"""

import json
import os
import time

from repro.suites import all_kernels
from repro.sweep import PAPER_SPACE, SweepRunner, reduced_space

#: Measurements gathered by the benchmarks in this module, emitted as
#: one JSON artifact by the final test (file order places it last).
_MEASUREMENTS = {}

#: Where the trajectory artifact lands (override with $BENCH_SWEEP_OUT).
_ARTIFACT_PATH = os.environ.get("BENCH_SWEEP_OUT", "BENCH_sweep.json")


def _throughput(dataset, seconds):
    points = dataset.num_kernels * dataset.space.size
    return points / seconds, points


def _record(line, points, seconds):
    _MEASUREMENTS[line] = {
        "points": int(points),
        "seconds": float(seconds),
        "points_per_second": float(points / seconds),
    }


def test_full_study_throughput(benchmark):
    """Whole-study path: all 267 kernels x 891 configs, one broadcast.

    This is the tentpole number: the full 237,897-point study through
    grid mode ``"study"``. The floor is 10x the original batch-loop
    requirement (500k points/s vs the 50k the per-kernel loop was held
    to); the engine measures in the millions on commodity hardware.
    """
    kernels = all_kernels()

    dataset = benchmark(
        lambda: SweepRunner(grid_mode="study").run(
            kernels, PAPER_SPACE
        )
    )

    seconds = benchmark.stats.stats.mean
    points_per_second, points = _throughput(dataset, seconds)
    _record("study", points, seconds)
    print(f"\nfull-study throughput: {points_per_second:,.0f} points/s "
          f"({points} points in {seconds * 1e3:.1f} ms)")
    assert points_per_second > 500_000


def test_sweep_throughput(benchmark):
    """Batch grid path: one NumPy broadcast per kernel."""
    kernels = all_kernels("shoc")
    space = reduced_space(2, 2, 2)

    dataset = benchmark(lambda: SweepRunner().run(kernels, space))

    seconds = benchmark.stats.stats.mean
    points_per_second, points = _throughput(dataset, seconds)
    _record("batch", points, seconds)
    print(f"\nbatch sweep throughput: {points_per_second:,.0f} points/s "
          f"({points} points in {seconds * 1e3:.1f} ms)")
    # The full study must complete in well under a second even through
    # the per-kernel loop (the quarantine fallback path).
    assert points_per_second > 100_000


def test_sweep_throughput_scalar(benchmark):
    """Scalar oracle path: one simulate call per grid point."""
    kernels = all_kernels("shoc")
    space = reduced_space(2, 2, 2)

    dataset = benchmark(
        lambda: SweepRunner(grid_mode="scalar").run(kernels, space)
    )

    seconds = benchmark.stats.stats.mean
    points_per_second, points = _throughput(dataset, seconds)
    _record("scalar", points, seconds)
    print(f"\nscalar sweep throughput: {points_per_second:,.0f} points/s "
          f"({points} points in {seconds * 1e3:.1f} ms)")
    assert points_per_second > 5_000


def test_batch_speedup_over_scalar():
    """The batch engine must stay an order of magnitude ahead."""
    kernels = all_kernels("rodinia")
    space = reduced_space(2, 2, 2)

    start = time.perf_counter()
    scalar = SweepRunner(grid_mode="scalar").run(kernels, space)
    scalar_s = time.perf_counter() - start

    start = time.perf_counter()
    batch = SweepRunner().run(kernels, space)
    batch_s = time.perf_counter() - start

    assert scalar.perf.shape == batch.perf.shape
    speedup = scalar_s / batch_s
    points = batch.num_kernels * batch.space.size
    print(f"\nscalar-vs-batch speedup: {speedup:.1f}x "
          f"({points} points: scalar {scalar_s * 1e3:.1f} ms, "
          f"batch {batch_s * 1e3:.1f} ms)")
    # Expected ~50-100x; a drop below 5x means the broadcast path has
    # regressed to per-point work.
    assert speedup > 5.0


def test_study_speedup_over_batch_loop():
    """Kernel-axis batching must beat the 267-iteration Python loop."""
    kernels = all_kernels()
    space = reduced_space(2, 2, 2)

    start = time.perf_counter()
    batch = SweepRunner().run(kernels, space)
    batch_s = time.perf_counter() - start

    start = time.perf_counter()
    study = SweepRunner(grid_mode="study").run(kernels, space)
    study_s = time.perf_counter() - start

    assert study.perf.shape == batch.perf.shape
    speedup = batch_s / study_s
    print(f"\nbatch-loop-vs-study speedup: {speedup:.1f}x "
          f"(batch loop {batch_s * 1e3:.1f} ms, "
          f"study {study_s * 1e3:.1f} ms)")
    # Expected ~2-5x on the reduced grid (the loop overhead is a fixed
    # per-kernel cost); anything below 1x means the study path has
    # silently fallen back to the loop.
    assert speedup > 1.0


def test_emit_trajectory_artifact():
    """Write this run's sweep measurements to ``BENCH_sweep.json``.

    File order runs this after the timed benchmarks, so the artifact
    carries whatever lines completed; CI uploads it, accumulating a
    per-commit throughput trajectory.
    """
    assert _MEASUREMENTS, "no sweep benchmarks ran before the emitter"
    with open(_ARTIFACT_PATH, "w") as handle:
        json.dump({"sweep": _MEASUREMENTS}, handle, indent=1)
        handle.write("\n")
    print(f"\nsweep trajectory written to {_ARTIFACT_PATH}")
