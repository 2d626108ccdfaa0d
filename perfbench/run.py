"""Benchmark entry point.

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0

Workloads: ``study``, ``serve-points``, ``serve-fleet``. Prints a run
record (metadata) and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits non-zero, printing no result, when the program is missing or
set-up fails.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402
from perfbench.layers import WORKLOADS  # noqa: E402


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tamper=None) -> tuple:
    """One run; returns ``(record, result)``."""
    common.require_program()
    common.WORK.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "study":
            from perfbench import study

            return study.run(seed, seconds, trace, tamper)
        from perfbench import served

        return served.run(workload, seed, seconds, trace, tamper)
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record, result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    common.emit(record, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
