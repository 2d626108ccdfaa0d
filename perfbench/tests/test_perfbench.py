"""Fast checks of the benchmark itself (not of the program).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Each workload runs at minimal length, so the timings here mean nothing;
what is checked is the shape of the output and the failure accounting.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import common, layers, served, study
from perfbench.run import WORKLOADS, run_workload

ROOT = Path(__file__).resolve().parents[2]
SECONDS = 1.0


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, seed, trace):
        key = (workload, seed, trace)
        if key not in cache:
            cache[key] = run_workload(workload, seed, SECONDS, trace)
        return cache[key]

    return get


def _names_and_units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(runs, workload):
    record, result = runs(workload, 1, False)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    assert _names_and_units(result) == layers.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for key in ("git_sha", "nproc", "python", "numpy", "serve_flags",
                "fleet_workers", "study_mt_pool", "seed", "probe_ref_ms"):
        assert key in record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(runs, workload):
    record, result = runs(workload, 1, True)
    assert result["correct"] and result["failed"] == 0, record["failures"]
    expected = {n: e["unit"] for n, e in layers.PER_LAYER.items()}
    assert _names_and_units(result) == expected
    for name, entry in layers.PER_LAYER.items():
        if workload in entry["on"] and not name.startswith(
            ("service.rejected", "service.deadline", "service.worker",
             "service.hedges", "trace.")
        ):
            assert result["metrics"][name]["value"] > 0, name


def test_corrupted_study_output_is_a_failed_operation():
    def corrupt(perf):
        perf.flat[0] = perf.flat[0] * (1 + 1e-15) + 1e-300
        return perf

    _, result = run_workload("study", 1, SECONDS, False, tamper=corrupt)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_corrupted_response_is_a_failed_operation():
    def corrupt(body):
        response = json.loads(body)
        response["items_per_second"] *= 1.0000001
        return json.dumps(response).encode()

    _, result = run_workload("serve-points", 1, SECONDS, False, tamper=corrupt)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_seed_changes_inputs_not_metric_names(runs):
    for workload in ("serve-points", "serve-fleet"):
        first, second = served.Traffic(workload, 1), served.Traffic(workload, 2)
        bodies_1 = [first.next().body for _ in range(50)]
        bodies_2 = [second.next().body for _ in range(50)]
        assert bodies_1 != bodies_2
        again = served.Traffic(workload, 1)
        assert [again.next().body for _ in range(50)] == bodies_1
    assert study.sample_rows(1, 267) != study.sample_rows(2, 267)
    _, one = runs("serve-points", 1, False)
    _, two = runs("serve-points", 2, False)
    assert _names_and_units(one) == _names_and_units(two)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert not (tmp_path / common.WORK.name).exists()
