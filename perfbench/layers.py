"""The metric catalogue: workloads, metrics, what they move, and where.

Names, units and ``better`` come from ``BENCHMARK.json`` at the root
of the checkout. ``layers.json`` adds, per per-layer metric, how it is
measured, the end-to-end metrics it should move and the workloads it
is measured on. A traced run reports every per-layer metric; a layer
the workload never enters reads 0.
"""

from __future__ import annotations

import json
from typing import Dict

from perfbench import common

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
DETAILS = json.loads((common.BENCH / "layers.json").read_text())

WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {
    m["name"]: {**m, **DETAILS["per_layer"][m["name"]]}
    for m in SPEC["per_layer"]
}


def per_layer_metrics(values: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric with its unit; unmeasured ones read 0."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"not in BENCHMARK.json: {sorted(unknown)}")
    return {
        name: common.metric(values.get(name, 0.0), entry["unit"])
        for name, entry in PER_LAYER.items()
    }
