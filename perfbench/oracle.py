"""Expected answers, computed by calling the program's library directly.

Each checker takes one prepared request and the decoded response and
returns ``None`` when the response is bit-exact against the direct
call, or a one-line reason when it is not. Checkers also feed the
offline per-layer timings (engine, taxonomy, power) of the served
workloads, which worker processes cannot report from inside.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

import numpy as np

from perfbench import common


class Oracle:
    def __init__(self) -> None:
        from repro.gpu.simulator import GpuSimulator
        from repro.power.energy import EnergyModel

        self._sim = GpuSimulator()
        self._energy = EnergyModel()
        #: Offline layer timings in seconds, by layer metric name.
        self.timings: Dict[str, List[float]] = {}

    def _time(self, name: str, fn, *args):
        started = time.perf_counter()
        result = fn(*args)
        self.timings.setdefault(name, []).append(
            time.perf_counter() - started
        )
        return result

    @staticmethod
    def _kernel(name: str):
        from repro.suites import kernel_by_name

        return kernel_by_name(name)

    @staticmethod
    def _space(spec):
        from repro.service.schema import parse_space

        return parse_space(spec)

    def check(self, kind: str, spec: dict, response: dict) -> Optional[str]:
        return getattr(self, f"_check_{kind}")(spec, response)

    def _check_point(self, spec: dict, response: dict) -> Optional[str]:
        from repro.gpu.config import HardwareConfig

        config = HardwareConfig(**spec["config"])
        expected = self._sim.simulate(self._kernel(spec["kernel"]), config)
        if (
            response.get("time_s") != float(expected.time_s)
            or response.get("items_per_second")
            != float(expected.items_per_second)
        ):
            return f"point {spec['kernel']} differs from GpuSimulator.simulate"
        return None

    def _grid(self, spec: dict):
        kernel = self._kernel(spec["kernel"])
        space = self._space(spec.get("space", "paper"))
        grid = self._sim.simulate_grid(kernel, space)
        return kernel, space, np.asarray(grid.items_per_second)

    def _check_grid(self, spec: dict, response: dict) -> Optional[str]:
        kernel, space, ips = self._grid(spec)
        if spec.get("space") != "paper":
            # The batcher's engine call for one grid; a one-row study.
            self._time(
                "gpu.simulate_study", self._sim.simulate_study,
                [kernel], space,
            )
        got = np.asarray(response.get("items_per_second"), dtype=np.float64)
        time_s = np.asarray(response.get("time_s"), dtype=np.float64)
        if not common.bit_equal(got, ips):
            return f"grid {spec['kernel']} differs from simulate_grid"
        if not common.bit_equal(time_s, kernel.geometry.global_size / ips):
            return f"grid {spec['kernel']} time_s inconsistent"
        return None

    def _check_classify(self, spec: dict, response: dict) -> Optional[str]:
        from repro.sweep.dataset import KernelRecord, ScalingDataset
        from repro.taxonomy.classifier import TaxonomyClassifier

        kernel, space, ips = self._grid(spec)
        dataset = ScalingDataset(
            space, [KernelRecord.from_full_name(kernel.full_name)],
            ips[np.newaxis, ...],
        )
        label = self._time(
            "taxonomy.classify_kernel",
            TaxonomyClassifier().classify_kernel, dataset, kernel.full_name,
        )
        expected = {
            "category": label.category.value,
            "behaviours": {
                "cu": label.cu_behaviour.value,
                "engine": label.engine_behaviour.value,
                "memory": label.memory_behaviour.value,
            },
        }
        got = {k: response.get(k) for k in expected}
        if got != expected:
            return f"classify {spec['kernel']}: {got} != {expected}"
        return None

    def _check_optimize(self, spec: dict, response: dict) -> Optional[str]:
        from repro.power.dvfs_opt import DvfsOptimizer, Objective

        kernel = self._kernel(spec["kernel"])
        space = self._space(spec["space"])
        optimizer = DvfsOptimizer(energy_model=self._energy, space=space)
        self._time("power.surfaces", self._energy.surfaces, kernel, space)
        best = optimizer.optimise(kernel, Objective(spec["objective"]))
        expected = {
            "config": {
                "cu_count": best.config.cu_count,
                "engine_mhz": best.config.engine_mhz,
                "memory_mhz": best.config.memory_mhz,
            },
            "time_s": best.time_s,
            "energy_j": best.energy_j,
            "power_w": best.power_w,
        }
        got = {k: response.get(k) for k in expected}
        if got != expected:
            return f"optimize {spec['kernel']}: {got} != {expected}"
        return None

