"""DRAM subsystem model: bandwidth efficiency and loaded latency.

Two properties of real GDDR5 systems drive the paper's "non-obvious"
scaling classes and are modelled explicitly:

* **Achieved bandwidth is pattern- and contention-dependent.** Peak
  bandwidth scales with the memory clock, but the fraction of peak a
  kernel achieves depends on coalescing and on how many CUs interleave
  independent streams at the controller (row-buffer locality loss).
  Kernels with high ``row_locality_sensitivity`` lose efficiency as CUs
  are added — the second inverse-CU mechanism after L2 thrash.

* **Latency has a clock-invariant component.** Total miss latency is
  L2 pipeline cycles (engine clock) + DRAM core cycles (memory clock)
  + a fixed controller/PHY time. Raising either clock cannot shrink the
  fixed part, so dependence-chain kernels plateau even as both knobs
  max out — exactly the plateau class the abstract describes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.config import HardwareConfig
from repro.units import ns_to_seconds

#: Exponent controlling how fast row-buffer locality degrades with the
#: number of interleaved CU streams (efficiency ~ cus^-(sensitivity*K)).
ROW_LOCALITY_EXPONENT = 0.35

#: Efficiency floor: even pathological interleavings keep some locality.
MIN_BANDWIDTH_EFFICIENCY = 0.05

#: Queueing knee: achieved latency grows as utilisation approaches 1.
#: Capped so saturated kernels see a finite (bandwidth-bound) latency.
MAX_QUEUE_STRETCH = 2.0


@dataclass(frozen=True)
class MemorySystemState:
    """Resolved DRAM behaviour for one kernel at one configuration."""

    peak_bytes_per_sec: float
    efficiency: float
    unloaded_latency_s: float

    @property
    def achieved_bytes_per_sec(self) -> float:
        """Sustainable DRAM bandwidth for this access pattern."""
        return self.peak_bytes_per_sec * self.efficiency


class MemoryModel:
    """DRAM bandwidth/latency model for one hardware configuration."""

    def __init__(self, config: HardwareConfig):
        self._config = config

    @property
    def config(self) -> HardwareConfig:
        """The configuration this model describes."""
        return self._config

    def bandwidth_efficiency(
        self, coalescing_efficiency: float, row_locality_sensitivity: float,
        active_cus: int,
    ) -> float:
        """Fraction of peak DRAM bandwidth a kernel sustains.

        Starts from the kernel's single-stream coalescing efficiency and
        applies a power-law penalty for stream interleaving across CUs.
        Insensitive kernels (sensitivity 0) keep their efficiency at any
        CU count; fully sensitive kernels lose ~70% of it by 44 CUs.
        """
        if active_cus < 1:
            raise ValueError(f"active_cus must be >= 1, got {active_cus}")
        exponent = row_locality_sensitivity * ROW_LOCALITY_EXPONENT
        interleave_penalty = float(active_cus) ** (-exponent)
        efficiency = coalescing_efficiency * interleave_penalty
        return max(MIN_BANDWIDTH_EFFICIENCY, min(1.0, efficiency))

    def bandwidth_efficiency_batch(
        self,
        coalescing_efficiency: np.ndarray,
        row_locality_sensitivity: np.ndarray,
        active_cus: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`bandwidth_efficiency`.

        *coalescing_efficiency* and *row_locality_sensitivity* are
        ``(K,)`` per-kernel arrays; *active_cus* is the ``(K, C)``
        active-CU matrix. Same power-law and clamps as the scalar
        method, elementwise. NumPy's SIMD ``pow`` disagrees with
        libm's by 1 ulp on some inputs, so the power law is evaluated
        through Python's ``pow`` on the (few) unique (CU, exponent)
        pairs — bit-identical to the scalar path at negligible cost.
        """
        if np.any(active_cus < 1):
            raise ValueError(
                f"active_cus must be >= 1, got {int(active_cus.min())}"
            )
        # Number the distinct exponents (one per kernel at most) and CU
        # counts, then evaluate each (CU, exponent) pair that occurs once.
        exponents, exponent_index = np.unique(
            row_locality_sensitivity * ROW_LOCALITY_EXPONENT,
            return_inverse=True,
        )
        bases, base_index = np.unique(active_cus, return_inverse=True)
        pair_index = (
            base_index.reshape(active_cus.shape) * len(exponents)
            + exponent_index.reshape(-1, 1)
        )
        pairs, inverse = np.unique(pair_index, return_inverse=True)
        powered = np.asarray([
            float(bases[pair // len(exponents)])
            ** (-float(exponents[pair % len(exponents)]))
            for pair in pairs.tolist()
        ])
        interleave_penalty = powered[inverse].reshape(active_cus.shape)
        efficiency = (
            coalescing_efficiency.reshape(-1, 1) * interleave_penalty
        )
        return np.maximum(
            MIN_BANDWIDTH_EFFICIENCY, np.minimum(1.0, efficiency)
        )

    def unloaded_miss_latency_s(self) -> float:
        """L2-miss-to-DRAM latency at zero load, in seconds.

        Three additive terms: L2 pipeline (engine-clock cycles), DRAM
        core (memory-clock cycles), and the clock-invariant controller/
        PHY time. Only the first two respond to the DVFS knobs.
        """
        uarch = self._config.uarch
        l2_time = uarch.l2_latency_cycles / self._config.engine_hz
        dram_time = uarch.dram_latency_cycles / self._config.memory_hz
        fixed_time = ns_to_seconds(uarch.dram_fixed_latency_ns)
        return l2_time + dram_time + fixed_time

    def loaded_miss_latency_s(self, utilisation: float) -> float:
        """Miss latency under load, in seconds.

        Queueing happens at the DRAM controller, so the bounded
        M/D/1-style stretch (``1/(1 - utilisation)`` capped at
        :data:`MAX_QUEUE_STRETCH`) applies only to the memory-side
        terms (DRAM interface cycles + fixed controller time); the
        engine-domain L2 pipeline is unaffected. The cap reflects that
        saturated kernels become bandwidth-bound (modelled separately)
        rather than seeing unbounded queues.
        """
        if utilisation < 0.0:
            raise ValueError(f"utilisation must be >= 0, got {utilisation}")
        uarch = self._config.uarch
        l2_time = uarch.l2_latency_cycles / self._config.engine_hz
        memory_side = (
            uarch.dram_latency_cycles / self._config.memory_hz
            + ns_to_seconds(uarch.dram_fixed_latency_ns)
        )
        bounded = min(utilisation, 1.0 - 1.0 / MAX_QUEUE_STRETCH)
        return l2_time + memory_side / (1.0 - bounded)

    def state(
        self, coalescing_efficiency: float, row_locality_sensitivity: float,
        active_cus: int,
    ) -> MemorySystemState:
        """Bundle peak bandwidth, efficiency and unloaded latency."""
        return MemorySystemState(
            peak_bytes_per_sec=self._config.peak_dram_bytes_per_sec,
            efficiency=self.bandwidth_efficiency(
                coalescing_efficiency, row_locality_sensitivity, active_cus
            ),
            unloaded_latency_s=self.unloaded_miss_latency_s(),
        )
