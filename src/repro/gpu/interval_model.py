"""Analytical interval (bottleneck) timing model.

This is the fast engine behind the 237,897-point sweep (267 kernels x
891 configurations). It decomposes a kernel execution into overlapping
intervals, computes the time each machine resource would need in
isolation, and combines them with a mostly-overlapped bottleneck rule.

Resources modelled, and the scaling class each one produces when it
dominates:

=====================  ==============================================
Interval               Dominant-resource scaling behaviour
=====================  ==============================================
VALU compute           ~ CU count x engine clock ("compute-bound")
Scalar ALU             ~ CU count x engine clock
LDS                    ~ CU count x engine clock
L2 bandwidth           ~ engine clock only (cache-resident kernels)
DRAM bandwidth         ~ memory clock ("bandwidth-bound"); may *fall*
                       with CU count via L2 thrash + row-locality loss
Exposed latency        plateaus: the fixed controller/PHY latency term
                       responds to neither clock
Atomic serialisation   ~ engine clock; worsens with concurrency
Barrier overhead       ~ engine clock
Launch overhead        constant — caps tiny kernels everywhere
=====================  ==============================================

A small non-overlap charge keeps mixed kernels ("balanced" in the
taxonomy) sensitive to both clocks rather than snapping to a single
pure bottleneck.

This scalar form is the *reference oracle*: grid, study and
co-schedule surfaces all go through the one vectorized evaluator,
:func:`repro.gpu.interval_batch.interval_terms`, which keeps this
file's operation order. When changing any expression here, make the
matching change there and in the co-schedule model's scalar
``_point_terms`` (the equivalence tests in
``tests/gpu/test_interval_batch.py`` and ``tests/coschedule/``, and
the axis-dependence table in DESIGN.md's "Engine architecture"
section, will catch drift).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.gpu.caches import CacheModel
from repro.gpu.config import HardwareConfig, Microarchitecture
from repro.gpu.dispatch import DispatchPlan, plan_dispatch
from repro.gpu.engine import INTERVAL_DESCRIPTOR, EngineDescriptor
from repro.gpu.memory import MemoryModel
from repro.gpu.occupancy import OccupancyResult, compute_occupancy
from repro.kernels.kernel import Kernel
from repro.units import us_to_seconds

#: Bytes per memory request (one cache line / one coalesced transaction).
REQUEST_BYTES = 64

#: Engine cycles a contended atomic occupies at the L2 (round trip).
ATOMIC_SERIAL_CYCLES = 190

#: Extra contended-atomic cost growth per additional concurrent CU,
#: normalised to the 44-CU device (retry/backoff traffic).
ATOMIC_CONCURRENCY_SLOPE = 0.6

#: Engine cycles to drain and release one workgroup barrier.
BARRIER_CYCLES = 128

#: Fraction of the non-dominant intervals that fails to overlap with
#: the bottleneck interval.
NON_OVERLAP_FRACTION = 0.12

#: Waves needed per CU before the VALU pipelines reach full issue rate.
FULL_ISSUE_WAVES = 4


@dataclass(frozen=True)
class IntervalBreakdown:
    """Per-resource isolated times (seconds) for one kernel execution."""

    compute_s: float
    salu_s: float
    lds_s: float
    l2_s: float
    dram_s: float
    latency_s: float
    atomic_s: float
    barrier_s: float
    launch_s: float

    def as_dict(self) -> Dict[str, float]:
        """All intervals keyed by name."""
        return {
            "compute": self.compute_s,
            "salu": self.salu_s,
            "lds": self.lds_s,
            "l2": self.l2_s,
            "dram": self.dram_s,
            "latency": self.latency_s,
            "atomic": self.atomic_s,
            "barrier": self.barrier_s,
            "launch": self.launch_s,
        }

    @property
    def bottleneck(self) -> str:
        """Name of the largest overlappable interval."""
        overlappable = {
            k: v
            for k, v in self.as_dict().items()
            if k not in ("atomic", "barrier", "launch")
        }
        return max(overlappable, key=overlappable.__getitem__)


@dataclass(frozen=True)
class KernelRunResult:
    """Outcome of simulating one kernel at one hardware configuration."""

    kernel_name: str
    config: HardwareConfig
    time_s: float
    breakdown: IntervalBreakdown
    occupancy: OccupancyResult
    dispatch: DispatchPlan
    l2_hit_rate: float
    dram_bytes: float
    global_size: int

    @property
    def items_per_second(self) -> float:
        """Throughput in work-items per second (the performance metric)."""
        return self.global_size / self.time_s


class IntervalModel:
    """Analytical timing model over one microarchitecture.

    Registered as the ``"interval"`` timing engine: point-capable
    only — grid and study calls resolve to the vectorized family
    sibling ``"interval-batch"``, or force this oracle point by point
    via ``mode="scalar"``.
    """

    supports_point = True
    supports_grid = False
    supports_study = False

    def __init__(self) -> None:
        self._cache_models: Dict[Microarchitecture, CacheModel] = {}

    def descriptor(self) -> EngineDescriptor:
        """Stable engine identity (name/family/version)."""
        return INTERVAL_DESCRIPTOR

    def simulate(
        self, kernel: Kernel, config: HardwareConfig
    ) -> KernelRunResult:
        """Predict the execution time of *kernel* on *config*."""
        uarch = config.uarch
        ch = kernel.characteristics
        geometry = kernel.geometry

        occupancy = compute_occupancy(geometry, kernel.resources, uarch)
        dispatch = plan_dispatch(geometry, occupancy, config.cu_count)
        active_cus = dispatch.active_cus

        cache_model = self._cache_model(uarch)
        caches = cache_model.behaviour(
            kernel, active_cus, occupancy.workgroups_per_cu
        )
        memory = MemoryModel(config)

        items = float(geometry.global_size)
        total_waves = float(geometry.total_waves)
        engine_hz = config.engine_hz

        # --- Throughput intervals -------------------------------------
        compute_s = self._compute_interval(
            items, ch, occupancy, active_cus, uarch, engine_hz
        )
        salu_s = total_waves * ch.salu_ops_per_item / (active_cus * engine_hz)
        lds_s = self._lds_interval(items, ch, active_cus, config)

        issued_bytes = items * ch.global_bytes_per_item
        l2_bytes = issued_bytes * (1.0 - caches.l1_hit_rate)
        dram_bytes = issued_bytes * caches.dram_fraction
        l2_s = l2_bytes / config.peak_l2_bytes_per_sec

        # --- DRAM bandwidth, bounded by Little's law -------------------
        achieved_bw = memory.state(
            ch.coalescing_efficiency, ch.row_locality_sensitivity, active_cus
        ).achieved_bytes_per_sec
        concurrency = (
            active_cus * occupancy.waves_per_cu * ch.memory_parallelism
        )
        unloaded_latency = memory.unloaded_miss_latency_s()
        little_bw = concurrency * REQUEST_BYTES / unloaded_latency
        effective_bw = min(achieved_bw, little_bw)
        dram_s = dram_bytes / effective_bw if dram_bytes > 0 else 0.0

        # --- Exposed dependence-chain latency (two-pass for loading) ---
        latency_s = self._latency_interval(
            l2_bytes, dram_bytes, ch, occupancy, active_cus, memory, caches,
            utilisation=0.0,
        )
        first_pass_max = max(compute_s, salu_s, lds_s, l2_s, dram_s, latency_s)
        if first_pass_max > 0.0 and dram_bytes > 0.0:
            utilisation = min(1.0, (dram_bytes / achieved_bw) / first_pass_max)
            latency_s = self._latency_interval(
                l2_bytes, dram_bytes, ch, occupancy, active_cus, memory,
                caches, utilisation=utilisation,
            )

        # --- Serial additions ------------------------------------------
        atomic_s = self._atomic_interval(items, ch, active_cus, engine_hz)
        barrier_s = (
            geometry.num_workgroups
            * ch.barriers_per_workgroup
            * BARRIER_CYCLES
            / engine_hz
            / dispatch.resident_workgroups_total
        )
        launch_s = us_to_seconds(ch.launch_overhead_us)

        breakdown = IntervalBreakdown(
            compute_s=compute_s,
            salu_s=salu_s,
            lds_s=lds_s,
            l2_s=l2_s,
            dram_s=dram_s,
            latency_s=latency_s,
            atomic_s=atomic_s,
            barrier_s=barrier_s,
            launch_s=launch_s,
        )

        # Tail quantisation applies to per-CU resources (the last batch
        # leaves CUs idle) but not to device-shared ones: a partial
        # batch still saturates the DRAM and L2 it is using.
        overlappable = (compute_s, salu_s, lds_s, l2_s, dram_s, latency_s)
        local_peak = max(compute_s, salu_s, lds_s, latency_s)
        shared_peak = max(l2_s, dram_s)
        dominant = max(
            local_peak * dispatch.quantisation_factor, shared_peak
        )
        spill = NON_OVERLAP_FRACTION * (
            sum(overlappable) - max(overlappable)
        )
        parallel_s = dominant + spill
        time_s = parallel_s + atomic_s + barrier_s + launch_s

        return KernelRunResult(
            kernel_name=kernel.full_name,
            config=config,
            time_s=time_s,
            breakdown=breakdown,
            occupancy=occupancy,
            dispatch=dispatch,
            l2_hit_rate=caches.l2_hit_rate,
            dram_bytes=dram_bytes,
            global_size=geometry.global_size,
        )

    # ------------------------------------------------------------------
    # Interval helpers
    # ------------------------------------------------------------------

    def _cache_model(self, uarch) -> CacheModel:
        # Keyed by value, not id(): chunked campaigns deserialise a
        # fresh (equal) Microarchitecture per chunk, and an id() key
        # would rebuild cache state for every one of them.
        if uarch not in self._cache_models:
            self._cache_models[uarch] = CacheModel(uarch)
        return self._cache_models[uarch]

    @staticmethod
    def _compute_interval(
        items, ch, occupancy, active_cus, uarch, engine_hz
    ) -> float:
        """VALU time: lane-ops over aggregate lane throughput.

        Divergence inflates issued lane-ops (inactive lanes still burn
        issue slots); low occupancy throttles issue below the one
        lane-op per lane per cycle peak until FULL_ISSUE_WAVES waves are
        resident.
        """
        lane_ops = items * ch.valu_ops_per_item / ch.simd_efficiency
        issue_factor = min(1.0, occupancy.waves_per_cu / FULL_ISSUE_WAVES)
        throughput = active_cus * uarch.lanes_per_cu * engine_hz * issue_factor
        return lane_ops / throughput

    @staticmethod
    def _lds_interval(items, ch, active_cus, config) -> float:
        """LDS time: bytes over aggregate LDS bandwidth of active CUs."""
        lds_bytes = items * ch.lds_bytes_per_item
        if lds_bytes == 0.0:
            return 0.0
        per_device = config.peak_lds_bytes_per_sec
        active_share = per_device * active_cus / config.cu_count
        return lds_bytes / active_share

    @staticmethod
    def _latency_interval(
        l2_bytes, dram_bytes, ch, occupancy, active_cus, memory, caches,
        utilisation,
    ) -> float:
        """Serial dependence-chain exposure.

        Dependent requests expose the full round trip; chains in
        different waves proceed in parallel, so exposure divides by the
        wave-level concurrency. L2-resident dependent accesses see the
        (shorter, engine-clocked) L2 latency.
        """
        if ch.dependent_access_fraction == 0.0:
            return 0.0
        requests = (l2_bytes + 0.0) / REQUEST_BYTES
        dependent = requests * ch.dependent_access_fraction
        miss_fraction = 0.0 if l2_bytes == 0 else dram_bytes / l2_bytes
        dram_latency = memory.loaded_miss_latency_s(utilisation)
        uarch = memory.config.uarch
        l2_latency = uarch.l2_latency_cycles / memory.config.engine_hz
        mean_latency = (
            miss_fraction * dram_latency + (1.0 - miss_fraction) * l2_latency
        )
        concurrency = max(1.0, active_cus * occupancy.waves_per_cu)
        return dependent * mean_latency / concurrency

    @staticmethod
    def _atomic_interval(items, ch, active_cus, engine_hz) -> float:
        """Contended-atomic serialisation at the L2.

        Conflicting atomics to one address serialise; retry traffic
        grows with the number of CUs racing, so this interval *worsens*
        as CUs are added — an inverse-CU mechanism independent of the
        memory system.
        """
        if ch.atomic_ops_per_item == 0.0 or ch.atomic_contention == 0.0:
            return 0.0
        serialised = items * ch.atomic_ops_per_item * ch.atomic_contention
        concurrency_growth = 1.0 + ATOMIC_CONCURRENCY_SLOPE * (
            ch.atomic_contention * (active_cus - 1) / 43.0
        )
        cycles = serialised * ATOMIC_SERIAL_CYCLES * concurrency_growth
        return cycles / engine_hz
