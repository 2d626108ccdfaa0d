"""Concurrent-kernel co-scheduling model.

The taxonomy characterizes kernels in isolation, but co-resident
kernels contend for exactly the shared resources its scaling classes
are defined by: DRAM bandwidth, the row-buffer locality of the memory
controller, and L2 capacity. This module evaluates a *pair* of
co-resident kernels at a configuration by spatially partitioning the
CUs and iterating the shared-resource contention to a fixed point:

* **CU partition.** Each kernel dispatches onto its CU allotment
  (:func:`partition_cus`), so per-CU intervals see a smaller machine
  while the clock knobs stay shared.
* **Row-locality under combined pressure.** DRAM bandwidth efficiency
  (:meth:`~repro.gpu.memory.MemoryModel.bandwidth_efficiency`) is
  evaluated at the *combined* active-CU count — the controller
  interleaves both kernels' streams, so each pays the other's
  row-locality damage.
* **L2 capacity split by footprint.** The shared L2 divides in
  proportion to the kernels' concurrent footprints
  (:meth:`~repro.gpu.caches.CacheModel.concurrent_footprint_bytes`);
  each kernel's hit rate is re-derived against its capacity share, so
  a cache-hungry partner inflates the other kernel's DRAM traffic.
* **Bandwidth fair-share fixed point.** Each kernel is entitled to
  half the achieved DRAM bandwidth, and reclaims whatever fraction of
  the partner's entitlement the partner does not use:
  ``share_a = 0.5 + max(0, 0.5 - u_b)`` where ``u_b`` is the
  partner's utilisation of the full pipe (``dram_bytes_b /
  (achieved_bw * time_b)``). Utilisation depends on time and time on
  the share, so the model iterates the loop a fixed
  :data:`FIXED_POINT_ITERATIONS` times and finishes with one
  consistent evaluation at the final shares. The reclaim form is
  work-conserving and *stable*: shares live in [0.5, 1], so a
  saturating partner degrades a kernel's bandwidth by at most 2x
  (plus the shared row-locality damage) — proportional-to-achieved-
  demand sharing, by contrast, has only the all-or-nothing fixed
  points and starves whichever kernel has the lower achieved
  efficiency.

The per-point path (:meth:`CoScheduleModel.evaluate`, via
``_point_terms``) restates :mod:`repro.gpu.interval_model` with the
contended share and is the scalar reference. A kernel paired with an
idle partner (``kernel_b=None``) takes the whole machine, keeps the
full L2 and a demand share of exactly 1.0, and therefore reproduces
its single-kernel surface bit for bit. The batch path
(:meth:`CoScheduleModel.pair_surface`) has no interval arithmetic of
its own: it reads solo surfaces from
:meth:`~repro.gpu.interval_batch.BatchIntervalModel.simulate_grid` and
evaluates each contended round with
:func:`~repro.gpu.interval_batch.interval_terms`, and is pinned
bit-exact against the per-point loop
(:meth:`CoScheduleModel.pair_surface_scalar`).

On top of the times, the model prices the pair: activity factors sum
both kernels' busy intervals over the pair makespan, board power comes
from :class:`~repro.power.model.PowerModel`, and the standard
multiprogramming metrics fall out — STP (system throughput, the sum of
reciprocal slowdowns) and ANTT (average normalised turnaround time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.config import HardwareConfig, Microarchitecture
from repro.gpu.dispatch import plan_dispatch
from repro.gpu.interval_batch import (
    BatchIntervalModel,
    grid_axes,
    interval_terms,
)
from repro.gpu.interval_model import (
    ATOMIC_CONCURRENCY_SLOPE,
    ATOMIC_SERIAL_CYCLES,
    BARRIER_CYCLES,
    FULL_ISSUE_WAVES,
    NON_OVERLAP_FRACTION,
    REQUEST_BYTES,
)
from repro.gpu.memory import MAX_QUEUE_STRETCH
from repro.gpu.occupancy import compute_occupancy
from repro.kernels.kernel import Kernel
from repro.power.model import DEFAULT_POWER_MODEL, PowerModel
from repro.sweep.space import PAPER_SPACE, ConfigurationSpace
from repro.units import ns_to_seconds, us_to_seconds

#: Contention fixed-point iterations. Fixed (never adaptive): the batch
#: and scalar paths must execute the identical operation sequence to
#: stay bit-exact. Most pairs settle well before 64 rounds, but some
#: settle into a damped two-cycle that is still moving at round 64
#: (DESIGN.md, "Known limitation: unconverged shares").
FIXED_POINT_ITERATIONS = 64

#: Default CU split: half the device each (rounded, both sides >= 1).
DEFAULT_CU_SHARE = 0.5


def partition_cus(
    cu_count: int, share: float = DEFAULT_CU_SHARE
) -> Tuple[int, int]:
    """Split *cu_count* CUs between kernel A and kernel B.

    Kernel A receives ``round(cu_count * share)`` CUs clamped so both
    sides keep at least one CU; co-residency therefore needs at least
    two CUs.
    """
    if cu_count < 2:
        raise ConfigurationError(
            f"co-scheduling needs cu_count >= 2, got {cu_count}"
        )
    cu_a = min(max(1, int(cu_count * share + 0.5)), cu_count - 1)
    return cu_a, cu_count - cu_a


@dataclass(frozen=True)
class KernelShare:
    """One kernel's contended outcome at a configuration."""

    kernel_name: str
    cu_allotment: int
    active_cus: int
    time_s: float
    solo_time_s: float
    dram_demand_share: float
    global_size: int

    @property
    def slowdown(self) -> float:
        """Contended time over solo time (>= 1 in practice)."""
        return self.time_s / self.solo_time_s

    @property
    def items_per_second(self) -> float:
        """Contended throughput in work-items per second."""
        return self.global_size / self.time_s


@dataclass(frozen=True)
class CoScheduleResult:
    """Pair outcome at one configuration."""

    config: HardwareConfig
    a: KernelShare
    b: Optional[KernelShare]
    makespan_s: float
    power_w: float
    energy_j: float
    compute_activity: float
    memory_activity: float

    @property
    def stp(self) -> float:
        """System throughput: sum of reciprocal slowdowns (max 2.0)."""
        if self.b is None:
            return 1.0 / self.a.slowdown
        return 1.0 / self.a.slowdown + 1.0 / self.b.slowdown

    @property
    def antt(self) -> float:
        """Average normalised turnaround time: mean slowdown (>= 1)."""
        if self.b is None:
            return self.a.slowdown
        return (self.a.slowdown + self.b.slowdown) / 2.0


@dataclass(frozen=True)
class PairSurface:
    """Pair outcomes over a whole configuration grid.

    Arrays have ``space.shape``; ``cu_a``/``cu_b`` are the per-CU-axis
    partition (``(n_cu,)``). For an idle partner every ``*_b`` field is
    ``None`` and the surface equals the single-kernel surface.
    """

    kernel_a: str
    kernel_b: Optional[str]
    space: ConfigurationSpace
    cu_a: np.ndarray
    cu_b: Optional[np.ndarray]
    time_a: np.ndarray
    time_b: Optional[np.ndarray]
    solo_time_a: np.ndarray
    solo_time_b: Optional[np.ndarray]
    demand_share_a: np.ndarray
    demand_share_b: Optional[np.ndarray]
    makespan_s: np.ndarray
    power_w: np.ndarray
    energy_j: np.ndarray
    global_size_a: int
    global_size_b: Optional[int]

    @property
    def slowdown_a(self) -> np.ndarray:
        """Kernel A's slowdown surface."""
        return self.time_a / self.solo_time_a

    @property
    def slowdown_b(self) -> Optional[np.ndarray]:
        """Kernel B's slowdown surface (None for an idle partner)."""
        if self.time_b is None:
            return None
        return self.time_b / self.solo_time_b

    @property
    def stp(self) -> np.ndarray:
        """System-throughput surface."""
        if self.time_b is None:
            return 1.0 / self.slowdown_a
        return 1.0 / self.slowdown_a + 1.0 / self.slowdown_b

    @property
    def antt(self) -> np.ndarray:
        """Fairness (mean-slowdown) surface."""
        if self.time_b is None:
            return self.slowdown_a
        return (self.slowdown_a + self.slowdown_b) / 2.0

    @property
    def perf_a(self) -> np.ndarray:
        """Kernel A's *composed* throughput surface (items/s)."""
        return self.global_size_a / self.time_a

    @property
    def perf_b(self) -> Optional[np.ndarray]:
        """Kernel B's composed throughput surface (items/s)."""
        if self.time_b is None:
            return None
        return self.global_size_b / self.time_b


@dataclass
class _Side:
    """Hoisted per-kernel state: kernel-level scalars plus per-CU-axis
    lists (one entry per CU setting), shared by the scalar and batch
    paths so both consume the identical Python floats."""

    kernel: Kernel
    waves_per_cu: int
    workgroups_per_cu: int
    l1_hit: float
    alloc: List[int] = field(default_factory=list)
    active: List[int] = field(default_factory=list)
    quantisation: List[float] = field(default_factory=list)
    resident_total: List[int] = field(default_factory=list)
    efficiency: List[float] = field(default_factory=list)
    dram_fraction: List[float] = field(default_factory=list)

    def interval_state(self) -> Dict[str, object]:
        """This side as :func:`interval_terms` keyword arguments: the
        kernel's scalars plus ``(n_cu, 1, 1)`` CU-axis arrays."""
        n_cu = len(self.active)
        geometry = self.kernel.geometry

        def cu_axis(values, dtype=np.float64) -> np.ndarray:
            return np.asarray(values, dtype=dtype).reshape(n_cu, 1, 1)

        return {
            "ch": self.kernel.characteristics,
            "items": float(geometry.global_size),
            "total_waves": float(geometry.total_waves),
            "num_workgroups": geometry.num_workgroups,
            "waves_per_cu": self.waves_per_cu,
            "active_cus": cu_axis(self.active, np.int64),
            "quantisation": cu_axis(self.quantisation),
            "resident_total": cu_axis(self.resident_total, np.int64),
            "l1_hit_rate": self.l1_hit,
            "dram_fraction": cu_axis(self.dram_fraction),
            "efficiency": cu_axis(self.efficiency),
        }


class CoScheduleModel:
    """Pair-contention timing/power model over one microarchitecture.

    *share* sets the CU partition (kernel A's fraction); *iterations*
    the contention fixed-point round count (fixed, see
    :data:`FIXED_POINT_ITERATIONS`).
    """

    def __init__(
        self,
        power_model: Optional[PowerModel] = None,
        share: float = DEFAULT_CU_SHARE,
        iterations: int = FIXED_POINT_ITERATIONS,
    ):
        if not 0.0 < share < 1.0:
            raise ConfigurationError(
                f"share must lie in (0, 1), got {share}"
            )
        if iterations < 1:
            raise ConfigurationError(
                f"iterations must be >= 1, got {iterations}"
            )
        self._power = power_model or DEFAULT_POWER_MODEL
        self._share = share
        self._iterations = iterations
        self._engine = BatchIntervalModel()

    @property
    def power_model(self) -> PowerModel:
        """The board-power model pair energy is priced with."""
        return self._power

    @property
    def share(self) -> float:
        """Kernel A's CU-partition fraction."""
        return self._share

    # ------------------------------------------------------------------
    # Point path (the reference oracle)
    # ------------------------------------------------------------------

    def evaluate(
        self,
        kernel_a: Kernel,
        kernel_b: Optional[Kernel],
        config: HardwareConfig,
    ) -> CoScheduleResult:
        """Contended outcome of the pair at one configuration.

        ``kernel_b=None`` models an idle partner: kernel A keeps the
        whole device and the result reproduces its solo execution.
        """
        uarch = config.uarch
        cu_counts = (config.cu_count,)
        engine_hz = config.engine_mhz * 1e6
        memory_hz = config.memory_mhz * 1e6

        side_a, side_b = self._hoist(kernel_a, kernel_b, cu_counts, uarch)
        solo_a, _ = self._hoist(kernel_a, None, cu_counts, uarch)
        solo_time_a = self._point_terms(
            solo_a, 0, config.cu_count, engine_hz, memory_hz, uarch, 1.0
        )[0]

        if side_b is None:
            time_a, busy_a, dram_s_a, _ = self._point_terms(
                side_a, 0, config.cu_count, engine_hz, memory_hz, uarch,
                1.0,
            )
            share_a = 1.0
            time_b = busy_b = dram_s_b = 0.0
            share_b = solo_time_b = None
        else:
            solo_b, _ = self._hoist(kernel_b, None, cu_counts, uarch)
            solo_time_b = self._point_terms(
                solo_b, 0, config.cu_count, engine_hz, memory_hz, uarch,
                1.0,
            )[0]
            share_a = 1.0
            share_b = 1.0
            for _ in range(self._iterations):
                time_a, _, dram_s_a, _ = self._point_terms(
                    side_a, 0, config.cu_count, engine_hz, memory_hz,
                    uarch, share_a,
                )
                time_b, _, dram_s_b, _ = self._point_terms(
                    side_b, 0, config.cu_count, engine_hz, memory_hz,
                    uarch, share_b,
                )
                util_a = share_a * dram_s_a / time_a
                util_b = share_b * dram_s_b / time_b
                share_a = 0.5 + max(0.0, 0.5 - util_b)
                share_b = 0.5 + max(0.0, 0.5 - util_a)
            time_a, busy_a, dram_s_a, _ = self._point_terms(
                side_a, 0, config.cu_count, engine_hz, memory_hz, uarch,
                share_a,
            )
            time_b, busy_b, dram_s_b, _ = self._point_terms(
                side_b, 0, config.cu_count, engine_hz, memory_hz, uarch,
                share_b,
            )

        makespan = max(time_a, time_b)
        compute_activity = min(1.0, (busy_a + busy_b) / makespan)
        memory_activity = min(1.0, (dram_s_a + dram_s_b) / makespan)
        power_w = self._power.board_power_w(
            config, compute_activity, memory_activity
        )
        energy_j = makespan * power_w

        a = KernelShare(
            kernel_name=kernel_a.full_name,
            cu_allotment=side_a.alloc[0],
            active_cus=side_a.active[0],
            time_s=time_a,
            solo_time_s=solo_time_a,
            dram_demand_share=share_a,
            global_size=kernel_a.geometry.global_size,
        )
        b = None
        if side_b is not None:
            b = KernelShare(
                kernel_name=kernel_b.full_name,
                cu_allotment=side_b.alloc[0],
                active_cus=side_b.active[0],
                time_s=time_b,
                solo_time_s=solo_time_b,
                dram_demand_share=share_b,
                global_size=kernel_b.geometry.global_size,
            )
        return CoScheduleResult(
            config=config,
            a=a,
            b=b,
            makespan_s=makespan,
            power_w=power_w,
            energy_j=energy_j,
            compute_activity=compute_activity,
            memory_activity=memory_activity,
        )

    def pair_surface_scalar(
        self,
        kernel_a: Kernel,
        kernel_b: Optional[Kernel],
        space: ConfigurationSpace = PAPER_SPACE,
    ) -> PairSurface:
        """The pair surface via the per-point loop (reference oracle)."""
        n_cu, n_eng, n_mem = space.shape
        shape = space.shape
        time_a = np.empty(shape)
        solo_a = np.empty(shape)
        share_a = np.empty(shape)
        makespan = np.empty(shape)
        power_w = np.empty(shape)
        energy_j = np.empty(shape)
        paired = kernel_b is not None
        time_b = np.empty(shape) if paired else None
        solo_b = np.empty(shape) if paired else None
        share_b = np.empty(shape) if paired else None
        cu_a = np.empty(n_cu, dtype=np.int64)
        cu_b = np.empty(n_cu, dtype=np.int64) if paired else None
        for c in range(n_cu):
            for e in range(n_eng):
                for m in range(n_mem):
                    result = self.evaluate(
                        kernel_a, kernel_b, space.config(c, e, m)
                    )
                    time_a[c, e, m] = result.a.time_s
                    solo_a[c, e, m] = result.a.solo_time_s
                    share_a[c, e, m] = result.a.dram_demand_share
                    makespan[c, e, m] = result.makespan_s
                    power_w[c, e, m] = result.power_w
                    energy_j[c, e, m] = result.energy_j
                    cu_a[c] = result.a.cu_allotment
                    if paired:
                        time_b[c, e, m] = result.b.time_s
                        solo_b[c, e, m] = result.b.solo_time_s
                        share_b[c, e, m] = result.b.dram_demand_share
                        cu_b[c] = result.b.cu_allotment
        return PairSurface(
            kernel_a=kernel_a.full_name,
            kernel_b=kernel_b.full_name if paired else None,
            space=space,
            cu_a=cu_a,
            cu_b=cu_b,
            time_a=time_a,
            time_b=time_b,
            solo_time_a=solo_a,
            solo_time_b=solo_b,
            demand_share_a=share_a,
            demand_share_b=share_b,
            makespan_s=makespan,
            power_w=power_w,
            energy_j=energy_j,
            global_size_a=kernel_a.geometry.global_size,
            global_size_b=(
                kernel_b.geometry.global_size if paired else None
            ),
        )

    # ------------------------------------------------------------------
    # Batch path (vectorized over the lattice)
    # ------------------------------------------------------------------

    def pair_surface(
        self,
        kernel_a: Kernel,
        kernel_b: Optional[Kernel],
        space: ConfigurationSpace = PAPER_SPACE,
    ) -> PairSurface:
        """The pair surface over all of *space* as one broadcast.

        Solo times come from :meth:`BatchIntervalModel.simulate_grid`
        (an idle partner's surface *is* the solo grid); each contended
        round evaluates :func:`~repro.gpu.interval_batch.interval_terms`
        on the pair's hoisted state and demand shares. The CU-axis state
        is hoisted through the same scalar helpers as :meth:`evaluate`,
        so every element is bit-identical to
        :meth:`pair_surface_scalar`.
        """
        shape = space.shape
        solo_a = self._engine.simulate_grid(kernel_a, space)

        if kernel_b is None:
            time_a = solo_a.time_s
            busy_a, dram_s_a = _busy_and_dram(solo_a.breakdown)
            share_a = np.ones(shape)
            time_b = busy_b = dram_s_b = 0.0
            share_b = solo_time_b = None
            cu_a = np.asarray(space.cu_counts, dtype=np.int64)
            cu_b = None
        else:
            solo_time_b = self._engine.simulate_grid(kernel_b, space).time_s
            side_a, side_b = self._hoist(
                kernel_a, kernel_b, space.cu_counts, space.uarch
            )
            axes = grid_axes(space)
            state_a = side_a.interval_state()
            state_b = side_b.interval_state()

            def contended(state, share):
                return interval_terms(
                    uarch=space.uarch, share=share, **state, **axes
                )

            share_a = 1.0
            share_b = 1.0
            for _ in range(self._iterations):
                terms_a = contended(state_a, share_a)
                terms_b = contended(state_b, share_b)
                util_a = share_a * terms_a.dram_s / terms_a.time_s
                util_b = share_b * terms_b.dram_s / terms_b.time_s
                share_a = 0.5 + np.maximum(0.0, 0.5 - util_b)
                share_b = 0.5 + np.maximum(0.0, 0.5 - util_a)
            terms_a = contended(state_a, share_a)
            terms_b = contended(state_b, share_b)
            time_a = _full(terms_a.time_s, shape)
            time_b = _full(terms_b.time_s, shape)
            busy_a, dram_s_a = _busy_and_dram(terms_a)
            busy_b, dram_s_b = _busy_and_dram(terms_b)
            share_b = _full(share_b, shape)
            cu_a = np.asarray(side_a.alloc, dtype=np.int64)
            cu_b = np.asarray(side_b.alloc, dtype=np.int64)

        makespan = np.maximum(time_a, time_b)
        compute_activity = np.minimum(
            1.0, (busy_a + busy_b) / makespan
        )
        memory_activity = np.minimum(
            1.0, (dram_s_a + dram_s_b) / makespan
        )
        power_w = self._power.board_power_surface(
            space,
            _full(compute_activity, shape),
            _full(memory_activity, shape),
        )
        energy_j = makespan * power_w

        return PairSurface(
            kernel_a=kernel_a.full_name,
            kernel_b=kernel_b.full_name if kernel_b is not None else None,
            space=space,
            cu_a=cu_a,
            cu_b=cu_b,
            time_a=time_a,
            time_b=time_b if kernel_b is not None else None,
            solo_time_a=solo_a.time_s,
            solo_time_b=solo_time_b,
            demand_share_a=_full(share_a, shape),
            demand_share_b=share_b,
            makespan_s=_full(makespan, shape),
            power_w=power_w,
            energy_j=_full(energy_j, shape),
            global_size_a=kernel_a.geometry.global_size,
            global_size_b=(
                kernel_b.geometry.global_size
                if kernel_b is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    # Hoisted state
    # ------------------------------------------------------------------

    def _hoist(
        self,
        kernel_a: Kernel,
        kernel_b: Optional[Kernel],
        cu_counts: Sequence[int],
        uarch: Microarchitecture,
    ) -> Tuple[_Side, Optional[_Side]]:
        """Per-CU-axis static state for both kernels.

        Everything here is computed with the scalar models (dispatch,
        footprints, the libm power law of the bandwidth efficiency), so
        the scalar and batch paths consume identical Python floats.
        """
        state = self._engine._state(uarch)
        side_a = self._kernel_side(kernel_a, uarch)
        side_b = (
            self._kernel_side(kernel_b, uarch)
            if kernel_b is not None
            else None
        )
        l2_total = uarch.l2_bytes_total
        for cu in cu_counts:
            if side_b is None:
                allocs = (int(cu),)
                sides = (side_a,)
            else:
                cu_a, cu_b = partition_cus(int(cu), self._share)
                allocs = (cu_a, cu_b)
                sides = (side_a, side_b)
            plans = [
                plan_dispatch(
                    side.kernel.geometry,
                    compute_occupancy(
                        side.kernel.geometry,
                        side.kernel.resources,
                        uarch,
                    ),
                    alloc,
                )
                for side, alloc in zip(sides, allocs)
            ]
            combined_active = 0
            for plan in plans:
                combined_active += plan.active_cus
            footprints = [
                state.cache_model.concurrent_footprint_bytes(
                    side.kernel, plan.active_cus, side.workgroups_per_cu
                )
                for side, plan in zip(sides, plans)
            ]
            footprint_sum = 0.0
            for footprint in footprints:
                footprint_sum += footprint
            for side, alloc, plan, footprint in zip(
                sides, allocs, plans, footprints
            ):
                ch = side.kernel.characteristics
                if side_b is None or footprint_sum <= 0.0:
                    weight = 1.0
                else:
                    weight = footprint / footprint_sum
                if footprint <= 0.0:
                    l2_hit = ch.l2_reuse
                else:
                    residency = min(
                        1.0, (l2_total * weight) / footprint
                    )
                    l2_hit = ch.l2_reuse * residency
                side.alloc.append(alloc)
                side.active.append(plan.active_cus)
                side.quantisation.append(plan.quantisation_factor)
                side.resident_total.append(
                    plan.resident_workgroups_total
                )
                side.efficiency.append(
                    state.memory_model.bandwidth_efficiency(
                        ch.coalescing_efficiency,
                        ch.row_locality_sensitivity,
                        combined_active,
                    )
                )
                side.dram_fraction.append(
                    (1.0 - side.l1_hit) * (1.0 - l2_hit)
                )
        return side_a, side_b

    @staticmethod
    def _kernel_side(kernel: Kernel, uarch: Microarchitecture) -> _Side:
        occupancy = compute_occupancy(
            kernel.geometry, kernel.resources, uarch
        )
        return _Side(
            kernel=kernel,
            waves_per_cu=occupancy.waves_per_cu,
            workgroups_per_cu=occupancy.workgroups_per_cu,
            l1_hit=kernel.characteristics.l1_reuse,
        )

    # ------------------------------------------------------------------
    # Interval terms (scalar reference for interval_terms)
    # ------------------------------------------------------------------

    def _point_terms(
        self,
        side: _Side,
        cu_index: int,
        cu_count_full: int,
        engine_hz: float,
        memory_hz: float,
        uarch: Microarchitecture,
        share: float,
    ) -> Tuple[float, float, float, float]:
        """One kernel's contended time at one configuration.

        Returns ``(time_s, compute_busy_s, dram_s, dram_bytes)``.
        Mirrors ``IntervalModel.simulate`` exactly, with two contended
        substitutions: the DRAM bandwidth available to this kernel is
        the achieved bandwidth times its demand *share*, and cache /
        efficiency state was hoisted under the pair's combined
        pressure.
        """
        kernel = side.kernel
        ch = kernel.characteristics
        geometry = kernel.geometry
        active = side.active[cu_index]
        items = float(geometry.global_size)
        total_waves = float(geometry.total_waves)

        lane_ops = items * ch.valu_ops_per_item / ch.simd_efficiency
        issue_factor = min(1.0, side.waves_per_cu / FULL_ISSUE_WAVES)
        throughput = (
            active * uarch.lanes_per_cu * engine_hz * issue_factor
        )
        compute_s = lane_ops / throughput

        salu_s = (
            total_waves * ch.salu_ops_per_item / (active * engine_hz)
        )

        lds_bytes = items * ch.lds_bytes_per_item
        per_device = cu_count_full * 128 * engine_hz
        active_share = per_device * active / cu_count_full
        lds_s = lds_bytes / active_share

        issued_bytes = items * ch.global_bytes_per_item
        l2_bytes = issued_bytes * (1.0 - side.l1_hit)
        dram_bytes = issued_bytes * side.dram_fraction[cu_index]
        peak_l2 = uarch.l2_banks * 64 * engine_hz
        l2_s = l2_bytes / peak_l2

        bytes_per_cycle = (
            uarch.memory_bus_bits / 8 * uarch.memory_data_rate
        )
        peak_dram = (
            bytes_per_cycle * memory_hz
            * (1.0 - uarch.host_bandwidth_fraction)
        )
        achieved_bw = peak_dram * side.efficiency[cu_index]
        available_bw = achieved_bw * share
        concurrency = active * side.waves_per_cu * ch.memory_parallelism
        l2_time = uarch.l2_latency_cycles / engine_hz
        dram_time = uarch.dram_latency_cycles / memory_hz
        fixed_time = ns_to_seconds(uarch.dram_fixed_latency_ns)
        unloaded_latency = l2_time + dram_time + fixed_time
        little_bw = concurrency * REQUEST_BYTES / unloaded_latency
        effective_bw = min(available_bw, little_bw)
        dram_s = dram_bytes / effective_bw if dram_bytes > 0.0 else 0.0

        memory_side = dram_time + fixed_time
        if ch.dependent_access_fraction == 0.0:
            latency_s = 0.0
        else:
            requests = (l2_bytes + 0.0) / REQUEST_BYTES
            dependent = requests * ch.dependent_access_fraction
            miss_fraction = (
                0.0 if l2_bytes == 0 else dram_bytes / l2_bytes
            )
            chain_concurrency = max(1.0, active * side.waves_per_cu)
            l2_latency = uarch.l2_latency_cycles / engine_hz

            def exposed(dram_latency):
                mean_latency = (
                    miss_fraction * dram_latency
                    + (1.0 - miss_fraction) * l2_latency
                )
                return dependent * mean_latency / chain_concurrency

            latency_s = exposed(l2_time + memory_side / (1.0 - 0.0))
            first_pass_max = max(
                compute_s, salu_s, lds_s, l2_s, dram_s, latency_s
            )
            if first_pass_max > 0.0 and dram_bytes > 0.0:
                utilisation = min(
                    1.0, (dram_bytes / available_bw) / first_pass_max
                )
                bounded = min(
                    utilisation, 1.0 - 1.0 / MAX_QUEUE_STRETCH
                )
                loaded = l2_time + memory_side / (1.0 - bounded)
                latency_s = exposed(loaded)

        if ch.atomic_ops_per_item == 0.0 or ch.atomic_contention == 0.0:
            atomic_s = 0.0
        else:
            serialised = (
                items * ch.atomic_ops_per_item * ch.atomic_contention
            )
            concurrency_growth = 1.0 + ATOMIC_CONCURRENCY_SLOPE * (
                ch.atomic_contention * (active - 1) / 43.0
            )
            cycles = (
                serialised * ATOMIC_SERIAL_CYCLES * concurrency_growth
            )
            atomic_s = cycles / engine_hz

        barrier_s = (
            geometry.num_workgroups
            * ch.barriers_per_workgroup
            * BARRIER_CYCLES
            / engine_hz
            / side.resident_total[cu_index]
        )
        launch_s = us_to_seconds(ch.launch_overhead_us)

        local_peak = max(compute_s, salu_s, lds_s, latency_s)
        shared_peak = max(l2_s, dram_s)
        dominant = max(
            local_peak * side.quantisation[cu_index], shared_peak
        )
        overlap_sum = (
            ((((compute_s + salu_s) + lds_s) + l2_s) + dram_s)
            + latency_s
        )
        overlap_max = max(local_peak, shared_peak)
        spill = NON_OVERLAP_FRACTION * (overlap_sum - overlap_max)
        parallel_s = dominant + spill
        time_s = parallel_s + atomic_s + barrier_s + launch_s

        busy_s = (compute_s + salu_s) + lds_s
        return time_s, busy_s, dram_s, dram_bytes


def _busy_and_dram(terms) -> Tuple[np.ndarray, np.ndarray]:
    """Compute-busy time and DRAM time from a set of interval terms."""
    return (terms.compute_s + terms.salu_s) + terms.lds_s, terms.dram_s


def _full(value, shape) -> np.ndarray:
    """Broadcast *value* to *shape* as a fresh contiguous array."""
    return np.ascontiguousarray(
        np.broadcast_to(np.asarray(value, dtype=np.float64), shape)
    )
