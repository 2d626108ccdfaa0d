"""Batch interval engine: one kernel's full configuration grid at once.

The scalar :class:`~repro.gpu.interval_model.IntervalModel` evaluates
one ``(kernel, config)`` pair per call; sweeping the paper grid that
way costs 891 Python round trips per kernel, ~99% of which is
interpreter overhead re-deriving quantities that do not change between
configurations. This module exploits the structure of the model:

* **CU-axis hoisting.** Occupancy depends only on the kernel and the
  microarchitecture — one value per kernel. Dispatch, cache behaviour,
  and DRAM bandwidth efficiency depend only on the CU count — one value
  per CU setting (11 on the paper grid) instead of one per
  configuration (891). See DESIGN.md ("Engine architecture") for the
  full axis-dependence table; the scalar/batch equivalence tests pin it.
* **Clock-axis broadcasting.** Every remaining quantity is an
  elementwise arithmetic expression in ``engine_hz`` and ``memory_hz``,
  so the nine interval terms — including the two-pass loaded-latency
  refinement and the quantisation/non-overlap combination rule —
  broadcast over the ``(n_cu, n_eng, n_mem)`` grid as a handful of
  NumPy array operations.

Those expressions live in one place, :func:`interval_terms`, the only
vectorized form of the model. :meth:`BatchIntervalModel.simulate_grid`
(one kernel), :meth:`BatchIntervalModel.simulate_study` (a whole
kernel pack) and :meth:`repro.coschedule.CoScheduleModel.pair_surface`
(contended DRAM shares) differ only in the hoisted state they pass in.
It is checked against two scalar references that keep the model's
per-point form: :class:`~repro.gpu.interval_model.IntervalModel`
(``tests/gpu/test_interval_batch.py``, ``test_study_engine.py``) and
the co-schedule model's ``_point_terms``
(``tests/coschedule/test_model.py``). Its arithmetic keeps the scalar
operation order, so the paths agree bit for bit in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, NamedTuple

import numpy as np

from repro.gpu.caches import CacheModel
from repro.gpu.config import HardwareConfig, Microarchitecture
from repro.gpu.dispatch import plan_dispatch, plan_dispatch_batch
from repro.gpu.engine import (
    INTERVAL_BATCH_DESCRIPTOR,
    EngineDescriptor,
    GridSpace,
)
from repro.gpu.interval_model import (
    ATOMIC_CONCURRENCY_SLOPE,
    ATOMIC_SERIAL_CYCLES,
    BARRIER_CYCLES,
    FULL_ISSUE_WAVES,
    NON_OVERLAP_FRACTION,
    REQUEST_BYTES,
)
from repro.gpu.memory import MAX_QUEUE_STRETCH, MemoryModel
from repro.gpu.occupancy import (
    BatchOccupancy,
    OccupancyResult,
    compute_occupancy,
    compute_occupancy_batch,
)
from repro.kernels.kernel import Kernel
from repro.kernels.pack import CHARACTERISTIC_FIELDS, KernelPack
from repro.tiles import tile_bounds
from repro.units import ns_to_seconds, us_to_seconds

#: Lattice points per kernel-axis tile of
#: :meth:`BatchIntervalModel.simulate_study`: 18 kernels of the
#: 891-point paper grid, so each float64 temporary of
#: :func:`interval_terms` is under 128 KiB and stays in cache instead
#: of streaming ~1.9 MB for the whole 267-kernel pack (DESIGN.md, "The
#: kernel-axis tiling invariant", has the measurements).
STUDY_TILE_POINTS = 16_384

#: Names of the overlappable intervals, in the scalar model's
#: tie-breaking order (``IntervalBreakdown.bottleneck`` keeps the first
#: of equal maxima).
OVERLAPPABLE_INTERVALS = (
    "compute", "salu", "lds", "l2", "dram", "latency",
)


@dataclass(frozen=True)
class GridBreakdown:
    """Per-resource isolated times over the whole grid (seconds).

    Each array has the full ``(n_cu, n_eng, n_mem)`` shape, matching
    :meth:`ConfigurationSpace.shape`.
    """

    compute_s: np.ndarray
    salu_s: np.ndarray
    lds_s: np.ndarray
    l2_s: np.ndarray
    dram_s: np.ndarray
    latency_s: np.ndarray
    atomic_s: np.ndarray
    barrier_s: np.ndarray
    launch_s: np.ndarray

    def as_dict(self) -> Dict[str, np.ndarray]:
        """All interval grids keyed by name."""
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
    def bottleneck(self) -> np.ndarray:
        """Largest overlappable interval's name at every grid point."""
        stacked = np.stack(
            [getattr(self, f"{name}_s") for name in OVERLAPPABLE_INTERVALS]
        )
        winners = np.argmax(stacked, axis=0)
        return np.asarray(OVERLAPPABLE_INTERVALS, dtype=object)[winners]


class IntervalTerms(NamedTuple):
    """:func:`interval_terms` output: the nine interval terms (in
    :class:`GridBreakdown` field order), the total time and the DRAM
    traffic, each in its natural broadcast shape (not materialised)."""

    compute_s: np.ndarray
    salu_s: np.ndarray
    lds_s: np.ndarray
    l2_s: np.ndarray
    dram_s: np.ndarray
    latency_s: np.ndarray
    atomic_s: np.ndarray
    barrier_s: np.ndarray
    launch_s: np.ndarray
    time_s: np.ndarray
    dram_bytes: np.ndarray


@dataclass(frozen=True)
class KernelGridResult:
    """Outcome of simulating one kernel over a full configuration grid.

    The grid analogue of
    :class:`~repro.gpu.interval_model.KernelRunResult`: ``time_s`` and
    ``items_per_second`` are ``(n_cu, n_eng, n_mem)`` tensors indexed
    exactly like :meth:`ConfigurationSpace.config`. Quantities that the
    model hoists onto the CU axis (cache behaviour, DRAM traffic) are
    reported as ``(n_cu,)`` vectors — they provably cannot vary along
    the clock axes.
    """

    kernel_name: str
    time_s: np.ndarray
    items_per_second: np.ndarray
    breakdown: GridBreakdown
    occupancy: OccupancyResult
    l2_hit_rate: np.ndarray
    dram_bytes: np.ndarray
    global_size: int


@dataclass(frozen=True)
class StudyGridResult:
    """Outcome of simulating an entire kernel pack over one grid.

    The whole-study analogue of :class:`KernelGridResult`: ``time_s``
    and ``items_per_second`` are ``(n_kernels, n_cu, n_eng, n_mem)``
    tensors whose leading axis follows pack order; slicing
    ``items_per_second[i]`` yields exactly the per-kernel grid the
    batch path produces for ``pack.kernel(i)``. CU-axis quantities
    (L2 hit rate, DRAM traffic) are ``(n_kernels, n_cu)`` matrices;
    occupancy is per kernel only.
    """

    kernel_names: "tuple[str, ...]"
    time_s: np.ndarray
    items_per_second: np.ndarray
    occupancy: BatchOccupancy
    l2_hit_rate: np.ndarray
    dram_bytes: np.ndarray
    global_size: np.ndarray

    def __len__(self) -> int:
        return len(self.kernel_names)

    def perf_row(self, index: int) -> np.ndarray:
        """One kernel's ``(n_cu, n_eng, n_mem)`` throughput grid."""
        return self.items_per_second[index]


class BatchIntervalModel:
    """Vectorized analytical timing model over one microarchitecture.

    Produces the same numbers as
    :class:`~repro.gpu.interval_model.IntervalModel` (to ``rtol=1e-12``)
    at >10x the sweep throughput.
    """

    supports_point = False
    supports_grid = True
    supports_study = True

    def __init__(self) -> None:
        self._uarch_states: Dict[Microarchitecture, _UarchState] = {}

    def descriptor(self) -> EngineDescriptor:
        """Stable engine identity (shares the ``interval`` family)."""
        return INTERVAL_BATCH_DESCRIPTOR

    def simulate_grid(
        self, kernel: Kernel, space: GridSpace
    ) -> KernelGridResult:
        """Predict *kernel*'s execution time at every point of *space*."""
        uarch = space.uarch
        ch = kernel.characteristics
        geometry = kernel.geometry
        n_cu = len(space.cu_counts)
        shape = space.shape

        def cu_axis(values, dtype=np.float64) -> np.ndarray:
            return np.asarray(values, dtype=dtype).reshape(n_cu, 1, 1)

        # --- CU-axis hoist: 1 occupancy + n_cu dispatch/cache/DRAM
        # evaluations instead of one per configuration ----------------
        occupancy = compute_occupancy(geometry, kernel.resources, uarch)
        plans = [
            plan_dispatch(geometry, occupancy, cu) for cu in space.cu_counts
        ]
        state = self._state(uarch)
        behaviours = [
            state.cache_model.behaviour(
                kernel, p.active_cus, occupancy.workgroups_per_cu
            )
            for p in plans
        ]
        # bandwidth_efficiency only reads the kernel's access pattern
        # and the active-CU count, so the memoized per-uarch model works
        # for every configuration of this space.
        efficiency = [
            state.memory_model.bandwidth_efficiency(
                ch.coalescing_efficiency,
                ch.row_locality_sensitivity,
                p.active_cus,
            )
            for p in plans
        ]

        terms = interval_terms(
            uarch=uarch,
            ch=ch,
            items=float(geometry.global_size),
            total_waves=float(geometry.total_waves),
            num_workgroups=geometry.num_workgroups,
            waves_per_cu=occupancy.waves_per_cu,
            active_cus=cu_axis([p.active_cus for p in plans], np.int64),
            quantisation=cu_axis([p.quantisation_factor for p in plans]),
            resident_total=cu_axis(
                [p.resident_workgroups_total for p in plans], np.int64
            ),
            l1_hit_rate=behaviours[0].l1_hit_rate,  # kernel-only
            dram_fraction=cu_axis([b.dram_fraction for b in behaviours]),
            efficiency=cu_axis(efficiency),
            **grid_axes(space),
        )
        time_s = _materialise(terms.time_s, shape)
        return KernelGridResult(
            kernel_name=kernel.full_name,
            time_s=time_s,
            items_per_second=geometry.global_size / time_s,
            breakdown=GridBreakdown(
                *(_materialise(term, shape) for term in terms[:9])
            ),
            occupancy=occupancy,
            l2_hit_rate=np.asarray([b.l2_hit_rate for b in behaviours]),
            dram_bytes=terms.dram_bytes.reshape(n_cu),
            global_size=geometry.global_size,
        )

    def simulate_study(
        self, pack: KernelPack, space: GridSpace
    ) -> StudyGridResult:
        """Predict every packed kernel at every point of *space* at once.

        The kernel axis joins the broadcast: per-kernel quantities are
        ``(K, 1, 1, 1)`` columns, dispatch/cache/DRAM-efficiency state
        is a ``(K, C, 1, 1)`` matrix, and the clock terms keep their
        grid shapes, with no Python loop over kernels or CUs. The
        hoisted state is computed once for the whole pack; the clock
        lattice is then evaluated in kernel-axis tiles of about
        :data:`STUDY_TILE_POINTS` points, so that each of
        :func:`interval_terms`' full-lattice temporaries stays in cache
        (DESIGN.md, "The kernel-axis tiling invariant"). Every
        expression is elementwise over the kernel row, so slicing the
        result along the kernel axis reproduces :meth:`simulate_grid`
        for that kernel bit for bit, whatever the tiling
        (``tests/gpu/test_study_engine.py``). No breakdown is
        materialised: only ``time_s`` grows to the full 4-D shape.
        """
        uarch = space.uarch
        n_cu, n_eng, n_mem = space.shape
        n_kernels = len(pack)

        def col(values: np.ndarray) -> np.ndarray:
            """A per-kernel vector as a (K, 1, 1, 1) broadcast column."""
            return values.reshape(n_kernels, 1, 1, 1)

        def matrix(values: np.ndarray) -> np.ndarray:
            """A (K, C) kernel x CU matrix as a (K, C, 1, 1) block."""
            return values.reshape(n_kernels, n_cu, 1, 1)

        # --- Kernel/CU-axis hoist, vectorized over the pack -----------
        occupancy = compute_occupancy_batch(pack, uarch)
        dispatch = plan_dispatch_batch(
            pack.num_workgroups,
            occupancy.workgroups_per_cu,
            np.asarray(space.cu_counts, dtype=np.int64),
        )
        state = self._state(uarch)
        caches = state.cache_model.behaviour_batch(
            pack, dispatch.active_cus, occupancy.workgroups_per_cu
        )
        efficiency = state.memory_model.bandwidth_efficiency_batch(
            pack.ch("coalescing_efficiency"),
            pack.ch("row_locality_sensitivity"),
            dispatch.active_cus,
        )
        characteristics = {
            "global_bytes_per_item": col(pack.global_bytes_per_item),
            **{name: col(pack.ch(name)) for name in CHARACTERISTIC_FIELDS},
        }
        hoisted = {
            "items": col(pack.geometry["global_size"].astype(np.float64)),
            "total_waves": col(pack.total_waves.astype(np.float64)),
            "num_workgroups": col(pack.num_workgroups),
            "waves_per_cu": col(occupancy.waves_per_cu),
            "active_cus": matrix(dispatch.active_cus),
            "quantisation": matrix(dispatch.quantisation_factor),
            "resident_total": matrix(dispatch.resident_workgroups_total),
            "l1_hit_rate": col(caches.l1_hit_rate),
            "dram_fraction": matrix(caches.dram_fraction),
            "efficiency": matrix(efficiency),
        }
        axes = grid_axes(space)

        # --- Clock lattice, one kernel-axis tile at a time -------------
        time_s = np.empty((n_kernels, n_cu, n_eng, n_mem), dtype=np.float64)
        dram_bytes = np.empty((n_kernels, n_cu), dtype=np.float64)
        tile_rows = max(1, STUDY_TILE_POINTS // space.size)
        for lo, hi in tile_bounds(n_kernels, math.ceil(n_kernels / tile_rows)):
            terms = interval_terms(
                uarch=uarch,
                ch=SimpleNamespace(
                    **{name: v[lo:hi] for name, v in characteristics.items()}
                ),
                **{name: v[lo:hi] for name, v in hoisted.items()},
                **axes,
            )
            time_s[lo:hi] = terms.time_s
            dram_bytes[lo:hi] = terms.dram_bytes.reshape(hi - lo, n_cu)
        return StudyGridResult(
            kernel_names=pack.names,
            time_s=time_s,
            items_per_second=col(pack.geometry["global_size"]) / time_s,
            occupancy=occupancy,
            l2_hit_rate=caches.l2_hit_rate,
            dram_bytes=dram_bytes,
            global_size=pack.geometry["global_size"].copy(),
        )

    def _state(self, uarch: Microarchitecture) -> "_UarchState":
        # Keyed by value, not id(): chunked campaigns deserialise a
        # fresh (equal) Microarchitecture per chunk, and an id() key
        # would rebuild cache/memory state for every one of them.
        if uarch not in self._uarch_states:
            self._uarch_states[uarch] = _UarchState(
                cache_model=CacheModel(uarch),
                memory_model=MemoryModel(
                    HardwareConfig(
                        cu_count=1,
                        engine_mhz=1.0,
                        memory_mhz=1.0,
                        uarch=uarch,
                    )
                ),
            )
        return self._uarch_states[uarch]


@dataclass(frozen=True)
class _UarchState:
    """Per-microarchitecture derived state, built once and reused.

    ``bandwidth_efficiency`` reads no clock or CU field of its config,
    so one placeholder :class:`HardwareConfig` serves every grid point
    of every space on this uarch.
    """

    cache_model: CacheModel
    memory_model: MemoryModel


def grid_axes(space: GridSpace) -> Dict[str, np.ndarray]:
    """The device CU counts and both clocks (Hz) of *space*, shaped
    ``(C, 1, 1)``, ``(E, 1)`` and ``(M,)`` so they broadcast against
    both 3-D grid and 4-D study state (keyword arguments of
    :func:`interval_terms`)."""
    return {
        "cu_counts": np.asarray(
            space.cu_counts, dtype=np.int64
        ).reshape(-1, 1, 1),
        "engine_hz": (
            np.asarray(space.engine_mhz, dtype=np.float64) * 1e6
        ).reshape(-1, 1),
        "memory_hz": np.asarray(space.memory_mhz, dtype=np.float64) * 1e6,
    }


def interval_terms(
    *,
    uarch: Microarchitecture,
    ch,
    items,
    total_waves,
    num_workgroups,
    waves_per_cu,
    active_cus,
    quantisation,
    resident_total,
    l1_hit_rate,
    dram_fraction,
    efficiency,
    cu_counts,
    engine_hz,
    memory_hz,
    share=1.0,
) -> IntervalTerms:
    """The interval model over broadcastable hoisted state.

    The one vectorized form of
    :meth:`~repro.gpu.interval_model.IntervalModel.simulate`: every
    argument is a scalar or an array that broadcasts against the others
    (one kernel's ``(n_cu, 1, 1)`` CU-axis state for
    :meth:`BatchIntervalModel.simulate_grid`, a pack's ``(K, C, 1, 1)``
    state for :meth:`BatchIntervalModel.simulate_study`, a co-scheduled
    kernel's contended state for
    :meth:`~repro.coschedule.CoScheduleModel.pair_surface`). *ch*
    exposes the characteristic values as attributes — a
    :class:`~repro.kernels.characteristics.KernelCharacteristics` or
    ``(K, 1, 1, 1)`` pack columns. *share* scales the achieved DRAM
    bandwidth (a co-scheduled kernel's demand share; exactly 1.0 solo).

    Each expression keeps the scalar model's floating-point operation
    order. Its guards become exact-zero products (a zero numerator
    yields the same 0.0 the scalar early-outs return) or masked
    ``np.where`` branches, so no branch depends on which kernel a row
    holds. The latency and atomic blocks are skipped only when their
    inputs are zero everywhere, which is bit-identical to running them.
    """
    # --- Throughput intervals -----------------------------------------
    lane_ops = items * ch.valu_ops_per_item / ch.simd_efficiency
    issue_factor = np.minimum(1.0, waves_per_cu / FULL_ISSUE_WAVES)
    throughput = active_cus * uarch.lanes_per_cu * engine_hz * issue_factor
    compute_s = lane_ops / throughput

    salu_s = total_waves * ch.salu_ops_per_item / (active_cus * engine_hz)

    lds_bytes = items * ch.lds_bytes_per_item
    per_device = cu_counts * 128 * engine_hz
    active_share = per_device * active_cus / cu_counts
    lds_s = lds_bytes / active_share

    issued_bytes = items * ch.global_bytes_per_item
    l2_bytes = issued_bytes * (1.0 - l1_hit_rate)
    dram_bytes = issued_bytes * dram_fraction
    peak_l2 = uarch.l2_banks * 64 * engine_hz
    l2_s = l2_bytes / peak_l2

    # --- DRAM bandwidth, bounded by Little's law -----------------------
    bytes_per_cycle = uarch.memory_bus_bits / 8 * uarch.memory_data_rate
    # Host contention comes off the top in the same operand order as
    # HardwareConfig.peak_dram_bytes_per_sec (bit-compat).
    peak_dram = (
        bytes_per_cycle * memory_hz * (1.0 - uarch.host_bandwidth_fraction)
    )
    achieved_bw = peak_dram * efficiency
    available_bw = achieved_bw * share
    concurrency = active_cus * waves_per_cu * ch.memory_parallelism
    l2_time = uarch.l2_latency_cycles / engine_hz
    dram_time = uarch.dram_latency_cycles / memory_hz
    fixed_time = ns_to_seconds(uarch.dram_fixed_latency_ns)
    unloaded_latency = l2_time + dram_time + fixed_time
    little_bw = concurrency * REQUEST_BYTES / unloaded_latency
    effective_bw = np.minimum(available_bw, little_bw)
    dram_positive = dram_bytes > 0.0
    dram_s = np.where(dram_positive, dram_bytes / effective_bw, 0.0)

    # --- Exposed dependence-chain latency (two-pass for loading) -------
    # Queueing applies only to the memory-side latency terms; the
    # engine-domain L2 pipeline is unaffected (see MemoryModel).
    if not np.count_nonzero(ch.dependent_access_fraction):
        latency_s = np.float64(0.0)
    else:
        memory_side = dram_time + fixed_time
        requests = (l2_bytes + 0.0) / REQUEST_BYTES
        dependent = requests * ch.dependent_access_fraction
        with np.errstate(divide="ignore", invalid="ignore"):
            miss_fraction = np.where(
                l2_bytes > 0.0, dram_bytes / l2_bytes, 0.0
            )
        chain_concurrency = np.maximum(1.0, active_cus * waves_per_cu)

        def exposed(dram_latency):
            mean_latency = (
                miss_fraction * dram_latency
                + (1.0 - miss_fraction) * l2_time
            )
            return dependent * mean_latency / chain_concurrency

        # Pass 1: unloaded queues (utilisation 0 -> no stretch).
        latency_s = exposed(l2_time + memory_side / (1.0 - 0.0))

        first_pass_max = _chain_max(
            compute_s, salu_s, lds_s, l2_s, dram_s, latency_s
        )
        refine = (first_pass_max > 0.0) & dram_positive
        if np.any(refine):
            with np.errstate(divide="ignore", invalid="ignore"):
                utilisation = np.minimum(
                    1.0, (dram_bytes / available_bw) / first_pass_max
                )
            utilisation = np.where(refine, utilisation, 0.0)
            bounded = np.minimum(utilisation, 1.0 - 1.0 / MAX_QUEUE_STRETCH)
            loaded = l2_time + memory_side / (1.0 - bounded)
            latency_s = np.where(refine, exposed(loaded), latency_s)

    # --- Serial additions ----------------------------------------------
    serialised = items * ch.atomic_ops_per_item * ch.atomic_contention
    if not np.count_nonzero(serialised):
        atomic_s = np.float64(0.0)
    else:
        concurrency_growth = 1.0 + ATOMIC_CONCURRENCY_SLOPE * (
            ch.atomic_contention * (active_cus - 1) / 43.0
        )
        cycles = serialised * ATOMIC_SERIAL_CYCLES * concurrency_growth
        atomic_s = cycles / engine_hz

    barrier_s = (
        num_workgroups
        * ch.barriers_per_workgroup
        * BARRIER_CYCLES
        / engine_hz
        / resident_total
    )
    launch_s = us_to_seconds(ch.launch_overhead_us)

    # --- Combination (quantised local peak vs shared peak) -------------
    local_peak = _chain_max(compute_s, salu_s, lds_s, latency_s)
    shared_peak = np.maximum(l2_s, dram_s)
    dominant = np.maximum(local_peak * quantisation, shared_peak)
    overlap_sum = (
        ((((compute_s + salu_s) + lds_s) + l2_s) + dram_s) + latency_s
    )
    overlap_max = np.maximum(local_peak, shared_peak)
    spill = NON_OVERLAP_FRACTION * (overlap_sum - overlap_max)
    parallel_s = dominant + spill
    time_s = parallel_s + atomic_s + barrier_s + launch_s

    return IntervalTerms(
        compute_s, salu_s, lds_s, l2_s, dram_s, latency_s, atomic_s,
        barrier_s, launch_s, time_s, dram_bytes,
    )


def _chain_max(first, *rest):
    """Elementwise maximum of several broadcastable arrays."""
    result = first
    for term in rest:
        result = np.maximum(result, term)
    return result


def _materialise(value, shape) -> np.ndarray:
    """Broadcast *value* to *shape* as a fresh contiguous array."""
    return np.ascontiguousarray(
        np.broadcast_to(np.asarray(value, dtype=np.float64), shape)
    )
