"""GCN-class GPU performance-model substrate.

This subpackage replaces the paper's physical AMD FirePro W9100 testbed
(see DESIGN.md for the substitution record). It models a configurable
GPU — compute-unit count, engine clock, memory clock — with the
bottleneck physics needed to reproduce every scaling class the paper
catalogues.
"""

from repro.gpu.caches import CacheBehaviour, CacheModel
from repro.gpu.config import HAWAII_UARCH, HardwareConfig, Microarchitecture
from repro.gpu.counters import (
    CounterReport,
    collect_counters,
    counters_from_result,
)
from repro.gpu.dispatch import (
    BatchDispatch,
    DispatchPlan,
    plan_dispatch,
    plan_dispatch_batch,
)
from repro.gpu.dvfs import (
    CU_SETTINGS,
    ENGINE_DOMAIN,
    MEMORY_DOMAIN,
    FrequencyDomain,
    legal_cu_counts,
    snap_cu_count,
)
from repro.gpu.engine import (
    EngineCapabilities,
    EngineDescriptor,
    EngineRegistration,
    GridSpace,
    TimingEngine,
    engine_calls,
    engine_fingerprint,
    engine_names,
    get_engine,
    list_engines,
    register_engine,
    reset_engine_calls,
    unregister_engine,
)
from repro.gpu.event_sim import EventSimResult, EventSimulator
from repro.gpu.caches import BatchCacheBehaviour
from repro.gpu.interval_batch import (
    BatchIntervalModel,
    GridBreakdown,
    KernelGridResult,
    StudyGridResult,
)
from repro.gpu.interval_model import (
    IntervalBreakdown,
    IntervalModel,
    KernelRunResult,
)
from repro.gpu.memory import MemoryModel, MemorySystemState
from repro.gpu.occupancy import (
    BatchOccupancy,
    OccupancyResult,
    compute_occupancy,
    compute_occupancy_batch,
    kernel_occupancy,
)
from repro.gpu.products import (
    APU_LIKE,
    BASE_CONFIG,
    EMBEDDED,
    MIDRANGE,
    PRODUCTS,
    W9100_LIKE,
    product,
)
from repro.gpu.simulator import (
    GpuSimulator,
    engine_call_count,
    reset_engine_call_count,
    simulate,
)

__all__ = [
    "APU_LIKE",
    "BASE_CONFIG",
    "BatchCacheBehaviour",
    "BatchDispatch",
    "BatchIntervalModel",
    "BatchOccupancy",
    "CU_SETTINGS",
    "CacheBehaviour",
    "CacheModel",
    "CounterReport",
    "DispatchPlan",
    "EMBEDDED",
    "ENGINE_DOMAIN",
    "EngineCapabilities",
    "EngineDescriptor",
    "EngineRegistration",
    "EventSimResult",
    "EventSimulator",
    "FrequencyDomain",
    "GpuSimulator",
    "GridBreakdown",
    "GridSpace",
    "TimingEngine",
    "HAWAII_UARCH",
    "HardwareConfig",
    "IntervalBreakdown",
    "IntervalModel",
    "KernelGridResult",
    "KernelRunResult",
    "MEMORY_DOMAIN",
    "MIDRANGE",
    "MemoryModel",
    "MemorySystemState",
    "Microarchitecture",
    "OccupancyResult",
    "PRODUCTS",
    "StudyGridResult",
    "W9100_LIKE",
    "collect_counters",
    "compute_occupancy",
    "compute_occupancy_batch",
    "counters_from_result",
    "engine_call_count",
    "engine_calls",
    "engine_fingerprint",
    "engine_names",
    "get_engine",
    "kernel_occupancy",
    "legal_cu_counts",
    "list_engines",
    "plan_dispatch",
    "plan_dispatch_batch",
    "product",
    "register_engine",
    "reset_engine_call_count",
    "reset_engine_calls",
    "simulate",
    "snap_cu_count",
    "unregister_engine",
]
