"""Structure-of-arrays packing of many kernels for whole-study batching.

The study's unit of work is not one kernel but the *entire catalog*:
267 kernels, each carrying an 18-field behavioural vector plus launch
geometry and per-wavefront resource usage. Evaluating them one
``Kernel`` object at a time leaves a 267-iteration Python loop around
the vectorized grid engine — the last interpreter-bound axis of the
sweep. :class:`KernelPack` removes it by packing every per-kernel
quantity into one contiguous ``float64``/``int64`` NumPy array per
field, so the interval model can broadcast over a
``(kernel, cu, engine, memory)`` 4-D lattice in a handful of array
operations (see ``repro/gpu/interval_batch.py``,
``BatchIntervalModel.simulate_study``).

Packing is lossless: :meth:`KernelPack.unpack` reconstructs the exact
``Kernel`` objects (property-tested in ``tests/kernels/test_pack.py``),
so the pack is a pure layout transformation, never a approximation.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.kernels.characteristics import KernelCharacteristics
from repro.kernels.kernel import Kernel, LaunchGeometry, ResourceUsage

#: Characteristics fields packed as float64 arrays, in declaration
#: order (all 18 fields of :class:`KernelCharacteristics`).
CHARACTERISTIC_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(KernelCharacteristics)
)

#: Integer launch-geometry quantities packed as int64 arrays.
GEOMETRY_FIELDS: Tuple[str, ...] = ("global_size", "workgroup_size")

#: Integer per-wavefront resource quantities packed as int64 arrays.
RESOURCE_FIELDS: Tuple[str, ...] = (
    "vgprs", "sgprs", "lds_bytes_per_workgroup",
)


@dataclass(frozen=True)
class KernelPack:
    """N kernels in structure-of-arrays form.

    Every array has length ``len(self)`` and is contiguous;
    characteristics are ``float64``, geometry and resources ``int64``.
    Derived geometry (workgroup counts, waves) is precomputed once at
    pack time so the study engine never touches Python-level
    properties inside its broadcasts.
    """

    #: ``suite/program.kernel`` identifiers, in pack order.
    names: Tuple[str, ...]
    #: Identity triples needed to reconstruct each :class:`Kernel`.
    programs: Tuple[str, ...]
    kernel_names: Tuple[str, ...]
    suites: Tuple[str, ...]
    #: Field name -> contiguous array (see the *_FIELDS constants).
    characteristics: Dict[str, np.ndarray]
    geometry: Dict[str, np.ndarray]
    resources: Dict[str, np.ndarray]
    #: Derived launch-geometry arrays (int64): workgroups launched,
    #: waves per workgroup, waves in the whole launch.
    num_workgroups: np.ndarray
    waves_per_workgroup: np.ndarray
    total_waves: np.ndarray

    def __len__(self) -> int:
        return len(self.names)

    @classmethod
    def from_kernels(cls, kernels: Sequence[Kernel]) -> "KernelPack":
        """Pack *kernels* (non-empty, unique full names) into arrays."""
        if not kernels:
            raise WorkloadError("cannot pack an empty kernel list")
        names = tuple(k.full_name for k in kernels)
        if len(set(names)) != len(names):
            raise WorkloadError(
                "kernel list contains duplicate full names"
            )
        characteristics = {
            field: np.ascontiguousarray(
                [getattr(k.characteristics, field) for k in kernels],
                dtype=np.float64,
            )
            for field in CHARACTERISTIC_FIELDS
        }
        geometry = {
            field: np.ascontiguousarray(
                [getattr(k.geometry, field) for k in kernels],
                dtype=np.int64,
            )
            for field in GEOMETRY_FIELDS
        }
        resources = {
            field: np.ascontiguousarray(
                [getattr(k.resources, field) for k in kernels],
                dtype=np.int64,
            )
            for field in RESOURCE_FIELDS
        }
        return cls(
            names=names,
            programs=tuple(k.program for k in kernels),
            kernel_names=tuple(k.name for k in kernels),
            suites=tuple(k.suite for k in kernels),
            characteristics=characteristics,
            geometry=geometry,
            resources=resources,
            num_workgroups=np.ascontiguousarray(
                [k.geometry.num_workgroups for k in kernels],
                dtype=np.int64,
            ),
            waves_per_workgroup=np.ascontiguousarray(
                [k.geometry.waves_per_workgroup for k in kernels],
                dtype=np.int64,
            ),
            total_waves=np.ascontiguousarray(
                [k.geometry.total_waves for k in kernels],
                dtype=np.int64,
            ),
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def ch(self, field: str) -> np.ndarray:
        """One characteristics array by field name (float64)."""
        return self.characteristics[field]

    @property
    def global_bytes_per_item(self) -> np.ndarray:
        """Loads + stores per work-item, mirroring the scalar property
        (same addition order, so the study path stays bit-exact)."""
        return (
            self.characteristics["global_load_bytes_per_item"]
            + self.characteristics["global_store_bytes_per_item"]
        )

    # ------------------------------------------------------------------
    # Round trip
    # ------------------------------------------------------------------

    def kernel(self, index: int) -> Kernel:
        """Reconstruct the kernel at *index* (exact round trip)."""
        return Kernel(
            program=self.programs[index],
            name=self.kernel_names[index],
            suite=self.suites[index],
            characteristics=KernelCharacteristics(
                **{
                    field: float(self.characteristics[field][index])
                    for field in CHARACTERISTIC_FIELDS
                }
            ),
            geometry=LaunchGeometry(
                **{
                    field: int(self.geometry[field][index])
                    for field in GEOMETRY_FIELDS
                }
            ),
            resources=ResourceUsage(
                **{
                    field: int(self.resources[field][index])
                    for field in RESOURCE_FIELDS
                }
            ),
        )

    def unpack(self) -> List[Kernel]:
        """Reconstruct every packed kernel, in pack order."""
        return [self.kernel(i) for i in range(len(self))]


def pack_kernels(kernels: Sequence[Kernel]) -> KernelPack:
    """Module-level convenience wrapper around
    :meth:`KernelPack.from_kernels`."""
    return KernelPack.from_kernels(kernels)


# ----------------------------------------------------------------------
# Pack memoization
# ----------------------------------------------------------------------

#: Catalogs worth caching packs for. The full study catalog plus a few
#: alternates (per-suite subsets, ablations) fit comfortably; anything
#: churning through more distinct catalogs than this is not a study
#: loop and should not hold packs alive.
_PACK_CACHE_CAPACITY = 8

#: Keyed by the ``id`` of every kernel, in order. Each entry holds its
#: kernels, so no id in a live key can be reused by another object.
_pack_cache: "OrderedDict[Tuple[int, ...], Tuple[tuple, KernelPack]]" = OrderedDict()
_pack_cache_lock = threading.Lock()


def memoized_pack(kernels: Sequence[Kernel]) -> KernelPack:
    """Pack *kernels*, reusing a cached pack for a known catalog.

    Keyed by the identity of the (frozen) kernel objects: the registry
    returns the same instances on every call, so a repeated study over
    the catalog costs a tuple of ids, while equal-content but distinct
    kernels are packed afresh. The returned pack is shared — safe
    because :class:`KernelPack` is frozen and the engines treat its
    arrays as read-only. A small LRU bounds memory across catalogs.
    """
    kernels = tuple(kernels)
    key = tuple(map(id, kernels))
    with _pack_cache_lock:
        cached = _pack_cache.get(key)
        if cached is not None:
            _pack_cache.move_to_end(key)
            return cached[1]
    pack = KernelPack.from_kernels(kernels)
    with _pack_cache_lock:
        _pack_cache[key] = (kernels, pack)
        _pack_cache.move_to_end(key)
        while len(_pack_cache) > _PACK_CACHE_CAPACITY:
            _pack_cache.popitem(last=False)
    return pack


def clear_pack_cache() -> None:
    """Drop every memoized pack (test isolation hook)."""
    with _pack_cache_lock:
        _pack_cache.clear()
