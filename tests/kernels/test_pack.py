"""KernelPack: lossless structure-of-arrays packing.

The whole-study engine reads only the pack, so the pack must be a pure
layout transformation: every array mirrors the scalar accessors
exactly, and unpacking reconstructs the original ``Kernel`` objects
field for field.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.kernels import (
    Kernel,
    KernelCharacteristics,
    KernelPack,
    LaunchGeometry,
    ResourceUsage,
    pack_kernels,
)
import repro.kernels.pack as pack_module
from repro.gpu import GpuSimulator
from repro.kernels.pack import (
    CHARACTERISTIC_FIELDS,
    GEOMETRY_FIELDS,
    RESOURCE_FIELDS,
    clear_pack_cache,
    memoized_pack,
)
from repro.suites import all_kernels
from repro.sweep import reduced_space

characteristics = st.builds(
    KernelCharacteristics,
    valu_ops_per_item=st.floats(1.0, 10_000.0),
    global_load_bytes_per_item=st.floats(0.0, 512.0),
    global_store_bytes_per_item=st.floats(0.0, 128.0),
    lds_bytes_per_item=st.floats(0.0, 256.0),
    l1_reuse=st.floats(0.0, 1.0),
    l2_reuse=st.floats(0.0, 1.0),
    footprint_bytes=st.floats(1024.0, 2.0**33),
    shared_footprint=st.floats(0.0, 1.0),
    coalescing_efficiency=st.floats(0.05, 1.0),
    row_locality_sensitivity=st.floats(0.0, 1.0),
    simd_efficiency=st.floats(0.05, 1.0),
    memory_parallelism=st.floats(1.0, 16.0),
    dependent_access_fraction=st.floats(0.0, 1.0),
    atomic_ops_per_item=st.floats(0.0, 4.0),
    atomic_contention=st.floats(0.0, 1.0),
    barriers_per_workgroup=st.floats(0.0, 32.0),
    launch_overhead_us=st.floats(0.0, 100.0),
)

geometries = st.builds(
    LaunchGeometry,
    global_size=st.integers(1, 1 << 24),
    workgroup_size=st.integers(1, 1024),
)

resources = st.builds(
    ResourceUsage,
    vgprs=st.integers(1, 256),
    sgprs=st.integers(1, 102),
    lds_bytes_per_workgroup=st.integers(0, 64 * 1024),
)

kernel_lists = st.lists(
    st.builds(
        Kernel,
        program=st.just("prop"),
        name=st.just("k"),
        suite=st.just("hyp"),
        characteristics=characteristics,
        geometry=geometries,
        resources=resources,
    ),
    min_size=1,
    max_size=8,
).map(
    lambda ks: [
        dataclasses.replace(k, name=f"k{i}") for i, k in enumerate(ks)
    ]
)


class TestCatalogRoundTrip:
    def test_unpack_reconstructs_every_kernel(self):
        kernels = all_kernels()
        pack = KernelPack.from_kernels(kernels)
        assert pack.unpack() == list(kernels)

    def test_names_follow_pack_order(self):
        kernels = all_kernels("rodinia")
        pack = pack_kernels(kernels)
        assert pack.names == tuple(k.full_name for k in kernels)
        assert len(pack) == len(kernels)

    def test_single_kernel_access(self):
        kernels = all_kernels("shoc")
        pack = pack_kernels(kernels)
        for i in (0, len(kernels) // 2, len(kernels) - 1):
            assert pack.kernel(i) == kernels[i]


class TestArrayLayout:
    @pytest.fixture(scope="class")
    def pack(self):
        return pack_kernels(all_kernels())

    def test_characteristics_float64_contiguous(self, pack):
        for field in CHARACTERISTIC_FIELDS:
            arr = pack.ch(field)
            assert arr.dtype == np.float64
            assert arr.flags["C_CONTIGUOUS"]
            assert arr.shape == (len(pack),)

    def test_geometry_and_resources_int64(self, pack):
        for field in GEOMETRY_FIELDS:
            assert pack.geometry[field].dtype == np.int64
        for field in RESOURCE_FIELDS:
            assert pack.resources[field].dtype == np.int64

    def test_characteristics_match_scalar_accessors(self, pack):
        kernels = all_kernels()
        for field in CHARACTERISTIC_FIELDS:
            expected = [getattr(k.characteristics, field) for k in kernels]
            np.testing.assert_array_equal(pack.ch(field), expected)

    def test_derived_geometry_matches_properties(self, pack):
        kernels = all_kernels()
        np.testing.assert_array_equal(
            pack.num_workgroups,
            [k.geometry.num_workgroups for k in kernels],
        )
        np.testing.assert_array_equal(
            pack.waves_per_workgroup,
            [k.geometry.waves_per_workgroup for k in kernels],
        )
        np.testing.assert_array_equal(
            pack.total_waves,
            [k.geometry.total_waves for k in kernels],
        )

    def test_global_bytes_per_item_matches_scalar_sum(self, pack):
        kernels = all_kernels()
        expected = [
            k.characteristics.global_load_bytes_per_item
            + k.characteristics.global_store_bytes_per_item
            for k in kernels
        ]
        np.testing.assert_array_equal(
            pack.global_bytes_per_item, expected
        )


class TestValidation:
    def test_empty_list_rejected(self):
        with pytest.raises(WorkloadError):
            KernelPack.from_kernels([])

    def test_duplicate_names_rejected(self):
        kernel = all_kernels("rodinia")[0]
        with pytest.raises(WorkloadError):
            KernelPack.from_kernels([kernel, kernel])


class TestPackProperties:
    @settings(max_examples=50, deadline=None)
    @given(kernel_lists)
    def test_round_trip_is_identity(self, kernels):
        pack = KernelPack.from_kernels(kernels)
        assert pack.unpack() == kernels

    @settings(max_examples=50, deadline=None)
    @given(kernel_lists)
    def test_derived_waves_consistent(self, kernels):
        pack = KernelPack.from_kernels(kernels)
        np.testing.assert_array_equal(
            pack.total_waves,
            pack.num_workgroups * pack.waves_per_workgroup,
        )


class TestMemoizedPack:
    def test_same_catalog_returns_same_pack(self):
        clear_pack_cache()
        kernels = all_kernels("rodinia")
        assert memoized_pack(kernels) is memoized_pack(list(kernels))

    def test_pack_built_once_across_repeated_studies(self, monkeypatch):
        clear_pack_cache()
        constructions = []
        original = KernelPack.from_kernels.__func__

        def counting(cls, kernels):
            constructions.append(len(kernels))
            return original(cls, kernels)

        monkeypatch.setattr(
            pack_module.KernelPack,
            "from_kernels",
            classmethod(counting),
        )
        kernels = all_kernels("parboil")
        space = reduced_space(2, 2, 2)
        sim = GpuSimulator()
        for _ in range(3):
            sim.simulate_study(kernels, space)
        assert constructions == [len(kernels)]
        clear_pack_cache()

    def test_identity_key_distinguishes_catalogs(self):
        clear_pack_cache()
        rodinia = all_kernels("rodinia")
        parboil = all_kernels("parboil")
        assert memoized_pack(rodinia) is not memoized_pack(parboil)
        assert_packs_equal(memoized_pack(rodinia), rodinia)
        assert_packs_equal(memoized_pack(parboil), parboil)
        assert_packs_equal(memoized_pack(rodinia[::-1]), rodinia[::-1])
        # Equal content in distinct objects: never a stale pack.
        copies = [Kernel.from_dict(k.to_dict()) for k in rodinia]
        assert copies == rodinia
        assert all(c is not k for c, k in zip(copies, rodinia))
        assert_packs_equal(memoized_pack(copies), rodinia)
        clear_pack_cache()


def assert_packs_equal(pack, kernels):
    """*pack* holds exactly what packing *kernels* afresh would."""
    fresh = KernelPack.from_kernels(kernels)
    assert pack.names == fresh.names
    assert pack.unpack() == list(kernels)
    for field in ("characteristics", "geometry", "resources"):
        mine, theirs = getattr(pack, field), getattr(fresh, field)
        assert mine.keys() == theirs.keys()
        for name in mine:
            np.testing.assert_array_equal(mine[name], theirs[name])
