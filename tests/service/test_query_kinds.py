"""Every query kind through the generic wire codec and the shared cache.

The codec in :mod:`repro.service.transport` encodes a query from its
dataclass fields, so the strategies here are built the same way: one
strategy per field type. A query kind added later with a field type
nobody taught the codec fails here first. Nothing in this module
starts a process.
"""

import asyncio
import dataclasses
import struct
import typing

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ReproError
from repro.gpu.config import HardwareConfig
from repro.gpu.families import APU_SPACE
from repro.gpu.simulator import GpuSimulator
from repro.gpu.uarch import list_families
from repro.kernels.kernel import Kernel
from repro.service import transport
from repro.service.batcher import (
    QUERY_KINDS,
    QUERY_TYPES,
    EnergyGridQuery,
    EnergyGridResult,
    GridResult,
    MicroBatcher,
    PairGridResult,
    PointResult,
)
from repro.suites import kernel_by_name
from repro.sweep.cache import SweepCache
from repro.sweep.space import PAPER_SPACE, ConfigurationSpace, reduced_space
from tests.test_properties import (
    characteristics,
    configs,
    geometries,
    resources,
)

CATALOG = "rodinia/bfs.kernel1"

#: Inline kernels under a fresh name, or under a catalog name with
#: different characteristics (which must travel by value).
inline_kernels = st.builds(
    Kernel,
    program=st.sampled_from(["prop", "bfs"]),
    name=st.sampled_from(["k", "kernel1"]),
    suite=st.sampled_from(["hyp", "rodinia"]),
    characteristics=characteristics,
    geometry=geometries,
    resources=resources,
)

kernels = st.one_of(st.just(kernel_by_name(CATALOG)), inline_kernels)

spaces = st.sampled_from(
    [PAPER_SPACE, reduced_space(3, 3, 3), reduced_space(2, 4, 1), APU_SPACE]
)

#: Hardware points on every registered family: the uarch must survive
#: the wire, or a fleet would answer a non-default point on hawaii.
family_configs = st.builds(
    dataclasses.replace,
    configs,
    uarch=st.sampled_from([family.uarch for family in list_families()]),
)

FIELD_STRATEGIES = {
    Kernel: kernels,
    ConfigurationSpace: spaces,
    HardwareConfig: family_configs,
}


def _field_strategy(hint):
    inner = [t for t in typing.get_args(hint) if t is not type(None)]
    if inner:  # Optional[T]: the None form is part of the contract
        return st.one_of(st.none(), FIELD_STRATEGIES[inner[0]])
    return FIELD_STRATEGIES[hint]


def _query_strategy(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{
        field.name: _field_strategy(hints[field.name])
        for field in dataclasses.fields(cls)
    })


queries = st.one_of(*(_query_strategy(cls) for cls in QUERY_TYPES))

names = st.text(min_size=1, max_size=24)
sizes = st.integers(1, 1 << 40)


def _surfaces(shape):
    return hnp.arrays(np.float64, shape)


def _grid_shapes():
    return hnp.array_shapes(min_dims=3, max_dims=3, max_side=5)


def _energy_results(shape):
    return st.builds(
        EnergyGridResult,
        kernel_name=names,
        time_s=_surfaces(shape),
        power_w=_surfaces(shape),
        energy_j=_surfaces(shape),
        global_size=sizes,
        from_cache=st.booleans(),
    )


def _pair_results(shape):
    def optional_surface():
        return st.one_of(st.none(), _surfaces(shape))

    return st.builds(
        PairGridResult,
        kernel_a=names,
        kernel_b=st.one_of(st.none(), names),
        time_a=_surfaces(shape),
        time_b=optional_surface(),
        solo_time_a=_surfaces(shape),
        solo_time_b=optional_surface(),
        makespan_s=_surfaces(shape),
        power_w=_surfaces(shape),
        energy_j=_surfaces(shape),
        global_size_a=sizes,
        global_size_b=st.one_of(st.none(), sizes),
    )


results = st.one_of(
    st.builds(
        PointResult,
        kernel_name=names,
        time_s=st.floats(),
        items_per_second=st.floats(),
    ),
    _grid_shapes().flatmap(lambda shape: st.builds(
        GridResult,
        kernel_name=names,
        items_per_second=_surfaces(shape),
        global_size=sizes,
        from_cache=st.booleans(),
    )),
    _grid_shapes().flatmap(_energy_results),
    _grid_shapes().flatmap(_pair_results),
)


def _assert_bit_equal(decoded, original):
    assert type(decoded) is type(original)
    for field in dataclasses.fields(original):
        got = getattr(decoded, field.name)
        want = getattr(original, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), field.name
        elif isinstance(want, float):
            assert struct.pack("<d", got) == struct.pack("<d", want)
        else:
            assert got == want, field.name


class TestGenericCodec:
    def test_every_kind_has_a_distinct_wire_label(self):
        assert sorted(QUERY_KINDS) == sorted(c.shape for c in QUERY_TYPES)
        assert set(QUERY_KINDS.values()) == set(QUERY_TYPES)

    @given(query=queries)
    @settings(max_examples=150, deadline=None)
    def test_query_round_trips(self, query):
        payload = transport.encode_query(query)
        assert payload[0] == query.shape
        assert transport.decode_query(payload) == query

    @given(kernel=inline_kernels)
    @settings(max_examples=50, deadline=None)
    def test_kernel_travels_by_name_only_when_it_is_the_catalog_entry(
        self, kernel
    ):
        ref = transport.encode_kernel(kernel)
        try:
            catalog = kernel_by_name(kernel.full_name)
        except ReproError:
            catalog = None
        assert isinstance(ref, str) == (catalog == kernel)

    @given(result=results)
    @settings(max_examples=150, deadline=None)
    def test_result_round_trips_bit_exact(self, result):
        payload = transport.encode_result(result)
        try:
            _assert_bit_equal(transport.decode_result(payload), result)
        finally:
            transport.release_result(payload)


class TestEnergyCacheEntries:
    def test_cache_clear_removes_energy_surfaces(self, tmp_path):
        """``gpuscale cache clear`` drops energy entries too, so the
        next query recomputes instead of answering from a stale file."""
        cache = SweepCache(tmp_path / "cache")
        query = EnergyGridQuery(
            kernel_by_name(CATALOG), reduced_space(3, 3, 3)
        )

        async def ask():
            batcher = MicroBatcher(GpuSimulator("interval"), cache=cache)
            await batcher.start()
            try:
                return await batcher.submit(query)
            finally:
                await batcher.stop()

        assert not asyncio.run(ask()).from_cache
        entries = cache.entries()
        assert [p.name.split("_")[0] for p in entries] == ["energy"]
        assert cache.clear() == 1
        assert not entries[0].exists()
        assert not asyncio.run(ask()).from_cache

    def test_corrupt_energy_entry_is_a_miss_and_is_dropped(
        self, tmp_path
    ):
        cache = SweepCache(tmp_path / "cache")
        fingerprint = "f" * 64
        cache.path_for(fingerprint, "energy").parent.mkdir(parents=True)
        cache.path_for(fingerprint, "energy").write_bytes(b"not a zip")
        assert cache.load_energy(fingerprint) is None
        assert not cache.path_for(fingerprint, "energy").exists()
