"""Framed IPC between the fleet router and its engine workers.

The router and each worker share one ``socket.socketpair`` wrapped in
asyncio streams. Everything on the wire is a *frame*: a 4-byte
big-endian length prefix followed by a pickled tuple whose first
element names the frame kind. Pickle is safe here — both ends are the
same trusted codebase, the socket is inherited (never bound to a
port), and the payloads are this module's own tuples.

Three translation layers live here so ``router.py`` and ``worker.py``
stay symmetric:

* **queries** travel as compact references, not full objects: a
  catalog kernel is its ``suite/program.kernel`` name (the worker
  re-resolves it from its own catalog index), an inline kernel is its
  ``to_dict()`` payload, and the paper grid is the literal string
  ``"paper"``. At 5k req/s re-pickling full :class:`Kernel` objects
  per query is measurable; names are not.
* **grid results** return over the PR 3 ``multiprocessing.
  shared_memory`` path: the worker copies the surface into a fresh
  segment and ships only its name + shape, the router copies it out
  and unlinks. Both sides detach the segment from their resource
  tracker (bpo-39959, same workaround as :mod:`repro.sweep.parallel`)
  so neither emits spurious leak warnings nor unlinks early. If
  shared memory is unavailable the array falls back to riding the
  frame itself — bit-identical either way.
* **errors** cross as ``(code, message, extra)`` triples and are
  rebuilt into the same exception types the in-process
  :class:`~repro.service.batcher.MicroBatcher` raises, so the server's
  status mapping is oblivious to which mode answered.
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from multiprocessing import shared_memory
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import (
    ConfigurationError,
    ReproError,
    SimulationError,
    WorkloadError,
)
from repro.service.batcher import (
    DeadlineExceededError,
    EnergyGridQuery,
    EnergyGridResult,
    GridQuery,
    GridResult,
    OverloadError,
    PairGridQuery,
    PairGridResult,
    PointQuery,
    PointResult,
    Query,
    ServiceClosedError,
    ServiceTimeoutError,
)
from repro.sweep.space import PAPER_SPACE, ConfigurationSpace
from repro.tiles import untrack_segment

#: Frames larger than this are refused (a grid surface rides shared
#: memory, so legitimate frames stay small).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The length prefix is parsed *signed* on purpose: a corrupted
#: high bit then reads as an impossible negative length and is
#: refused outright, instead of masquerading as a multi-gigabyte
#: announcement.
_LENGTH = struct.Struct(">i")


class TransportError(ReproError):
    """A malformed or oversized frame on a router-worker socket."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def encode_frame(frame: Tuple[Any, ...]) -> bytes:
    """Serialise one frame (length prefix + pickle) to raw bytes."""
    blob = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame of {len(blob)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return _LENGTH.pack(len(blob)) + blob


async def read_frame(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[Any, ...]]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise TransportError(
            "peer closed mid-frame (truncated length prefix)"
        ) from exc
    (length,) = _LENGTH.unpack(header)
    if length <= 0:
        raise TransportError(
            f"frame announces a non-positive length ({length}); "
            "corrupt length prefix"
        )
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame announces {length} bytes, cap is {MAX_FRAME_BYTES}"
        )
    try:
        blob = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise TransportError(
            "peer closed mid-frame (truncated body)"
        ) from exc
    try:
        return pickle.loads(blob)
    except Exception as exc:
        # A flipped byte anywhere in the body surfaces here; after a
        # corrupt frame the stream can no longer be trusted, so the
        # caller treats this like peer death (restart + resubmit).
        raise TransportError(
            f"corrupt frame body ({type(exc).__name__}: {exc})"
        ) from exc


def send_frame(
    writer: asyncio.StreamWriter, frame: Tuple[Any, ...]
) -> None:
    """Queue one frame on *writer* (single ``write`` call, so frames
    from concurrent tasks never interleave)."""
    writer.write(encode_frame(frame))


# ----------------------------------------------------------------------
# Query encoding (router -> worker)
# ----------------------------------------------------------------------


def _catalog_kernel(full_name: str):
    from repro.suites import kernel_by_name

    try:
        return kernel_by_name(full_name)
    except ReproError:
        return None


def encode_kernel(kernel) -> Union[str, dict]:
    """A kernel reference: catalog name when safe, else a full dict.

    The name shortcut is taken only when the catalog entry under that
    name *equals* the request's kernel — an inline kernel that reuses
    a catalog name with different characteristics must travel by
    value or the worker would silently answer for the wrong kernel.
    """
    catalog = _catalog_kernel(kernel.full_name)
    if catalog is not None and (catalog is kernel or catalog == kernel):
        return kernel.full_name
    return kernel.to_dict()


def decode_kernel(ref: Union[str, dict]):
    from repro.kernels.kernel import Kernel
    from repro.suites import kernel_by_name

    if isinstance(ref, str):
        return kernel_by_name(ref)
    return Kernel.from_dict(ref)


def encode_space(space: ConfigurationSpace) -> Union[str, dict]:
    if space is PAPER_SPACE or space == PAPER_SPACE:
        return "paper"
    return space.to_dict()


def decode_space(ref: Union[str, dict]) -> ConfigurationSpace:
    if ref == "paper":
        return PAPER_SPACE
    return ConfigurationSpace.from_dict(ref)


def encode_query(query: Query) -> Tuple[Any, ...]:
    """Compact wire form of one query."""
    if isinstance(query, PointQuery):
        config = query.config
        return (
            "point",
            encode_kernel(query.kernel),
            (config.cu_count, config.engine_mhz, config.memory_mhz),
        )
    if isinstance(query, GridQuery):
        return ("grid", encode_kernel(query.kernel), encode_space(query.space))
    if isinstance(query, EnergyGridQuery):
        return (
            "energygrid",
            encode_kernel(query.kernel),
            encode_space(query.space),
        )
    if isinstance(query, PairGridQuery):
        return (
            "pairgrid",
            encode_kernel(query.kernel_a),
            None if query.kernel_b is None
            else encode_kernel(query.kernel_b),
            encode_space(query.space),
        )
    raise TransportError(f"not a query: {query!r}")


def decode_query(payload: Tuple[Any, ...]) -> Query:
    from repro.gpu.config import HardwareConfig

    kind = payload[0]
    if kind == "point":
        _, kernel_ref, (cu, eng, mem) = payload
        return PointQuery(
            kernel=decode_kernel(kernel_ref),
            config=HardwareConfig(
                cu_count=int(cu), engine_mhz=float(eng),
                memory_mhz=float(mem),
            ),
        )
    if kind == "grid":
        _, kernel_ref, space_ref = payload
        return GridQuery(
            kernel=decode_kernel(kernel_ref),
            space=decode_space(space_ref),
        )
    if kind == "energygrid":
        _, kernel_ref, space_ref = payload
        return EnergyGridQuery(
            kernel=decode_kernel(kernel_ref),
            space=decode_space(space_ref),
        )
    if kind == "pairgrid":
        _, a_ref, b_ref, space_ref = payload
        return PairGridQuery(
            kernel_a=decode_kernel(a_ref),
            kernel_b=None if b_ref is None else decode_kernel(b_ref),
            space=decode_space(space_ref),
        )
    raise TransportError(f"unknown query kind {kind!r}")


# ----------------------------------------------------------------------
# Result encoding (worker -> router)
# ----------------------------------------------------------------------


def encode_result(
    result: Union[
        PointResult, GridResult, EnergyGridResult, PairGridResult
    ],
) -> Tuple[Any, ...]:
    """Wire form of one result; grid surfaces go via shared memory.

    Energy and pair surfaces ride the frame inline: at the paper
    grid's 891 points their arrays total tens of kilobytes, far below
    the frame cap, so a shared-memory round-trip would cost more than
    it saves.
    """
    if isinstance(result, PointResult):
        return (
            "point", result.kernel_name,
            result.time_s, result.items_per_second,
        )
    if isinstance(result, EnergyGridResult):
        return (
            "energy-inline", result.kernel_name,
            np.ascontiguousarray(result.time_s),
            np.ascontiguousarray(result.power_w),
            np.ascontiguousarray(result.energy_j),
            result.global_size, result.from_cache,
        )
    if isinstance(result, PairGridResult):
        return (
            "pair-inline", result.kernel_a, result.kernel_b,
            np.ascontiguousarray(result.time_a),
            None if result.time_b is None
            else np.ascontiguousarray(result.time_b),
            np.ascontiguousarray(result.solo_time_a),
            None if result.solo_time_b is None
            else np.ascontiguousarray(result.solo_time_b),
            np.ascontiguousarray(result.makespan_s),
            np.ascontiguousarray(result.power_w),
            np.ascontiguousarray(result.energy_j),
            result.global_size_a, result.global_size_b,
        )
    array = np.ascontiguousarray(result.items_per_second)
    try:
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes)
        )
    except Exception:
        return (
            "grid-inline", result.kernel_name, array,
            result.global_size, result.from_cache,
        )
    untrack_segment(segment)
    view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
    view[...] = array
    name = segment.name
    del view
    segment.close()
    return (
        "grid-shm", result.kernel_name, name,
        array.shape, str(array.dtype),
        result.global_size, result.from_cache,
    )


def decode_result(
    payload: Tuple[Any, ...],
) -> Union[PointResult, GridResult, EnergyGridResult, PairGridResult]:
    """Rebuild a result; attaches, copies out, and unlinks shm."""
    kind = payload[0]
    if kind == "point":
        _, kernel_name, time_s, ips = payload
        return PointResult(
            kernel_name=kernel_name, time_s=time_s,
            items_per_second=ips,
        )
    if kind == "energy-inline":
        (_, kernel_name, time_s, power_w, energy_j,
         global_size, from_cache) = payload
        return EnergyGridResult(
            kernel_name=kernel_name,
            time_s=np.asarray(time_s),
            power_w=np.asarray(power_w),
            energy_j=np.asarray(energy_j),
            global_size=global_size,
            from_cache=from_cache,
        )
    if kind == "pair-inline":
        (_, kernel_a, kernel_b, time_a, time_b, solo_a, solo_b,
         makespan_s, power_w, energy_j, size_a, size_b) = payload
        return PairGridResult(
            kernel_a=kernel_a,
            kernel_b=kernel_b,
            time_a=np.asarray(time_a),
            time_b=None if time_b is None else np.asarray(time_b),
            solo_time_a=np.asarray(solo_a),
            solo_time_b=None if solo_b is None else np.asarray(solo_b),
            makespan_s=np.asarray(makespan_s),
            power_w=np.asarray(power_w),
            energy_j=np.asarray(energy_j),
            global_size_a=size_a,
            global_size_b=size_b,
        )
    if kind == "grid-inline":
        _, kernel_name, array, global_size, from_cache = payload
        return GridResult(
            kernel_name=kernel_name,
            items_per_second=np.asarray(array),
            global_size=global_size,
            from_cache=from_cache,
        )
    if kind == "grid-shm":
        _, kernel_name, name, shape, dtype, global_size, from_cache = (
            payload
        )
        # Attaching registers with the resource tracker (bpo-39959),
        # but unlink() below unregisters again — so unlike the worker
        # side, no manual untrack here: the pair balances itself.
        try:
            segment = shared_memory.SharedMemory(name=name)
        except (OSError, ValueError) as exc:
            raise TransportError(
                f"failed to attach result segment {name!r}: {exc}"
            ) from exc
        try:
            view = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
            array = np.array(view)
            del view
        finally:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                untrack_segment(segment)
        return GridResult(
            kernel_name=kernel_name,
            items_per_second=array,
            global_size=global_size,
            from_cache=from_cache,
        )
    raise TransportError(f"unknown result kind {kind!r}")


def release_result(payload: Tuple[Any, ...]) -> None:
    """Free a result nobody is waiting for (late answer after a
    timeout): the shm segment must still be unlinked exactly once."""
    if payload and payload[0] == "grid-shm":
        try:
            segment = shared_memory.SharedMemory(name=payload[2])
        except FileNotFoundError:
            return
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:
            untrack_segment(segment)


# ----------------------------------------------------------------------
# Error encoding (worker -> router)
# ----------------------------------------------------------------------

_ERROR_CODES = {
    "overload": OverloadError,
    "timeout": ServiceTimeoutError,
    "deadline": DeadlineExceededError,
    "closed": ServiceClosedError,
    "configuration": ConfigurationError,
    "workload": WorkloadError,
    "simulation": SimulationError,
}


def encode_error(exc: BaseException) -> Tuple[str, str, Dict[str, Any]]:
    """Map one exception onto a ``(code, message, extra)`` triple."""
    if isinstance(exc, OverloadError):
        return (
            "overload", str(exc),
            {"retry_after": getattr(exc, "retry_after", None)},
        )
    # Subclass ordering: DeadlineExceededError IS a ServiceTimeoutError.
    if isinstance(exc, DeadlineExceededError):
        return "deadline", str(exc), {}
    if isinstance(exc, ServiceTimeoutError):
        return "timeout", str(exc), {}
    if isinstance(exc, ServiceClosedError):
        return "closed", str(exc), {}
    if isinstance(exc, SimulationError):
        return (
            "simulation", str(exc),
            {"kernel": exc.kernel_name, "reason": exc.reason},
        )
    if isinstance(exc, ConfigurationError):
        return "configuration", str(exc), {}
    if isinstance(exc, WorkloadError):
        return "workload", str(exc), {}
    if isinstance(exc, ReproError):
        return "repro", str(exc), {}
    return "internal", f"{type(exc).__name__}: {exc}", {}


def decode_error(
    code: str, message: str, extra: Dict[str, Any]
) -> ReproError:
    """Rebuild the exception a worker reported."""
    if code == "overload":
        return OverloadError(
            message, retry_after=extra.get("retry_after")
        )
    if code == "simulation":
        return SimulationError(
            extra.get("kernel", "<unknown>"),
            extra.get("reason", message),
        )
    cls = _ERROR_CODES.get(code, ReproError)
    return cls(message)
