"""Framed IPC between the fleet router and its engine workers.

The router and each worker share one ``socket.socketpair`` wrapped in
asyncio streams. Everything on the wire is a *frame*: a 4-byte
big-endian length prefix followed by a pickled tuple whose first
element names the frame kind. Pickle is safe here — both ends are the
same trusted codebase, the socket is inherited (never bound to a
port), and the payloads are this module's own tuples.

Three translation layers live here so ``router.py`` and ``worker.py``
stay symmetric:

* **queries** travel as their kind's ``shape`` label followed by their
  dataclass fields, each as a compact reference rather than a full
  object: a catalog kernel is its ``suite/program.kernel`` name (the
  worker re-resolves it from its own catalog index), an inline kernel
  is its ``to_dict()`` payload, the paper grid is the literal string
  ``"paper"`` and a hardware point is a ``(cu, engine, memory,
  uarch)`` tuple. At 5k req/s re-pickling full :class:`Kernel` objects per
  query is measurable; names are not.
* **grid results** return over the ``multiprocessing.shared_memory``
  path: the worker copies the surface into a fresh segment and ships
  only its name + shape, the router copies it out and unlinks. Both
  sides detach the segment from their resource tracker (bpo-39959)
  so neither emits spurious leak warnings nor unlinks early. If
  shared memory is unavailable the array falls back to riding the
  frame itself — bit-identical either way. Every other result rides
  the frame as its own dataclass.
* **errors** cross as ``(code, message, extra)`` triples read from the
  table in :mod:`repro.service.errors` and are rebuilt into the same
  exception types the in-process
  :class:`~repro.service.batcher.MicroBatcher` raises, so the server's
  status mapping is oblivious to which mode answered.
"""

from __future__ import annotations

import asyncio
import dataclasses
import pickle
import struct
import typing
from multiprocessing import shared_memory
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import ReproError
from repro.gpu.config import HAWAII_UARCH, HardwareConfig, Microarchitecture
from repro.kernels.kernel import Kernel
from repro.service.batcher import QUERY_KINDS, GridResult, Query
from repro.service.errors import BY_WIRE, error_kind
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


def encode_kernel(kernel) -> Union[str, dict]:
    """A kernel reference: catalog name when safe, else a full dict.

    The name shortcut is taken only when the catalog entry under that
    name *equals* the request's kernel — an inline kernel that reuses
    a catalog name with different characteristics must travel by
    value or the worker would silently answer for the wrong kernel.
    """
    from repro.suites import kernel_by_name

    try:
        catalog = kernel_by_name(kernel.full_name)
    except ReproError:
        catalog = None
    if catalog is not None and (catalog is kernel or catalog == kernel):
        return kernel.full_name
    return kernel.to_dict()


def decode_kernel(ref: Union[str, dict]):
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


def _encode_config(config: HardwareConfig) -> Tuple[Any, ...]:
    """``(cu, engine, memory, uarch)``; the uarch travels by value
    unless it is the default family's (``None``)."""
    default = config.uarch is HAWAII_UARCH or config.uarch == HAWAII_UARCH
    uarch = None if default else config.uarch.to_dict()
    return (config.cu_count, config.engine_mhz, config.memory_mhz, uarch)


def _decode_config(ref: Tuple[Any, ...]) -> HardwareConfig:
    cu, eng, mem, arch = ref
    arch = HAWAII_UARCH if arch is None else Microarchitecture.from_dict(arch)
    return HardwareConfig(
        cu_count=int(cu), engine_mhz=float(eng), memory_mhz=float(mem),
        uarch=arch,
    )


#: Wire codec of each type a query field can hold.
_FIELD_CODECS = {
    Kernel: (encode_kernel, decode_kernel),
    ConfigurationSpace: (encode_space, decode_space),
    HardwareConfig: (_encode_config, _decode_config),
}


def _optional(codec: Any) -> Any:
    return lambda value: None if value is None else codec(value)


def _field_codecs(cls: type) -> Tuple[Tuple[str, Any, Any], ...]:
    """``(name, encode, decode)`` per dataclass field of a query kind;
    an ``Optional`` field travels as ``None`` or by its type's codec."""
    hints = typing.get_type_hints(cls)
    codecs = []
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        inner = [t for t in typing.get_args(hint) if t is not type(None)]
        encode, decode = _FIELD_CODECS[inner[0] if inner else hint]
        if inner:
            encode, decode = _optional(encode), _optional(decode)
        codecs.append((field.name, encode, decode))
    return tuple(codecs)


#: Each query kind's field codecs.
_CODECS = {cls: _field_codecs(cls) for cls in QUERY_KINDS.values()}


def encode_query(query: Query) -> Tuple[Any, ...]:
    """Compact wire form of one query: its kind, then its fields."""
    codecs = _CODECS.get(type(query))
    if codecs is None:
        raise TransportError(f"not a query: {query!r}")
    return (query.shape, *[
        encode(getattr(query, name)) for name, encode, _ in codecs
    ])


def decode_query(payload: Tuple[Any, ...]) -> Query:
    cls = QUERY_KINDS.get(payload[0])
    if cls is None:
        raise TransportError(f"unknown query kind {payload[0]!r}")
    return cls(*[
        decode(ref) for (_, _, decode), ref in zip(_CODECS[cls], payload[1:])
    ])


# ----------------------------------------------------------------------
# Result encoding (worker -> router)
# ----------------------------------------------------------------------


def encode_result(result: Any) -> Tuple[Any, ...]:
    """Wire form of one result; grid surfaces go via shared memory.

    Every other result rides the frame as its dataclass: at the paper
    grid's 891 points an energy or pair surface totals tens of
    kilobytes, far below the frame cap, so a shared-memory round-trip
    would cost more than it saves.
    """
    if not isinstance(result, GridResult):
        return ("inline", result)
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


def decode_result(payload: Tuple[Any, ...]) -> Any:
    """Rebuild a result; attaches, copies out, and unlinks shm."""
    kind = payload[0]
    if kind == "inline":
        return payload[1]
    if kind == "grid-inline":
        _, kernel_name, array, global_size, from_cache = payload
        array = np.asarray(array)
    elif kind == "grid-shm":
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
            _discard(segment)
    else:
        raise TransportError(f"unknown result kind {kind!r}")
    return GridResult(
        kernel_name=kernel_name,
        items_per_second=array,
        global_size=global_size,
        from_cache=from_cache,
    )


def release_result(payload: Tuple[Any, ...]) -> None:
    """Free a result nobody is waiting for (late answer after a
    timeout): the shm segment must still be unlinked exactly once."""
    if payload and payload[0] == "grid-shm":
        try:
            segment = shared_memory.SharedMemory(name=payload[2])
        except FileNotFoundError:
            return
        _discard(segment)


def _discard(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink a result segment exactly once."""
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:
        untrack_segment(segment)


# ----------------------------------------------------------------------
# Error encoding (worker -> router), read from repro.service.errors
# ----------------------------------------------------------------------


def encode_error(exc: BaseException) -> Tuple[str, str, Dict[str, Any]]:
    """Map one exception onto a ``(code, message, extra)`` triple."""
    kind = error_kind(exc)
    if kind is None:
        return "internal", f"{type(exc).__name__}: {exc}", {}
    extra = {n: getattr(exc, n, None) for n in kind.args if n != "message"}
    return kind.wire, str(exc), extra


def decode_error(
    code: str, message: str, extra: Dict[str, Any]
) -> ReproError:
    """Rebuild the exception a worker reported."""
    kind = BY_WIRE.get(code, BY_WIRE["repro"])
    args = (message if n == "message" else extra.get(n) for n in kind.args)
    return kind.cls(*args)
