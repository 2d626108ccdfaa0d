"""Spans around the program's public calls, recorded from outside.

A :class:`Recorder` keeps every span in memory (name, start, end, the
span that caused it, and an optional link) and writes them out once,
at the end. Wrappers are installed by patching the public functions
the benchmark names; the program itself carries no tracing code. A
layer's self time is its span minus the spans of its children.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

import numpy as np


class Recorder:
    """In-memory span and count store shared by every wrapper."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.links: List[int] = []
        #: Name -> ``(time, value)`` pairs.
        self.counts: Dict[str, List[tuple]] = defaultdict(list)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self._lock = threading.Lock()
        # Query -> index of the engine batch span that evaluated it.
        self.served_by: Dict[Any, int] = {}

    def begin(self, name: str):
        with self._lock:
            index = len(self.names)
            self.names.append(name)
            self.starts.append(time.perf_counter())
            self.ends.append(float("nan"))
            self.parents.append(self._current.get())
            self.links.append(-1)
        return index, self._current.set(index)

    def end(self, index: int, token) -> None:
        self.ends[index] = time.perf_counter()
        self._current.reset(token)

    def count(self, name: str, value: float) -> None:
        self.counts[name].append((time.perf_counter(), value))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        after: Optional[Callable[[int, tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanned version of itself.

        *after*, when given, sees ``(span index, args, result)`` once
        the call returns, to attach counts or links.
        """
        original = getattr(owner, attr)
        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def spanned(*args, **kwargs):
                index, token = self.begin(name)
                try:
                    result = await original(*args, **kwargs)
                finally:
                    self.end(index, token)
                if after is not None:
                    after(index, args, result)
                return result
        else:
            @functools.wraps(original)
            def spanned(*args, **kwargs):
                index, token = self.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.end(index, token)
                if after is not None:
                    after(index, args, result)
                return result
        setattr(owner, attr, spanned)

    # -- reading spans back -------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "names": self.names,
            "starts": self.starts,
            "ends": self.ends,
            "parents": self.parents,
            "links": self.links,
            "counts": dict(self.counts),
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)


class Spans:
    """Read-side view of a recorder's output (in-process or loaded).

    Only spans and counts from *since* on are read (a
    ``time.perf_counter()`` value; on Linux that is CLOCK_MONOTONIC,
    the same clock in every process of the host), so a reader can leave
    out what a server recorded during its set-up.
    """

    def __init__(self, data: Dict[str, Any], since: float = float("-inf")):
        self.names = data["names"]
        self._kept = [start >= since for start in data["starts"]]
        self.durations = [
            end - start for start, end in zip(data["starts"], data["ends"])
        ]
        self.parents = data["parents"]
        self.links = data["links"]
        self.counts = {
            name: [value for at, value in pairs if at >= since]
            for name, pairs in data["counts"].items()
        }
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.durations[index]
        self.self_times = [
            d - c for d, c in zip(self.durations, child_time)
        ]

    @classmethod
    def load(cls, path: str, since: float = float("-inf")) -> "Spans":
        with open(path) as handle:
            return cls(json.load(handle), since)

    def indices(self, name: str) -> List[int]:
        return [
            i for i, n in enumerate(self.names) if n == name and self._kept[i]
        ]

    def durations_of(self, name: str) -> List[float]:
        return [self.durations[i] for i in self.indices(name)]

    def total(self, name: str) -> float:
        return sum(self.durations_of(name))

    def linked_waits(self, name: str) -> List[float]:
        """Each *name* span minus the span it is linked to."""
        return [
            self.durations[i] - self.durations[self.links[i]]
            for i in self.indices(name)
            if self.links[i] >= 0
        ]


def install_study(recorder: Recorder) -> None:
    """Spans over the study path: catalog, pack, engine, runner, taxonomy."""
    from repro.gpu import interval_batch, simulator
    from repro.suites import registry
    from repro.sweep import runner
    from repro.taxonomy import classifier

    recorder.wrap(registry, "all_kernels", "suites.all_kernels")
    recorder.wrap(simulator, "memoized_pack", "kernels.memoized_pack")
    recorder.wrap(
        interval_batch.BatchIntervalModel, "simulate_study",
        "gpu.simulate_study",
    )
    recorder.wrap(runner.SweepRunner, "run", "sweep.runner")
    recorder.wrap(
        classifier, "extract_features", "taxonomy.extract_features"
    )
    recorder.wrap(classifier, "classify", "taxonomy.classify")


def install_service(recorder: Recorder) -> None:
    """Spans over the serving path of the process they are installed in.

    Fleet workers are separate spawned interpreters and stay unwrapped;
    their numbers come from the server's ``/metrics``.
    """
    from repro.gpu import simulator
    from repro.service import batcher, router, schema, transport

    for parse in ("parse_simulate", "parse_classify", "parse_optimize"):
        recorder.wrap(schema, parse, "service.schema.parse")

    def mark_served(index: int, args: tuple, result: Any) -> None:
        for query in args[1]:
            recorder.served_by[query] = index

    def link_batch(index: int, args: tuple, result: Any) -> None:
        recorder.links[index] = recorder.served_by.get(args[1], -1)

    recorder.wrap(
        batcher.MicroBatcher, "_evaluate", "service.batcher.evaluate",
        after=mark_served,
    )
    recorder.wrap(
        batcher.MicroBatcher, "submit", "service.batcher.submit",
        after=link_batch,
    )
    recorder.wrap(simulator.GpuSimulator, "simulate", "gpu.simulate")
    recorder.wrap(
        router.FleetExecutor, "submit", "service.router.submit"
    )
    recorder.wrap(
        transport, "encode_query", "service.transport.encode_query"
    )

    def result_bytes(index: int, args: tuple, result: Any) -> None:
        payload = args[0]
        if payload and payload[0] == "grid-shm":
            shape, dtype = payload[3], payload[4]
            recorder.count(
                "shm.result_bytes",
                int(np.prod(shape)) * np.dtype(dtype).itemsize,
            )

    recorder.wrap(
        transport, "decode_result", "service.transport.decode_result",
        after=result_bytes,
    )

    def frame_bytes(index: int, args: tuple, result: Any) -> None:
        recorder.count("service.transport.frame_bytes", len(result))

    recorder.wrap(
        transport, "encode_frame", "service.transport.encode_frame",
        after=frame_bytes,
    )

