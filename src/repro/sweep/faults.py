"""Fault injection for exercising sweep fault-tolerance.

:class:`FaultyEngine` is a drop-in :class:`~repro.gpu.simulator.GpuSimulator`
wrapper that injects failures — structured exceptions, hangs, silent
NaN corruption, and hard worker exits — at configurable kernels or call
indices. It exists so every recovery path in the sweep stack (per-kernel
quarantine, chunk retry, serial degradation, checkpoint resume) is
property-tested against the exact failure it defends against, rather
than trusted on inspection.

Fault specs serialise to plain dicts, so :class:`ParallelSweepRunner`
can carry them across process boundaries and trip them inside worker
processes. The ``scope`` field restricts where a fault fires ("worker"
faults only trip in pool workers, modelling a broken worker environment
whose work still succeeds in-process), and ``max_trips`` with an
optional on-disk ``state_path`` counter models transient failures that
disappear on retry — including retries in a fresh process.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.gpu.engine import (
    FAULTY_DESCRIPTOR,
    EngineDescriptor,
)
from repro.gpu.simulator import GpuSimulator, SimulationResult
from repro.kernels.kernel import Kernel
from repro.tiles import in_worker


class FaultKind(Enum):
    """What a tripped fault does."""

    #: Raise a structured :class:`SimulationError`.
    RAISE = "raise"
    #: Sleep for ``hang_s`` seconds (models a wedged simulation).
    HANG = "hang"
    #: Return normally but with NaN throughput (silent data corruption).
    NAN = "nan"
    #: Kill the current process with ``os._exit`` (worker crash).
    EXIT = "exit"


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: what fires, where, and how often.

    A spec with neither *kernel_name* nor *kernel_index* matches every
    simulation. ``max_trips=None`` fires on every match; with a count,
    trips are tallied in-memory per engine instance, or in the file at
    *state_path* so the tally survives process boundaries (each trip
    appends one byte; the file's size is the count).
    """

    kind: FaultKind
    kernel_name: Optional[str] = None
    kernel_index: Optional[int] = None  # Nth simulate_grid call
    scope: str = "any"  # "any" | "worker" | "main"
    max_trips: Optional[int] = None
    state_path: Optional[str] = None
    hang_s: float = 3600.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.scope not in ("any", "worker", "main"):
            raise ValueError(f"unknown fault scope {self.scope!r}")

    def to_dict(self) -> dict:
        """Serialise for a worker payload (JSON/pickle friendly)."""
        return {
            "kind": self.kind.value,
            "kernel_name": self.kernel_name,
            "kernel_index": self.kernel_index,
            "scope": self.scope,
            "max_trips": self.max_trips,
            "state_path": self.state_path,
            "hang_s": self.hang_s,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultSpec":
        """Reconstruct from :meth:`to_dict` output."""
        return cls(
            kind=FaultKind(payload["kind"]),
            kernel_name=payload.get("kernel_name"),
            kernel_index=payload.get("kernel_index"),
            scope=payload.get("scope", "any"),
            max_trips=payload.get("max_trips"),
            state_path=payload.get("state_path"),
            hang_s=payload.get("hang_s", 3600.0),
            message=payload.get("message", "injected fault"),
        )


class FaultyEngine:
    """A :class:`GpuSimulator` wrapper that injects configured faults.

    Delegates every call to the wrapped simulator; before (and for NaN
    faults, after) each ``simulate_grid`` it evaluates the fault specs
    in order and triggers those that match.
    """

    supports_point = True
    supports_grid = True
    supports_study = False

    def __init__(
        self, simulator: GpuSimulator, specs: Sequence[FaultSpec]
    ):
        self._simulator = simulator
        self._specs = list(specs)
        self._calls = 0
        self._local_trips: Dict[int, int] = {}

    def descriptor(self) -> EngineDescriptor:
        """Identity of the fault-injection wrapper itself.

        Deliberately *not* the wrapped engine's descriptor: results
        produced under injection must never share a cache or campaign
        fingerprint with clean runs.
        """
        return FAULTY_DESCRIPTOR

    @property
    def specs(self) -> List[FaultSpec]:
        """The configured fault specs."""
        return list(self._specs)

    def simulate(self, kernel: Kernel, config) -> SimulationResult:
        """Pass-through single-point simulation (no injection)."""
        return self._simulator.simulate(kernel, config)

    def simulate_grid(
        self, kernel: Kernel, space, mode: str = "batch"
    ):
        """Simulate a grid, tripping any matching faults."""
        call_index = self._calls
        self._calls += 1
        corrupt = False
        for pos, spec in enumerate(self._specs):
            if not self._matches(spec, kernel, call_index):
                continue
            if not self._arm(pos, spec):
                continue
            if spec.kind is FaultKind.RAISE:
                raise SimulationError(kernel.full_name, spec.message)
            if spec.kind is FaultKind.HANG:
                time.sleep(spec.hang_s)
            elif spec.kind is FaultKind.EXIT:
                os._exit(17)
            elif spec.kind is FaultKind.NAN:
                corrupt = True
        result = self._simulator.simulate_grid(kernel, space, mode=mode)
        if corrupt:
            # The engine's tensors may be read-only views; corrupt a copy.
            result = dataclasses.replace(
                result,
                items_per_second=np.full_like(
                    result.items_per_second, np.nan
                ),
                time_s=np.full_like(result.time_s, np.nan),
            )
        return result

    # ------------------------------------------------------------------

    @staticmethod
    def _matches(spec: FaultSpec, kernel: Kernel, call_index: int) -> bool:
        if spec.scope == "worker" and not in_worker():
            return False
        if spec.scope == "main" and in_worker():
            return False
        if (spec.kernel_name is not None
                and kernel.full_name != spec.kernel_name):
            return False
        if (spec.kernel_index is not None
                and call_index != spec.kernel_index):
            return False
        return True

    def _arm(self, pos: int, spec: FaultSpec) -> bool:
        """Record a trip; False once ``max_trips`` is exhausted."""
        if spec.max_trips is None:
            return True
        if spec.state_path:
            count = (
                os.path.getsize(spec.state_path)
                if os.path.exists(spec.state_path) else 0
            )
            if count >= spec.max_trips:
                return False
            with open(spec.state_path, "ab") as handle:
                handle.write(b"!")
            return True
        count = self._local_trips.get(pos, 0)
        if count >= spec.max_trips:
            return False
        self._local_trips[pos] = count + 1
        return True
