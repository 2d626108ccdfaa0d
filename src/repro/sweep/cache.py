"""Content-addressed sweep result cache.

Every downstream consumer — ``gpuscale classify``, ``gpuscale report``,
the ablation/noise/sampling studies — starts from the same 267-kernel x
891-configuration dataset. The model is deterministic, so that dataset
is a pure function of its inputs: the kernel definitions, the
configuration space, and the engine. :class:`SweepCache` keys a saved
:class:`~repro.sweep.dataset.ScalingDataset` by the SHA-256 of exactly
those inputs (the same canonical-JSON hashing the campaign journal uses
for its fingerprint, extended from kernel *names* to full kernel
*content* so an edited characteristic can never alias a stale result).
A repeat invocation loads the ``.npz`` instead of re-simulating; any
change to a kernel, the space, or the engine changes the key and misses
naturally.

Cache entries live under ``$GPUSCALE_CACHE_DIR`` (default
``~/.cache/gpuscale``), one atomic ``.npz`` per fingerprint:
``sweep_<fp>.npz`` for datasets and ``energy_<fp>.npz`` for the query
service's energy surfaces, which :meth:`SweepCache.entries` and
:meth:`SweepCache.clear` cover alike. Corrupt or
unreadable entries count as misses — the cache is an accelerator, never
a correctness dependency. Datasets containing quarantined kernels are
not cached: a frozen failure row would outlive the transient fault that
produced it.

The cache is safe under concurrent readers and writers — the query
service's engine worker, parallel sweep processes, and test harnesses
may all hit one directory at once. Writes go through
:func:`repro.atomic.atomic_path` (per-call-unique temp name, then
``os.replace``), so a reader only ever sees some writer's *complete*
bytes; a read racing a delete, a replace, or a corrupt entry counts as
a miss and never propagates an error. Stat counters are lock-guarded.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import zipfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.atomic import atomic_path
from repro.errors import DatasetError, ReproError
from repro.gpu.engine import EngineSpec, engine_fingerprint
from repro.kernels.kernel import Kernel
from repro.sweep.dataset import ScalingDataset
from repro.sweep.runner import ProgressCallback, collect_paper_dataset
from repro.sweep.space import PAPER_SPACE, ConfigurationSpace

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "GPUSCALE_CACHE_DIR"

#: Bump to invalidate every existing entry after a model change that
#: alters outputs without touching any fingerprinted input.
CACHE_SCHEMA_VERSION = 1

#: What an energy-surface entry holds: its arrays and work-item count.
ENERGY_FIELDS = ("time_s", "power_w", "energy_j", "global_size")


def default_cache_dir() -> Path:
    """The cache root: ``$GPUSCALE_CACHE_DIR`` or ``~/.cache/gpuscale``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "gpuscale"


def fingerprint_blob(payload: dict) -> str:
    """SHA-256 of *payload* as canonical (sorted-keys) JSON.

    The shared hashing primitive behind both the campaign journal
    fingerprint and the sweep cache key — one definition, so the two
    can never drift apart in encoding.
    """
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def sweep_fingerprint(
    kernels: Sequence[Kernel],
    space: ConfigurationSpace,
    engine: EngineSpec = "interval",
) -> str:
    """Content address of one sweep's inputs.

    Full ``kernel.to_dict()`` payloads (characteristics, geometry,
    resources), the space including its microarchitecture, and the
    engine's descriptor-derived fingerprint material
    (:func:`repro.gpu.engine.engine_fingerprint`). Engines in one
    family are equivalence-tested to produce the same dataset, so they
    share material — and cache entries; grid mode is excluded for the
    same reason (scalar, batch, and study paths are oracle-equal).
    """
    return fingerprint_blob(
        {
            "version": CACHE_SCHEMA_VERSION,
            "kernels": [k.to_dict() for k in kernels],
            "space": space.to_dict(),
            "engine": engine_fingerprint(engine),
        }
    )


class SingleFlight:
    """Per-key mutual exclusion for concurrent cache misses.

    N threads asking for the same key get one lock; the first in
    computes while the rest block, then re-check the cache and find
    the winner's result. Lock records are reference-counted and
    dropped when the last waiter leaves, so the key table never grows
    with the (unbounded) set of fingerprints ever requested.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._keys: Dict[str, List] = {}  # key -> [lock, refcount]

    def acquire(self, key: str) -> threading.Lock:
        """Take the key's lock (blocking); pair with :meth:`release`."""
        with self._lock:
            entry = self._keys.get(key)
            if entry is None:
                entry = [threading.Lock(), 0]
                self._keys[key] = entry
            entry[1] += 1
        entry[0].acquire()
        return entry[0]

    def release(self, key: str) -> None:
        """Drop the key's lock; forgets the key with its last waiter."""
        with self._lock:
            entry = self._keys[key]
            entry[1] -= 1
            if entry[1] == 0:
                del self._keys[key]
        entry[0].release()

    def active_keys(self) -> List[str]:
        """Keys currently in flight (diagnostic)."""
        with self._lock:
            return sorted(self._keys)


class SweepCache:
    """Fingerprint-keyed store of saved scaling datasets."""

    def __init__(self, cache_dir: Union[str, Path, None] = None):
        self._dir = (
            Path(cache_dir) if cache_dir is not None else default_cache_dir()
        )
        self._stats_lock = threading.Lock()
        self._single_flight = SingleFlight()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _count(self, stat: str) -> None:
        with self._stats_lock:
            setattr(self, stat, getattr(self, stat) + 1)

    @property
    def cache_dir(self) -> Path:
        """Directory holding the cache entries."""
        return self._dir

    def path_for(self, fingerprint: str, prefix: str = "sweep") -> Path:
        """Where the entry for *fingerprint* lives (existing or not).

        *prefix* names the entry's namespace: ``"sweep"`` for datasets,
        ``"energy"`` for the service's energy surfaces.
        """
        return self._dir / f"{prefix}_{fingerprint}.npz"

    def load(self, fingerprint: str) -> Optional[ScalingDataset]:
        """The cached dataset, or ``None`` on miss.

        A corrupt, truncated, or invalid entry is deleted and treated
        as a miss: the caller re-simulates and overwrites it. Races
        are tolerated the same way — an entry deleted or replaced
        between the existence check and the read is just a miss.
        """
        return self._load(fingerprint, count_miss=True)

    def _load(
        self, fingerprint: str, count_miss: bool
    ) -> Optional[ScalingDataset]:
        path = self.path_for(fingerprint)
        if not path.exists():
            if count_miss:
                self._count("misses")
            return None
        try:
            dataset = ScalingDataset.load(path).validate()
        except (ReproError, OSError, ValueError, KeyError):
            self.invalidate(fingerprint)
            if count_miss:
                self._count("misses")
            return None
        self._count("hits")
        return dataset

    def load_or_compute(
        self,
        fingerprint: str,
        compute: Callable[[], ScalingDataset],
    ) -> ScalingDataset:
        """Load the entry, or compute-and-store it exactly once.

        Concurrent callers missing on the same *fingerprint* are
        single-flighted: one runs *compute*, stores the result, and
        every peer re-reads the stored entry instead of re-simulating
        (the double-check inside the key lock). Distinct fingerprints
        never contend. A dataset with quarantined kernels is returned
        but not stored, matching :meth:`store`'s refusal policy.

        The second look inside the lock deliberately does not count a
        miss: the caller's attempt already counted one, and the stat
        would otherwise double-count every single-flighted request.
        """
        dataset = self.load(fingerprint)
        if dataset is not None:
            return dataset
        self._single_flight.acquire(fingerprint)
        try:
            dataset = self._load(fingerprint, count_miss=False)
            if dataset is not None:
                return dataset
            dataset = compute()
            if not dataset.quarantined:
                try:
                    self.store(fingerprint, dataset)
                except (ReproError, OSError):
                    pass  # an accelerator, never a dependency
            return dataset
        finally:
            self._single_flight.release(fingerprint)

    def store(self, fingerprint: str, dataset: ScalingDataset) -> Path:
        """Persist *dataset* under *fingerprint* (atomic write).

        Refuses datasets with quarantined kernels — those rows record a
        (possibly transient) failure, not a result worth replaying.
        """
        if dataset.quarantined:
            raise DatasetError(
                "refusing to cache a dataset with quarantined kernels: "
                + ", ".join(sorted(dataset.quarantined))
            )
        self._dir.mkdir(parents=True, exist_ok=True)
        path = dataset.save(self.path_for(fingerprint))
        self._count("stores")
        return path

    def load_energy(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """A cached energy surface as :data:`ENERGY_FIELDS`, or ``None``.

        Misses, corrupt entries and races behave as in :meth:`load`.
        """
        try:
            with np.load(self.path_for(fingerprint, "energy")) as data:
                surface = {name: data[name] for name in ENERGY_FIELDS}
        except FileNotFoundError:
            self._count("misses")
            return None
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            self.invalidate(fingerprint, "energy")
            self._count("misses")
            return None
        surface["global_size"] = int(surface["global_size"])
        self._count("hits")
        return surface

    def store_energy(self, fingerprint: str, surface: object) -> Path:
        """Persist *surface*'s :data:`ENERGY_FIELDS` (atomic write)."""
        self._dir.mkdir(parents=True, exist_ok=True)
        path = self.path_for(fingerprint, "energy")
        with atomic_path(path) as tmp, open(tmp, "wb") as handle:
            np.savez(
                handle,
                **{name: getattr(surface, name) for name in ENERGY_FIELDS},
            )
        self._count("stores")
        return path

    def invalidate(self, fingerprint: str, prefix: str = "sweep") -> bool:
        """Drop one entry; ``True`` if something was deleted.

        Tolerates a concurrent delete (both callers report having
        invalidated, neither errors).
        """
        path = self.path_for(fingerprint, prefix)
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False
        except OSError:
            return False

    def entries(self) -> List[Path]:
        """Every cache entry, datasets and energy surfaces, by name."""
        if not self._dir.is_dir():
            return []
        return sorted(
            path
            for prefix in ("energy", "sweep")
            for path in self._dir.glob(f"{prefix}_*.npz")
        )

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def cached_paper_dataset(
    engine: EngineSpec = "interval",
    space: ConfigurationSpace = PAPER_SPACE,
    progress: Optional[ProgressCallback] = None,
    grid_mode: str = "batch",
    strict: bool = True,
    cache: Optional[SweepCache] = None,
) -> ScalingDataset:
    """:func:`collect_paper_dataset` behind the result cache.

    On a hit the engine is never invoked (pinned by the engine-call
    counter in the cache tests); on a miss the dataset is collected,
    stored, and returned — and concurrent misses for the same
    fingerprint are single-flighted through
    :meth:`SweepCache.load_or_compute`, so one collection run serves
    every caller. Pass an explicit *cache* to control the directory;
    ``None`` uses the default location.
    """
    from repro.suites import all_kernels

    if cache is None:
        cache = SweepCache()
    fingerprint = sweep_fingerprint(all_kernels(), space, engine)
    return cache.load_or_compute(
        fingerprint,
        lambda: collect_paper_dataset(
            engine, space, progress, grid_mode, strict=strict
        ),
    )
