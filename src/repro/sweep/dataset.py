"""The scaling dataset: a (kernels x CU x engine x memory) tensor.

:class:`ScalingDataset` is the hand-off point between data collection
(:mod:`repro.sweep.runner`) and everything downstream (taxonomy,
analysis, reporting). Performance is stored as work-items/second — the
study only ever interprets performance *relative* to other points of
the same kernel, so any throughput unit works as long as it is
consistent per kernel.

Integrity is enforced at the boundary: every healthy kernel row must be
finite and strictly positive, both at construction and on
:meth:`ScalingDataset.load`, so a corrupted campaign cannot silently
flow into classification. Rows that a fault-tolerant sweep explicitly
*quarantined* (see :mod:`repro.sweep.campaign`) are the one exception —
they are NaN-filled by construction, carry their failure cause, and can
be dropped with :meth:`ScalingDataset.healthy`.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.atomic import atomic_path
from repro.errors import DatasetError
from repro.sweep.space import ConfigurationSpace


@dataclass(frozen=True)
class KernelRecord:
    """Identity of one kernel row in the dataset."""

    full_name: str
    suite: str
    program: str
    kernel: str

    @classmethod
    def from_full_name(cls, full_name: str) -> "KernelRecord":
        """Parse a ``suite/program.kernel`` identifier."""
        suite, _, rest = full_name.partition("/")
        if not rest:
            suite, rest = "", full_name
        program, _, kernel = rest.partition(".")
        if not kernel:
            raise DatasetError(
                f"cannot parse kernel identifier {full_name!r}"
            )
        return cls(
            full_name=full_name, suite=suite, program=program, kernel=kernel
        )


def _name_list(names: Sequence[str], limit: int = 5) -> str:
    shown = ", ".join(names[:limit])
    if len(names) > limit:
        shown += f", ... ({len(names)} total)"
    return shown


class ScalingDataset:
    """Performance of every kernel at every configuration.

    ``perf`` has shape ``(n_kernels, n_cu, n_eng, n_mem)`` and holds
    work-items/second. Rows follow the catalog's canonical kernel
    order; configuration axes follow the space's axis order.

    *quarantined* maps kernel full names to failure causes for rows a
    fault-tolerant sweep NaN-filled instead of aborting on; all other
    rows must be finite and strictly positive.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        kernel_records: Sequence[KernelRecord],
        perf: np.ndarray,
        quarantined: Optional[Mapping[str, str]] = None,
    ):
        expected_shape = (len(kernel_records),) + space.shape
        if perf.shape != expected_shape:
            raise DatasetError(
                f"perf shape {perf.shape} does not match "
                f"{len(kernel_records)} kernels x space {space.shape}"
            )
        self._space = space
        self._records = tuple(kernel_records)
        self._perf = perf.astype(np.float64, copy=False)
        self._index = {r.full_name: i for i, r in enumerate(self._records)}
        if len(self._index) != len(self._records):
            raise DatasetError("duplicate kernel names in dataset")
        self._quarantined = {
            str(name): str(cause)
            for name, cause in (quarantined or {}).items()
        }
        unknown = sorted(set(self._quarantined) - set(self._index))
        if unknown:
            raise DatasetError(
                "quarantine list names kernels absent from the dataset: "
                + _name_list(unknown)
            )
        self.validate()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def space(self) -> ConfigurationSpace:
        """The configuration grid this dataset was collected on."""
        return self._space

    @property
    def kernel_records(self) -> Tuple[KernelRecord, ...]:
        """Per-row kernel identities."""
        return self._records

    @property
    def kernel_names(self) -> List[str]:
        """Full names in row order."""
        return [r.full_name for r in self._records]

    @property
    def num_kernels(self) -> int:
        """Number of kernel rows."""
        return len(self._records)

    @property
    def perf(self) -> np.ndarray:
        """The full tensor, shape (kernels, cu, engine, memory)."""
        return self._perf

    @property
    def quarantined(self) -> Dict[str, str]:
        """Kernel full name -> failure cause for quarantined rows."""
        return dict(self._quarantined)

    def row_index(self, kernel_name: str) -> int:
        """Row of *kernel_name*; raises :class:`DatasetError`."""
        try:
            return self._index[kernel_name]
        except KeyError:
            raise DatasetError(
                f"dataset has no kernel {kernel_name!r}"
            ) from None

    def kernel_cube(self, kernel_name: str) -> np.ndarray:
        """One kernel's (cu, engine, memory) performance cube."""
        return self._perf[self.row_index(kernel_name)]

    def suites(self) -> List[str]:
        """Distinct suite names in row order of first appearance."""
        seen: Dict[str, None] = {}
        for record in self._records:
            seen.setdefault(record.suite, None)
        return list(seen)

    def rows_for_suite(self, suite: str) -> List[int]:
        """Row indices belonging to *suite*."""
        return [
            i for i, r in enumerate(self._records) if r.suite == suite
        ]

    def subset(self, kernel_names: Sequence[str]) -> "ScalingDataset":
        """A new dataset restricted to *kernel_names* (order preserved)."""
        rows = [self.row_index(name) for name in kernel_names]
        return ScalingDataset(
            self._space,
            [self._records[i] for i in rows],
            self._perf[rows],
            quarantined={
                name: self._quarantined[name]
                for name in kernel_names
                if name in self._quarantined
            },
        )

    def healthy(self) -> "ScalingDataset":
        """A new dataset with every quarantined row dropped."""
        if not self._quarantined:
            return self
        names = [
            n for n in self.kernel_names if n not in self._quarantined
        ]
        if not names:
            raise DatasetError("every kernel row is quarantined")
        return self.subset(names)

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def validate(self) -> "ScalingDataset":
        """Check integrity invariants; returns ``self`` for chaining.

        Healthy rows must be finite and strictly positive; quarantined
        rows must be entirely NaN. Violations raise
        :class:`DatasetError` naming the offending kernel rows.
        """
        rows = (1, 2, 3)
        names = np.array(self.kernel_names, dtype=object)
        held = np.array([n in self._quarantined for n in names], dtype=bool)
        finite = np.isfinite(self._perf).all(axis=rows)
        positive = (self._perf > 0).all(axis=rows)
        nan_filled = np.isnan(self._perf).all(axis=rows)
        non_finite = list(names[~held & ~finite])
        non_positive = list(names[~held & finite & ~positive])
        not_nan_filled = list(names[held & ~nan_filled])
        if non_finite:
            raise DatasetError(
                "perf contains non-finite values in kernel rows: "
                + _name_list(non_finite)
                + " (quarantine the rows to permit NaN)"
            )
        if non_positive:
            raise DatasetError(
                "perf must be strictly positive; offending kernel rows: "
                + _name_list(non_positive)
            )
        if not_nan_filled:
            raise DatasetError(
                "quarantined kernel rows must be NaN-filled: "
                + _name_list(not_nan_filled)
            )
        return self

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> Path:
        """Write the dataset as ``.npz`` (tensor + JSON metadata).

        The write is atomic: an interruption leaves any previous file
        at *path* untouched rather than a truncated archive.
        """
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(".npz")
        metadata = {
            "space": self._space.to_dict(),
            "kernels": [r.full_name for r in self._records],
            "quarantined": self._quarantined,
        }
        with atomic_path(path) as tmp:
            with open(tmp, "wb") as handle:
                np.savez_compressed(
                    handle,
                    perf=self._perf,
                    metadata=np.array(json.dumps(metadata)),
                )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScalingDataset":
        """Read a dataset written by :meth:`save` (re-validated)."""
        path = Path(path)
        if not path.exists():
            raise DatasetError(f"no dataset at {path}")
        try:
            with np.load(path, allow_pickle=False) as archive:
                perf = archive["perf"]
                metadata = json.loads(str(archive["metadata"]))
        except (
            KeyError,
            ValueError,
            json.JSONDecodeError,
            EOFError,
            zipfile.BadZipFile,
            OSError,
        ) as exc:
            # Truncated, garbage, or non-zip bytes surface from np.load
            # as any of these; all mean "not a dataset".
            raise DatasetError(f"malformed dataset at {path}: {exc}") from exc
        space = ConfigurationSpace.from_dict(metadata["space"])
        records = [
            KernelRecord.from_full_name(name) for name in metadata["kernels"]
        ]
        return cls(
            space, records, perf,
            quarantined=metadata.get("quarantined"),
        )

    def export_csv(self, path: Union[str, Path]) -> Path:
        """Write one row per (kernel, configuration) in long format.

        Columns: suite, program, kernel, cu_count, engine_mhz,
        memory_mhz, items_per_second. Quarantined rows export as
        ``nan``. The write is atomic (temp file + rename).
        """
        path = Path(path)
        n_cu, n_eng, n_mem = self._space.shape
        with atomic_path(path) as tmp:
            with open(tmp, "w") as handle:
                handle.write(
                    "suite,program,kernel,cu_count,engine_mhz,memory_mhz,"
                    "items_per_second\n"
                )
                for row, record in enumerate(self._records):
                    for c in range(n_cu):
                        for e in range(n_eng):
                            for m in range(n_mem):
                                handle.write(
                                    f"{record.suite},{record.program},"
                                    f"{record.kernel},"
                                    f"{self._space.cu_counts[c]},"
                                    f"{self._space.engine_mhz[e]:g},"
                                    f"{self._space.memory_mhz[m]:g},"
                                    f"{self._perf[row, c, e, m]:.6g}\n"
                                )
        return path
