"""Fault-tolerant sweep campaigns: checkpointing, resume, quarantine.

A full paper-scale sweep is 237,897 simulations; ablation grids, noise
studies, and ML sampling campaigns multiply that by dozens of runs. A
campaign that dies at 90% and restarts from zero wastes the whole run —
so :class:`CampaignRunner` wraps any sweep runner with per-chunk
checkpointing to an on-disk *journal*: atomic ``.npz`` shards plus a
manifest keyed by a fingerprint of the kernel list, configuration
space, and engine settings. Interrupt the campaign at any point and a
``resume=True`` re-run reloads every completed shard and executes only
the remainder, producing a dataset bit-exact with an uninterrupted run
(the model is deterministic and chunks are independent).

Journal layout (one directory per campaign)::

    journal/
      manifest.json      fingerprint, kernel order, chunk table
      chunk_0000.npz     per-chunk perf tensor + kernel names
      chunk_0001.npz     ...

Both the manifest and every shard are written atomically (temp file +
rename), so a kill mid-write never corrupts the journal: the chunk is
either durably recorded or cleanly absent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.atomic import atomic_path, atomic_write_text
from repro.errors import CampaignError
from repro.gpu.engine import engine_fingerprint, normalize_grid_mode
from repro.sweep.cache import fingerprint_blob
from repro.kernels.kernel import Kernel
from repro.sweep.dataset import KernelRecord, ScalingDataset
from repro.sweep.runner import (
    ProgressCallback,
    SweepRunner,
    check_kernel_list,
)
from repro.sweep.space import PAPER_SPACE, ConfigurationSpace

MANIFEST_NAME = "manifest.json"

#: Default kernels per checkpointed chunk: a lost chunk costs at most
#: this many kernel grids of recomputation.
DEFAULT_CHUNK_SIZE = 16


@dataclass(frozen=True)
class CampaignReport:
    """What a campaign did: chunk accounting and quarantined kernels."""

    total_kernels: int
    total_chunks: int
    resumed_chunks: int
    executed_chunks: int
    quarantined: Mapping[str, str]

    @property
    def quarantined_count(self) -> int:
        """Number of kernels quarantined during the campaign."""
        return len(self.quarantined)

    def summary_lines(self) -> List[str]:
        """Human-readable summary, one line per fact."""
        lines = [
            f"campaign: {self.total_kernels} kernels in "
            f"{self.total_chunks} chunks "
            f"({self.resumed_chunks} resumed from journal, "
            f"{self.executed_chunks} executed)"
        ]
        for name in sorted(self.quarantined):
            lines.append(
                f"quarantined {name}: {self.quarantined[name]}"
            )
        return lines


class CampaignRunner:
    """Checkpointing wrapper around a sweep runner.

    Partitions the kernel list into chunks, runs each through the
    inner runner (:class:`SweepRunner` by default; a
    :class:`~repro.sweep.parallel.ParallelSweepRunner` works the same
    way), and journals every completed chunk before starting the next.
    ``strict=False`` (the default for campaigns) quarantines failing
    kernels instead of aborting; ``strict=True`` restores fail-fast.
    """

    def __init__(
        self,
        journal_dir: Union[str, Path],
        runner=None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        strict: bool = False,
    ):
        if chunk_size < 1:
            raise CampaignError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self._journal = Path(journal_dir)
        self._runner = runner if runner is not None else SweepRunner()
        self._chunk_size = chunk_size
        self._strict = strict

    @property
    def journal_dir(self) -> Path:
        """Where this campaign checkpoints."""
        return self._journal

    def run(
        self,
        kernels: Sequence[Kernel],
        space: ConfigurationSpace = PAPER_SPACE,
        progress: Optional[ProgressCallback] = None,
        resume: bool = False,
    ) -> Tuple[ScalingDataset, CampaignReport]:
        """Run (or resume) the campaign; returns (dataset, report).

        With ``resume=True``, completed chunks recorded in a matching
        journal are loaded from their shards instead of re-simulated;
        a journal written by a different campaign (other kernels,
        space, engine, or chunking) raises :class:`CampaignError`.
        *progress* receives cumulative ``(rows_done, rows_total)``
        ticks, counting resumed rows too.
        """
        check_kernel_list(kernels)
        names = [k.full_name for k in kernels]
        chunks = [
            list(kernels[i:i + self._chunk_size])
            for i in range(0, len(kernels), self._chunk_size)
        ]
        fingerprint = self._fingerprint(names, space)

        manifest = self._load_manifest() if resume else None
        if manifest is not None and manifest.get("fingerprint") != fingerprint:
            raise CampaignError(
                f"journal at {self._journal} was written by a different "
                "campaign (fingerprint mismatch); choose another journal "
                "directory or start without resume"
            )
        if manifest is None:
            self._journal.mkdir(parents=True, exist_ok=True)
            manifest = {
                "fingerprint": fingerprint,
                "kernels": names,
                "chunk_size": self._chunk_size,
                "space": space.to_dict(),
                "chunks": {},
            }
            self._write_manifest(manifest)

        total = len(kernels)
        done_rows = 0
        parts: Dict[int, np.ndarray] = {}
        quarantined: Dict[str, str] = {}
        resumed = executed = 0

        for index, chunk in enumerate(chunks):
            entry = manifest["chunks"].get(str(index))
            if entry is not None and entry.get("status") == "done":
                perf, chunk_quarantine = self._load_shard(
                    self._journal / entry["shard"], chunk, space
                )
                resumed += 1
            else:
                chunk_dataset = self._runner.run(
                    chunk, space, strict=self._strict
                )
                perf = chunk_dataset.perf
                chunk_quarantine = chunk_dataset.quarantined
                shard_name = f"chunk_{index:04d}.npz"
                self._write_shard(
                    self._journal / shard_name, chunk, perf,
                    chunk_quarantine,
                )
                manifest["chunks"][str(index)] = {
                    "status": "done",
                    "shard": shard_name,
                    "quarantined": chunk_quarantine,
                }
                self._write_manifest(manifest)
                executed += 1
            parts[index] = perf
            quarantined.update(chunk_quarantine)
            done_rows += len(chunk)
            if progress is not None:
                progress(done_rows, total)

        perf = np.concatenate(
            [parts[i] for i in range(len(chunks))], axis=0
        )
        records = [KernelRecord.from_full_name(name) for name in names]
        dataset = ScalingDataset(
            space, records, perf, quarantined=quarantined
        )
        report = CampaignReport(
            total_kernels=total,
            total_chunks=len(chunks),
            resumed_chunks=resumed,
            executed_chunks=executed,
            quarantined=dict(quarantined),
        )
        return dataset, report

    # ------------------------------------------------------------------
    # Journal I/O
    # ------------------------------------------------------------------

    def _fingerprint(
        self, names: Sequence[str], space: ConfigurationSpace
    ) -> str:
        """Identity of this campaign's inputs and execution settings.

        The payload layout is load-bearing: existing journals store
        this hash, so changing a key or adding a field orphans every
        resumable campaign on disk. The engine value is the
        descriptor-derived fingerprint material
        (:func:`repro.gpu.engine.engine_fingerprint`), which for the
        built-in engines is byte-identical to the pre-registry enum
        values.
        """
        engine = getattr(self._runner, "engine_name", "interval")
        grid_mode = getattr(self._runner, "grid_mode_name", "batch")
        return fingerprint_blob(
            {
                "kernels": list(names),
                "space": space.to_dict(),
                "chunk_size": self._chunk_size,
                "engine": engine_fingerprint(engine),
                "grid_mode": normalize_grid_mode(grid_mode),
            }
        )

    def _load_manifest(self) -> Optional[dict]:
        path = self._journal / MANIFEST_NAME
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CampaignError(
                f"corrupt campaign manifest at {path}: {exc}"
            ) from exc
        if not isinstance(manifest.get("chunks"), dict):
            raise CampaignError(
                f"corrupt campaign manifest at {path}: no chunk table"
            )
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        atomic_write_text(
            self._journal / MANIFEST_NAME, json.dumps(manifest, indent=1)
        )

    def _write_shard(
        self,
        path: Path,
        chunk: Sequence[Kernel],
        perf: np.ndarray,
        quarantined: Mapping[str, str],
    ) -> None:
        metadata = {
            "kernels": [k.full_name for k in chunk],
            "quarantined": dict(quarantined),
        }
        with atomic_path(path) as tmp:
            with open(tmp, "wb") as handle:
                np.savez_compressed(
                    handle,
                    perf=perf,
                    metadata=np.array(json.dumps(metadata)),
                )

    def _load_shard(
        self,
        path: Path,
        chunk: Sequence[Kernel],
        space: ConfigurationSpace,
    ) -> Tuple[np.ndarray, Dict[str, str]]:
        """A completed chunk's tensor, cross-checked against the plan."""
        if not path.exists():
            raise CampaignError(
                f"journal shard {path} is missing; the journal is "
                "incomplete — start the campaign without resume"
            )
        try:
            with np.load(path, allow_pickle=False) as archive:
                perf = archive["perf"]
                metadata = json.loads(str(archive["metadata"]))
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            raise CampaignError(
                f"corrupt journal shard at {path}: {exc}"
            ) from exc
        expected_names = [k.full_name for k in chunk]
        if metadata.get("kernels") != expected_names:
            raise CampaignError(
                f"journal shard {path} holds different kernels than the "
                "campaign plan; the journal does not match this campaign"
            )
        expected_shape = (len(chunk),) + space.shape
        if perf.shape != expected_shape:
            raise CampaignError(
                f"journal shard {path} has shape {perf.shape}, "
                f"expected {expected_shape}"
            )
        return perf, dict(metadata.get("quarantined", {}))
