"""Shared pieces: paths, the reference probe, statistics, run metadata.

Host adjustment: the benchmark host is shared, so its speed drifts
between and within runs. Every run times a fixed reference probe
(pure Python plus NumPy, nothing from the program) interleaved with
the measured work, and multiplies each host time by ``REF_PROBE_MS``
over the probe time (rates by the inverse). Study operations and all
set-ups are each adjusted by the probes on either side of them; the
load of a served workload, whose probes run only between short load
windows, by the median probe of the run. ``serve-points`` load is
the exception: most of its latency is the server's fixed coalescing
timer, which a slower host does not stretch, so its latency and rates
are reported as measured (see ``layers.json``). Raw values and the
probe median are reported next to the adjusted ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
#: Scratch space for one run (caches, span dumps); inside the checkout.
WORK = ROOT / ".perfbench_work"

#: Probe time that adjusted metrics are normalised to, in ms. A fixed
#: constant: changing it rescales every adjusted metric.
REF_PROBE_MS = 2.0


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed set-up)."""


def require_program() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources at {SRC / 'repro'}; run from a checkout "
            "of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for program subprocesses: the checkout's sources
    first, and the sweep cache kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["GPUSCALE_CACHE_DIR"] = str(WORK / "default-cache")
    return env


#: NumPy operand of the probe: small, so the probe times NumPy's
#: per-call overhead (as the program's many small-array calls pay it),
#: not memory bandwidth.
_PROBE_ARRAY = np.linspace(1.0, 2.0, 64)


def probe_once() -> float:
    """One reference probe; returns its wall time in ms.

    Interpreter work (integer arithmetic, string keys into a dict) plus
    small-array NumPy calls: the mix that dominates the program's own
    time. On a 2-vCPU shared host its per-operation ratio tracks the
    study's latency more closely than a probe with large arrays does.
    """
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += (i * i) % 7
    table = {}
    for i in range(2500):
        table[str(i)] = i
    a = _PROBE_ARRAY
    for _ in range(150):
        a = np.sqrt(a * 1.0001 + 0.5)
    total += len(table) + int(a.sum() > 0)
    elapsed = (time.perf_counter() - start) * 1000.0
    if total <= 0:  # keeps the work observable
        raise AssertionError("probe arithmetic failed")
    return elapsed


class PairedProbe:
    """The probe run on two cores at once: here and in a helper process.

    The served workloads keep both of the host's cores busy (client,
    server, fleet workers), so their speed follows both cores; one
    call times the probe in this process and, at the same moment, in
    the helper, and reports the mean of the two.
    """

    def __init__(self) -> None:
        self._helper = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def once(self) -> float:
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        here = probe_once()
        there = float(self._helper.stdout.readline())
        return (here + there) / 2.0

    def __call__(self, repeats: int = 6) -> float:
        """Median of *repeats* paired probes, in ms."""
        return median([self.once() for _ in range(repeats)])

    def close(self) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()

    def __enter__(self) -> "PairedProbe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def adjust_time(value: float, probe_ms: float) -> float:
    """A host time scaled to the reference probe speed."""
    return value * REF_PROBE_MS / probe_ms


def adjust_rate(value: float, probe_ms: float) -> float:
    """A per-second rate scaled to the reference probe speed."""
    return value * probe_ms / REF_PROBE_MS


def bracketed(values: Sequence[float], probes: Sequence[float]) -> List[float]:
    """Adjust ``values[i]`` by the probes on either side of it.

    *probes* holds one more entry than *values*: ``probes[i]`` ran just
    before ``values[i]`` was measured and ``probes[i + 1]`` just after.
    """
    if len(probes) != len(values) + 1:
        raise ValueError("need one probe before and after each value")
    return [
        adjust_time(value, (probes[i] + probes[i + 1]) / 2.0)
        for i, value in enumerate(values)
    ]


def bit_equal(a, b) -> bool:
    """Float arrays equal bit for bit (shape included)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree(pid: int) -> List[int]:
    """*pid* and every live descendant, found through ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ")".
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    tree, frontier = [pid], [pid]
    while frontier:
        nxt = [c for p in frontier for c in children.get(p, [])]
        tree.extend(nxt)
        frontier = nxt
    return tree


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over *pids*, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def source_digest() -> str:
    """SHA-256 over the program's Python sources, path and content.

    Identifies the code under test where no git metadata exists (a
    plain checkout).
    """
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(**fields) -> Dict[str, object]:
    """Metadata stamped on every run record."""
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "probe_ref_ms": REF_PROBE_MS,
        **fields,
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit(record: Dict[str, object], result: Dict[str, object]) -> None:
    """Print the run record, then the result as the last stdout line."""
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    # The PairedProbe helper: one probe per input line, time on stdout.
    for _ in sys.stdin:
        print(probe_once(), flush=True)
