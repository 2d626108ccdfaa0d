"""Lifecycle of one ``gpuscale serve`` subprocess under benchmark.

The server runs the shipped default flags; the benchmark sets only
the port (``0``, read back from the server's banner), a fresh cache
directory and ``--workers``.
"""

from __future__ import annotations

import http.client
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench import common

HOST = "127.0.0.1"
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_BANNER = re.compile(r"listening on http://[^:]+:(\d+)")


def serve_flags(workers: int, cache_dir: Path) -> List[str]:
    return [
        "serve", "--port", "0", "--cache-dir", str(cache_dir),
        "--workers", str(workers),
    ]


class Server:
    """One server process; ``start()`` returns the set-up time."""

    def __init__(
        self, workers: int, cache_dir: Path,
        spans_out: Optional[Path] = None,
    ):
        self.workers = workers
        self.cache_dir = cache_dir
        self.spans_out = spans_out
        self.flags = serve_flags(workers, cache_dir)
        self.port = 0
        self._proc: Optional[subprocess.Popen] = None
        self._log = None

    def start(self) -> float:
        if self.cache_dir.exists():
            shutil.rmtree(self.cache_dir)
        self.cache_dir.mkdir(parents=True)
        if self.spans_out is None:
            cmd = [sys.executable, "-m", "repro.cli", *self.flags]
        else:
            cmd = [
                sys.executable, str(common.BENCH / "launch.py"),
                str(self.spans_out), *self.flags,
            ]
        self._log = open(self.cache_dir.with_suffix(".log"), "w")
        started = time.perf_counter()
        self._proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log,
            env=common.child_env(), cwd=common.ROOT,
        )
        self.port = self._read_port(started + START_TIMEOUT_S)
        while True:
            if self._healthz() == 200:
                return time.perf_counter() - started
            if time.perf_counter() > started + START_TIMEOUT_S:
                raise common.BenchError("server never became healthy")
            time.sleep(0.002)

    def _read_port(self, give_up: float) -> int:
        stdout = self._proc.stdout
        while True:
            remaining = give_up - time.perf_counter()
            if remaining <= 0 or self._proc.poll() is not None:
                raise common.BenchError(
                    f"server did not start; see {self._log.name}"
                )
            ready, _, _ = select.select([stdout], [], [], remaining)
            if ready:
                line = stdout.readline().decode(errors="replace")
                match = _BANNER.search(line)
                if match:
                    return int(match.group(1))

    def _healthz(self) -> int:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            return conn.getresponse().status
        except OSError:
            return 0
        finally:
            conn.close()

    def get(self, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def post(self, path: str, body: bytes) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection(HOST, self.port, timeout=60)
        try:
            conn.request(
                "POST", path, body, {"Content-Type": "application/json"}
            )
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """Sum of peak RSS over the server and its child processes."""
        return common.peak_rss_mb(common.process_tree(self._proc.pid))

    def metrics(self) -> Dict[str, float]:
        status, body = self.get("/metrics")
        if status != 200:
            raise common.BenchError(f"/metrics answered {status}")
        return parse_metrics(body.decode())

    def stop(self) -> None:
        """SIGTERM (graceful drain); kill the whole tree if it hangs."""
        if self._proc is None:
            return
        tree = common.process_tree(self._proc.pid)
        if self._proc.poll() is None:
            self._proc.send_signal(signal.SIGTERM)
        try:
            self._proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            for pid in tree:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            self._proc.wait()
        _reap(tree[1:])
        self._proc.stdout.close()
        self._proc = None
        self._log.close()


def _reap(pids: List[int], timeout_s: float = 10.0) -> None:
    """Wait for the server's descendants to exit; kill stragglers."""
    give_up = time.perf_counter() + timeout_s
    alive = [pid for pid in pids if _running(pid)]
    while alive and time.perf_counter() < give_up:
        time.sleep(0.01)
        alive = [pid for pid in alive if _running(pid)]
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


_SAMPLE = re.compile(r"^([a-zA-Z_:][\w:]*)(\{([^}]*)\})?\s+(\S+)$")


def parse_metrics(text: str) -> Dict[str, float]:
    """Sum each Prometheus series over the serving scope.

    A fleet exports per-worker series plus ``worker="fleet"`` totals;
    a single process exports unlabelled totals. Either way the result
    is one total per ``name`` and per ``name{label=value}`` for the
    non-worker labels (e.g. ``gpuscale_cache_events_total{outcome=hit}``).
    """
    totals: Dict[str, float] = {}
    fleet = 'worker="fleet"' in text
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, value = match.group(1), match.group(3) or "", match.group(4)
        pairs = dict(
            part.strip().split("=", 1) for part in labels.split(",") if part.strip()
        )
        worker = pairs.pop("worker", None)
        if fleet and worker != '"fleet"':
            continue
        keys = [name] + [
            f"{name}{{{k}={v.strip(chr(34))}}}" for k, v in sorted(pairs.items())
        ]
        for key in keys:
            totals[key] = totals.get(key, 0.0) + float(value)
    return totals
