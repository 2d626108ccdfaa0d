"""``gpuscale serve`` as a real process: boot, query, SIGTERM, drain."""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.service.loadgen import fetch

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8000
        assert args.engine == "interval"
        assert args.max_batch == 64
        assert args.max_wait_ms == 0.0

    def test_serve_engine_choices_are_registry_backed(self):
        from repro.gpu.engine import engine_names

        for name in engine_names():
            args = build_parser().parse_args(["serve", "--engine", name])
            assert args.engine == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--engine", "warp9"])

    def test_serve_accepts_cache_flags(self):
        args = build_parser().parse_args(
            ["serve", "--no-cache", "--port", "0"]
        )
        assert args.no_cache
        assert args.port == 0


class TestServeProcess:
    @pytest.fixture
    def server(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--no-cache",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
            cwd=tmp_path,
        )
        try:
            line = process.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            assert match, f"no listen line, got {line!r}"
            yield process, int(match.group(1)), line
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)

    def test_boot_query_sigterm_drain(self, server):
        process, port, listen_line = server
        assert "engine=interval" in listen_line
        assert "max_batch=64" in listen_line

        async def probe():
            deadline = time.monotonic() + 10
            while True:
                try:
                    status, body = await fetch(
                        "127.0.0.1", port, "GET", "/healthz"
                    )
                    return status, json.loads(body)
                except (ConnectionError, OSError):
                    if time.monotonic() > deadline:
                        raise
                    await asyncio.sleep(0.05)

        status, health = asyncio.run(probe())
        assert status == 200
        assert health["status"] == "ok"

        async def simulate():
            return await fetch(
                "127.0.0.1", port, "POST", "/v1/simulate",
                {
                    "kernel": "rodinia/bfs.kernel1",
                    "config": {
                        "cu_count": 44, "engine_mhz": 1000,
                        "memory_mhz": 1250,
                    },
                },
            )

        status, body = asyncio.run(simulate())
        assert status == 200
        assert json.loads(body)["items_per_second"] > 0

        process.send_signal(signal.SIGTERM)
        remaining = process.communicate(timeout=30)[0]
        assert process.returncode == 0
        assert "drained cleanly" in remaining
