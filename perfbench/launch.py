"""Start ``gpuscale serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/launch.py SPANS_OUT serve [serve flags...]``.
Installs :func:`perfbench.tracing.install_service` in this process,
then hands the remaining arguments to the ``gpuscale`` entry point, so
the process layout is the same as an untraced ``gpuscale serve``. The
spans are written to ``SPANS_OUT`` after the server has drained.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, tracing  # noqa: E402


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    common.require_program()
    recorder = tracing.Recorder()
    tracing.install_service(recorder)
    from repro.cli import main as gpuscale

    status = gpuscale(cli_args)
    recorder.dump(spans_out)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
