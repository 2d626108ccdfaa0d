"""The study workload's set-up, run in a fresh interpreter.

Imports the program, builds the catalog and runs one cold study plus
classify, then prints a digest of the result so the parent can check
it against its own. ``--spans-out PATH`` records study spans first.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, tracing  # noqa: E402


def study_digest(dataset, taxonomy) -> dict:
    """What identifies one study's output: perf bits and category counts."""
    return {
        "perf_sha256": hashlib.sha256(dataset.perf.tobytes()).hexdigest(),
        "categories": {
            category.value: count
            for category, count in taxonomy.category_counts().items()
        },
    }


def main(argv) -> int:
    common.require_program()
    recorder = None
    if argv[:1] == ["--spans-out"]:
        recorder = tracing.Recorder()
        tracing.install_study(recorder)
    from repro.suites import registry
    from repro.sweep import PAPER_SPACE, SweepRunner
    from repro.taxonomy import classifier

    dataset = SweepRunner(grid_mode="study").run(
        registry.all_kernels(), PAPER_SPACE
    )
    taxonomy = classifier.classify(dataset)
    if recorder is not None:
        recorder.dump(argv[1])
    print(json.dumps(study_digest(dataset, taxonomy), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
