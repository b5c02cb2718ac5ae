"""Record every workload's reference outputs, per input seed.

The output check compares each output a run computes with the one
recorded here for its input seed: the train workload's warm-up loss,
the digest of each replay day's ``summary()``, and the digest of each
serve stream's final ``payload()`` (and of each set-up's warm-up).  Run
from the repository root::

    python3 perfbench/make_reference.py

It takes about 16 minutes on a 2-vCPU VM.  Re-record only when a change
is meant to alter what the program computes.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench.run import ROOT, import_program  # noqa: E402


def main() -> int:
    import_program()
    from perfbench.harness import REFERENCE_PATH, REFERENCE_SEEDS, record_outputs
    from perfbench.workloads import WORKLOADS

    work_dir = ROOT / ".perfbench_work" / "reference"
    table = {}
    try:
        for name, cls in WORKLOADS.items():
            table[name] = {}
            for seed in range(REFERENCE_SEEDS):
                workload = cls(seed, work_dir)
                workload.make_inputs()
                table[name][str(seed)] = record_outputs(workload)
            print(f"{name}: {REFERENCE_SEEDS} seeds", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
