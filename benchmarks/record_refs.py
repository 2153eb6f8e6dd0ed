#!/usr/bin/env python3
"""Record the mask references the benchmark checks its outputs against.

    python3 benchmarks/record_refs.py

Runs every workload once at seed 0 and at the held-out seed (full size)
and at seed 0 (small size), and writes the SHA-256 of every decided mask
to ``benchmarks/refs.json``. Run it only at a commit whose outputs are
trusted: the references define what the benchmark calls correct.
"""

import json
import shutil
import sys

import layers
import run
from workloads import WORKLOADS


def main() -> int:
    psynd = run.load_psynd()
    refs = {"full": {}, "small": {}}
    sink: list = []
    capture = layers.install_capture(psynd, sink)
    plan = [(False, seed) for seed in (0, run.HELD_OUT_SEED)] + [(True, 0)]
    for small, seed in plan:
        for workload in WORKLOADS:
            workdir = run.WORK_ROOT / f"record-{workload}-{seed}"
            try:
                prepared = run.prepare(psynd, workload, seed, small, workdir)
                res = run.run_pass(psynd, prepared, None, sink)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if res.failures:
                print("\n".join(res.failures), file=sys.stderr)
                return 1
            size = "small" if small else "full"
            refs[size].setdefault(workload, {})[str(seed)] = res.digests
            print(f"{size} {workload} seed {seed}: {len(res.digests)} operations")
    capture.undo()
    run.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
