#!/usr/bin/env python3
"""Regenerate perfbench/golden.json from the current program's outputs.

Usage (from the root of a checkout): python3 perfbench/make_golden.py

The stored values are the outputs of the jobs with fixed inputs (``Job.fixed``):
the first failing law and counterexample of each mutation job, and sha256
digests of emitted documents and reports.  Only regenerate at a commit whose
outputs are known to be right; a later change must reproduce them exactly.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import GOLDEN_PATH, WORKLOADS  # noqa: E402


def main() -> int:
    golden = {}
    for name in ("corpus", "cli"):
        wl = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            inputs = wl.setup(0, Path(tmp))
            ctx: dict = {}
            for job in wl.jobs(inputs, Path(tmp)):
                value = job.run(ctx)
                if job.fixed:
                    golden[f"{name}:{job.id}"] = job.check(value)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} golden values to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
