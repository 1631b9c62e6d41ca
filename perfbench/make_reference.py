"""Regenerate reference.json: the outputs of every cell any seed can draw, as
the current program computes them.  Run from the root of a checkout:

    python3 perfbench/make_reference.py

Only regenerate it on purpose: the benchmark checks later commits against
it, so rewriting it from a wrong program hides the defect.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import REFERENCE
from runner import WORK_DIR, run_child
from workloads import WORKLOADS, cell_key


def main() -> int:
    work = WORK_DIR / "reference"
    work.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for wl in WORKLOADS.values():
            steps = wl.universe()
            child = run_child(work, wl.name, wl.modules(), steps, work / f"cache-{wl.name}",
                              False, 3600.0)
            if child.returncode != 0:
                print(f"{wl.name}: child failed\n{child.stderr_tail}", file=sys.stderr)
                return 1
            expected = {cell_key(s.experiment, c) for s in steps for c in s.cells()}
            got = {cell_key(r["experiment"], r["parameters"]): r["outputs"] for r in child.records}
            if expected - got.keys():
                print(f"{wl.name}: {len(expected - got.keys())} cells not emitted", file=sys.stderr)
                return 1
            reference.update(got)
            print(f"{wl.name}: {len(got)} cells, {child.wall_s:.1f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # one cell per line, so a regenerated file diffs cell by cell
    lines = [f"{json.dumps(k)}: {json.dumps(reference[k], sort_keys=True)}" for k in sorted(reference)]
    REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
