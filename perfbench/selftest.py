"""Self-test of the benchmark itself, run from the root of a checkout:

    python3 perfbench/selftest.py

- the correctness gate: a perturbed output and a missing record each fail
  exactly one cell, on records of a real run, and a child that exits
  non-zero fails every cell it did not emit;
- tracing: a wrapped name that no longer exists is skipped, not fatal;
- run isolation: the traced trace-grid and petersson-sweep samples ran
  their cells on two threads;
- BENCHMARK.json names exactly the metrics run.py prints.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import time
import types
from pathlib import Path

import run
import spans
from checks import Checker
from runner import WORK_DIR, run_child
from workloads import DEFAULT_SEED, WORKLOADS, Step


def check(cond: bool, what: str) -> None:
    print(f"[{'ok' if cond else 'FAIL'}] {what}", flush=True)
    if not cond:
        raise SystemExit(1)


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    checker = Checker()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    work = WORK_DIR / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in ("trace-grid", "petersson-sweep"):
            wl = WORKLOADS[name]
            steps = wl.steps(DEFAULT_SEED)
            plain = run.run_sample(wl, steps, work, 0, False, checker, time.monotonic() + 170)
            traced = run.run_sample(wl, steps, work, 1, True, checker, time.monotonic() + 170)
            check(plain.ok and plain.failed == 0 and traced.failed == 0,
                  f"{name}: {plain.attempted} cells, none failed")
            records = plain.children[0].records

            bad = copy.deepcopy(records)
            key = "total" if name == "trace-grid" else "value"
            bad[len(bad) // 2]["outputs"][key] += 1e-4
            attempted, failed, _ = checker.check_pass(steps, bad)
            check(failed == 1, f"{name}: perturbing one output by 1e-4 fails one cell "
                               f"(failed_frac 0 -> {failed / attempted:.2e})")
            attempted, failed, _ = checker.check_pass(steps, records[1:])
            check(failed == 1, f"{name}: a record not emitted fails its cell")

            layers = run.layer_metrics(wl, plain, traced)
            check(layers["harness.worker_threads"] == 2,
                  f"{name}: cells ran on {layers['harness.worker_threads']} threads (want 2)")
            names = {m["name"] for m in bench["per_layer"]}
            check(set(layers) == names, f"{name}: per-layer metrics match BENCHMARK.json "
                                        f"({sorted(set(layers) ^ names)})")
            e2e = run.end_to_end_metrics([plain])
            check(set(e2e) == {m["name"] for m in bench["end_to_end"]},
                  f"{name}: end-to-end metrics match BENCHMARK.json")

        # a child that exits non-zero: the cells it never emitted fail
        good = Step("trace", {"kind": "new", "N": "1", "k": "12", "n": "1,2,3"}, 1)
        bogus = Step("trace", {"kind": "bogus", "N": "1", "k": "12", "n": "1,2"}, 1)
        child = run_child(work, "exit", ["arithmetic", "class_numbers", "special_functions",
                                         "eichler_selberg", "harness"],
                          [good, bogus], work / "cache-exit", False, 60.0)
        attempted, failed, _ = checker.check_pass([good, bogus], child.records)
        check(child.returncode == 2 and (attempted, failed) == (5, 2),
              f"a child exiting with {child.returncode} fails the {failed} cells it did not emit")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a name the program no longer has: skipped, its metric absent
    fake = {"harness": types.SimpleNamespace(main=lambda: 0),
            "eichler_selberg": types.SimpleNamespace()}
    installed = spans.Tracer().install(fake)
    check(installed == ["harness.main"], "missing wrapped names are skipped")
    check({w["name"]: w["why"] for w in bench["workloads"]} ==
          {w.name: w.why for w in WORKLOADS.values()},
          "BENCHMARK.json lists every workload with its reason")
    return 0


if __name__ == "__main__":
    sys.exit(main())
