"""Measure the baseline: every workload on seeds 1..10 (run.py --trace 0,
one fresh benchmark process per run, workloads interleaved seed by seed so
slow spells of a shared machine spread over all of them), then one traced
run per workload on the default seed.  Run from the root of a checkout:

    python3 perfbench/baseline.py [--out perfbench/baseline.json]

The output holds, per workload and end-to-end metric, the ten run values,
their median, quartiles, sample count and spread (quartile distance over
median), the cells attempted and failed, and the traced run's per-layer
table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

SEEDS = range(1, 11)
HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int, trace: int) -> dict:
    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()

    runs = {w: [] for w in WORKLOADS}
    for seed in SEEDS:
        for w in WORKLOADS:
            t0 = time.monotonic()
            runs[w].append(bench(w, seed, 0))
            print(f"{w} seed {seed}: {time.monotonic() - t0:.1f} s "
                  f"correct {runs[w][-1]['correct']}", flush=True)

    out = {
        "machine": {"cpus": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "platform": platform.platform()},
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for w, results in runs.items():
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] for r in results),
            "end_to_end": {},
        }
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            entry["end_to_end"][name] = {
                "unit": results[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                "n": len(values), "spread": (q3 - q1) / med, "values": values,
            }
        traced = bench(w, DEFAULT_SEED, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_correct"] = traced["correct"]
        out["workloads"][w] = entry
        print(f"{w}: " + ", ".join(f"{k} {v['median']:.4g} (spread {v['spread']:.3f})"
                                   for k, v in entry["end_to_end"].items()), flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
