"""Benchmark of the hecke-spectra CLI sweeps: one command per workload, run
from the root of a checkout.

    python3 perfbench/run.py --workload trace-grid [--seed 1] [--seconds 24] [--trace 0|1]

Each sample is a fresh interpreter (two for arith-memo: a cold and a warm
pass on one cache directory), started one at a time from this process with
a fresh temporary HECKE_SPECTRA_CACHE inside the checkout.  Samples repeat
until --seconds is used up (at least three).  Every cell of every sample is
checked (see checks.py).

--trace 0 prints the end-to-end metrics: the median over samples, with
quartiles, the sample count and the raw median on the lines above the
result.  The timings are at the reference speed (see runner.py).  --trace 1 runs
one untraced and one traced sample and prints the per-layer metrics from the
traced one, plus the tracing overhead.  The last line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import spans
from checks import Checker
from runner import WORK_DIR, ChildRun, run_child
from workloads import DEFAULT_SEED, IMPORT_ORDER, WORKLOADS, Step, Workload

MIN_SAMPLES = 3
RUN_LIMIT_S = 170.0  # every child is killed by then, so the run exits within 180 s

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "first_record_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
}


@dataclass
class Sample:
    children: List[ChildRun] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)
    memo_bytes: int = 0

    @property
    def ok(self) -> bool:
        return all(c.returncode == 0 for c in self.children)

    def end_to_end(self, raw: bool = False) -> Dict[str, float]:
        """wall_s, first_record_s, cpu_s and peak_rss_mb; the timings at the
        reference speed (runner.py), or as the clocks read them."""
        times = [c.raw() if raw else c.at_reference_speed() for c in self.children]
        return {
            "wall_s": sum(t["wall_s"] for t in times),
            "first_record_s": times[0]["first_record_s"],
            "cpu_s": sum(t["cpu_s"] for t in times),
            "peak_rss_mb": max(c.peak_rss_mb for c in self.children),
        }


def run_sample(wl: Workload, steps: List[Step], work: Path, idx: int, trace: bool,
               checker: Checker, deadline: float) -> Sample:
    cache = work / f"cache-{idx}"
    sample = Sample()
    for p in range(wl.passes):
        child = run_child(work, f"s{idx}p{p}", wl.modules(), steps, cache, trace,
                          max(1.0, deadline - time.monotonic()))
        attempted, failed, messages = checker.check_pass(steps, child.records)
        if child.returncode != 0:
            messages.append(f"child exited with {child.returncode}: {child.stderr_tail.strip()}")
        sample.children.append(child)
        sample.attempted += attempted
        sample.failed += failed
        sample.messages += messages
    memo = cache / "memo.jsonl"
    sample.memo_bytes = memo.stat().st_size if memo.exists() else 0
    return sample


def _quartiles(values: List[float]):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end_metrics(samples: List[Sample], raw: bool = False) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = defaultdict(list)
    for s in samples:
        if not s.ok:
            continue
        for name, v in s.end_to_end(raw).items():
            values[name].append(v)
        values["setup_s"] += [(c.raw() if raw else c.at_reference_speed())["setup_s"]
                              for c in s.children]
    return values


def _sum_aggregates(children: List[ChildRun]) -> Dict[str, Dict[str, float]]:
    total: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for c in children:
        for name, agg in spans.aggregate(c.result["spans"]).items():
            for k, v in agg.items():
                total[name][k] += v
    return total


def layer_metrics(wl: Workload, plain: Sample, traced: Sample) -> Dict[str, float]:
    """Per-layer metrics of the traced sample.  A layer whose module the
    workload never imports reads 0; a name that no longer exists in an
    imported module is absent."""
    imported = set(wl.modules())
    installed = set(traced.children[0].result["installed"])
    agg = _sum_aggregates(traced.children)
    m: Dict[str, float] = {}

    def present(owner_path: str, name: str) -> Optional[bool]:
        if owner_path.split(".")[0] not in imported:
            return False
        return True if name in installed else None

    for owner, _, name, _ in spans.WRAPS:
        state = present(owner, name)
        if state is not None:
            m[f"{name}.calls"] = int(agg[name]["calls"]) if state else 0
            m[f"{name}.self_s"] = agg[name]["self_s"] if state else 0.0
    for owner, _, name in spans.COUNTS:
        state = present(owner, name)
        if state is not None:
            m[name] = sum(c.result["counts"].get(name, 0) for c in traced.children) if state else 0
    for owner, attr, name in spans.LRU_CACHES:
        if owner not in imported:
            m[f"{name}.calls"], m[f"{name}.hit_ratio"] = 0, 0.0
            continue
        stats = [c.result["lru"][name] for c in traced.children if name in c.result["lru"]]
        if stats:
            hits = sum(s["hits"] for s in stats)
            calls = hits + sum(s["misses"] for s in stats)
            m[f"{name}.calls"], m[f"{name}.hit_ratio"] = calls, hits / calls if calls else 0.0
    entries = [c.result["table_entries"] for c in traced.children]
    if None not in entries:
        m["class_numbers.table_entries"] = max(entries)
    for mod in IMPORT_ORDER:
        m[f"{mod}.import_s"] = plain.children[0].result["import_s"].get(mod, 0.0)

    if "harness.main" in installed and "harness.run_experiment" in installed:
        m["harness.emit.self_s"] = agg["harness.main"]["total_s"] - agg["harness.run_experiment"]["total_s"]
    m["harness.emit.bytes"] = sum(c.stdout_bytes for c in traced.children)
    if "harness.cache_get" in installed:
        hits = int(agg["harness.cache_get"]["hit"])
        misses = int(agg["harness.cache_get"]["miss"])
        m["harness.memo.hits"], m["harness.memo.misses"] = hits, misses
        m["harness.memo.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        first = spans.aggregate(traced.children[0].result["spans"])
        m["harness.memo.first_pass_hits"] = int(first.get("harness.cache_get", {}).get("hit", 0))
    m["harness.memo.bytes"] = traced.memo_bytes
    m["petersson.c_terms"] = sum(
        r["provenance"]["truncation"]["c_max"] for c in traced.children for r in c.records
        if r["experiment"] == "petersson")
    m["harness.worker_threads"] = max(spans.worker_threads(c.result["spans"]) for c in traced.children)
    raw_wall = plain.end_to_end(raw=True)["wall_s"]
    m["harness.parallelism"] = sum(c.result["run_cpu_s"] for c in plain.children) / raw_wall
    m["trace.overhead_s"] = traced.end_to_end()["wall_s"] - plain.end_to_end()["wall_s"]
    return m


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".self_s")):
        return "s"
    if name.endswith(("hit_ratio", "parallelism")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not Path("src/hecke_spectra/harness.py").is_file():
        print("run from the root of a hecke-spectra checkout: src/hecke_spectra is missing",
              file=sys.stderr)
        return 2
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    sys.path.insert(0, str(Path.cwd() / "src"))  # the oracles in checks.py
    wl = WORKLOADS[args.workload]
    steps = wl.steps(args.seed)
    checker = Checker()
    compileall.compile_dir("src", quiet=1)

    work = WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        samples: List[Sample] = []
        if args.trace:
            samples = [run_sample(wl, steps, work, i, trace, checker, deadline)
                       for i, trace in enumerate((False, True))]
        else:
            longest = 0.0
            while len(samples) < MIN_SAMPLES or time.monotonic() - t_start + longest <= args.seconds:
                t0 = time.monotonic()
                samples.append(run_sample(wl, steps, work, len(samples), False, checker, deadline))
                longest = max(longest, time.monotonic() - t0)
                if time.monotonic() + longest > deadline:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    for msg in [m for s in samples for m in s.messages][:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    if not any(s.ok for s in samples):
        print("no sample completed; no metrics", file=sys.stderr)
        return 1

    print(f"workload {wl.name}  seed {args.seed}  samples {len(samples)}  "
          f"cells attempted {attempted}  failed {failed}  failed_frac {failed / attempted:.6f}")
    metrics = {}
    if args.trace:
        if not (samples[0].ok and samples[1].ok):
            print("traced or untraced sample failed; no per-layer metrics", file=sys.stderr)
            return 1
        for name, value in sorted(layer_metrics(wl, samples[0], samples[1]).items()):
            unit = layer_unit(name)
            print(f"  {name:48s} {value:>14.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        speeds = [c.speed for s in samples if s.ok for c in s.children]
        print(f"  speed factor: median {statistics.median(speeds):.4f}  "
              f"min {min(speeds):.4f}  max {max(speeds):.4f}")
        raw = end_to_end_metrics(samples, raw=True)
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s}  n  unit  {'raw median':>12s}")
        for name, values in end_to_end_metrics(samples).items():
            q1, med, q3 = _quartiles(values)
            print(f"  {name:16s} {med:12.6f} {q1:12.6f} {q3:12.6f}  {len(values)} {END_TO_END[name]:4s}  "
                  f"{statistics.median(raw[name]):12.6f}")
            metrics[name] = {"value": med, "unit": END_TO_END[name]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
