"""Spawning child interpreters one at a time and measuring them from the
parent: spawn-to-entry set-up, first record on stdout, and CPU time and peak
RSS from wait4.

Each vCPU of the machine the baseline comes from shares its core with other
tenants, and its speed flips between two levels about 1.45x apart, in spells
of seconds to minutes, independently of the other vCPU.  So every child runs
on one CPU (CHILD_CPU) and times `calibration_burst` every 50 ms on that CPU
(child.py).  `speed_factor` turns those bursts into the ratio of the
reference speed to the speed the child saw; the timings are reported raw
and times that factor, as seconds at the reference speed.

The program's timings move less than the burst's between spells: regressing
log time on log burst speed over 18 samples each, at burst speeds from 0.62
to 1.38, gave slopes of 0.58-0.67 for spectral-window and 0.83-0.87 for
trace-grid and petersson-window.  The factor is therefore the burst speed
ratio raised to SPEED_EXPONENT; 0.7 gave the smallest largest per-sample
spread over those three workloads (about 7 %, against 10 % at 1.0 and
10-13 % raw).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from subprocess import PIPE, Popen
from typing import Dict, List, Optional, Sequence

from workloads import Step

CHILD = Path(__file__).resolve().parent / "child.py"
WORK_DIR = Path(".bench_work")  # inside the checkout; removed after each run
CHILD_CPU = min(os.sched_getaffinity(0))
# the reference speed: calibration_burst takes this long.  It only sets the
# scale; it is about the burst's time on a fast spell of the baseline machine
REF_BURST_S = 0.0007
SPEED_EXPONENT = 0.7


def speed_factor(bursts: Sequence[Sequence[float]], lo: float, hi: float) -> Optional[float]:
    """Mean of REF_BURST_S / burst time over the bursts started in [lo, hi),
    raised to SPEED_EXPONENT: raw seconds times this are seconds at the
    reference speed.  The bursts are evenly spaced in time, so the mean of
    the reciprocal weights each stretch of time by the work it could do.
    None when there is no burst."""
    ratios = [REF_BURST_S / d for t, d in bursts if lo <= t < hi]
    return (sum(ratios) / len(ratios)) ** SPEED_EXPONENT if ratios else None


@dataclass
class ChildRun:
    returncode: int
    # raw: as the clocks read them
    setup_s: float = 0.0
    wall_s: float = 0.0
    first_record_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    # speed factors (see speed_factor) before run_experiment, after, and overall
    setup_speed: float = 1.0
    run_speed: float = 1.0
    speed: float = 1.0
    stdout_bytes: int = 0
    records: List[dict] = field(default_factory=list)
    result: Optional[dict] = None
    stderr_tail: str = ""

    def raw(self) -> Dict[str, float]:
        return {"setup_s": self.setup_s, "wall_s": self.wall_s,
                "first_record_s": self.first_record_s, "cpu_s": self.cpu_s}

    def at_reference_speed(self) -> Dict[str, float]:
        """The timings in seconds at the reference speed."""
        after_entry = self.first_record_s - self.setup_s
        return {
            "setup_s": self.setup_s * self.setup_speed,
            "wall_s": self.wall_s * self.run_speed,
            "first_record_s": self.setup_s * self.setup_speed + after_entry * self.run_speed,
            "cpu_s": self.cpu_s * self.speed,
        }


def run_child(work: Path, tag: str, modules: Sequence[str], steps: Sequence[Step],
              cache_dir: Path, trace: bool, timeout_s: float) -> ChildRun:
    """Run every step in one fresh interpreter with its own cache directory;
    the child is killed after timeout_s."""
    plan_steps = []
    for i, step in enumerate(steps):
        cfg = work / f"{tag}-step{i}.cfg"
        cfg.write_text(step.config_text())
        plan_steps.append({"experiment": step.experiment, "config": str(cfg), "threads": step.threads})
    result_path = work / f"{tag}-result.json"
    plan = work / f"{tag}-plan.json"
    plan.write_text(json.dumps({"modules": list(modules), "steps": plan_steps, "cpu": CHILD_CPU,
                                "trace": trace, "result": str(result_path)}))
    src = str(Path.cwd() / "src")
    # records reach stdout line by line, as on a terminal, whatever the
    # caller's PYTHONUNBUFFERED; .pyc files come from the parent's compileall
    env = dict(os.environ, HECKE_SPECTRA_CACHE=str(cache_dir), PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    stderr_path = work / f"{tag}-stderr.txt"

    with stderr_path.open("wb") as err:
        t_spawn = time.monotonic()
        proc = Popen([sys.executable, str(CHILD), str(plan)], stdout=PIPE, stderr=err, env=env)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            first = None
            lines = []
            for raw in proc.stdout:
                if first is None:
                    first = time.monotonic()
                lines.append(raw)
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()

    run = ChildRun(proc.returncode)
    run.stdout_bytes = sum(len(x) for x in lines)
    for raw in lines:
        try:
            rec = json.loads(raw)
        except ValueError:
            continue
        if isinstance(rec, dict) and {"experiment", "parameters", "outputs"} <= rec.keys():
            run.records.append(rec)
    run.stderr_tail = stderr_path.read_text(errors="replace")[-2000:]
    if proc.returncode != 0 or not result_path.exists():
        run.returncode = run.returncode or 1
        return run
    run.result = json.loads(result_path.read_text())
    t_entry, t_end = run.result["t_first_entry"], run.result["t_end"]
    run.setup_s = t_entry - t_spawn
    run.wall_s = t_end - t_entry
    run.first_record_s = (first if first is not None else t_end) - t_spawn
    run.cpu_s = usage.ru_utime + usage.ru_stime
    run.peak_rss_mb = usage.ru_maxrss / 1024.0
    bursts = run.result["bursts"]
    run.speed = speed_factor(bursts, t_spawn, t_end) or 1.0
    run.setup_speed = speed_factor(bursts, t_spawn, t_entry) or run.speed
    run.run_speed = speed_factor(bursts, t_entry, t_end) or run.speed
    return run

