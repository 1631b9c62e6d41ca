"""One timed CLI invocation: a fresh interpreter that imports the modules its
experiments use, one at a time in dependency order, then runs
`hecke_spectra.harness.main` once per step, as `hecke-spectra` would.

    python3 perfbench/child.py PLAN.json

PLAN names the modules, the steps (experiment, config path, threads), whether
to trace, and the result file.  Records go to stdout, line-buffered as on a
terminal; timings (monotonic clock, shared with the parent) and, when traced,
the spans go to the result file once, after the last step.

The child runs on the one CPU the plan names, worker threads included, so
that its speed is the speed of that CPU.  From its first line to its last,
it also times a fixed pure-Python loop (`calibration_burst`, about 1 ms)
every CAL_PERIOD_S on its main thread, from a SIGALRM handler.  The parent
uses those times to express the child's timings at a reference machine
speed (see runner.py).
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

CAL_PERIOD_S = 0.05


class _Bin:
    """A binary float with a 53-bit mantissa, in the style of mpmath's mpf:
    small objects, method calls and big-int shifts, the mix the program's
    pure-Python layers run.  A tight integer loop slows less than they do
    when a core is shared, so it would under-correct."""

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int = 0):
        if man:
            bc = man.bit_length()
            if bc > 53:
                man >>= bc - 53
                exp += bc - 53
        self.man, self.exp = man, exp

    def __mul__(self, other: "_Bin") -> "_Bin":
        return _Bin(self.man * other.man, self.exp + other.exp)

    def __add__(self, other: "_Bin") -> "_Bin":
        if self.exp < other.exp:
            self, other = other, self
        d = self.exp - other.exp
        if d > 60:
            return self
        return _Bin((self.man << d) + other.man, other.exp)

    def recip(self) -> "_Bin":
        return _Bin((1 << 106) // self.man, -106 - self.exp)


def calibration_burst() -> _Bin:
    """x <- x * i / (i + 1) + 1 for i < 200: a fixed amount of work, about
    1 ms"""
    x = one = _Bin(1)
    for i in range(1, 200):
        x = x * _Bin(i) * _Bin(i + 1).recip() + one
    return x


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    os.sched_setaffinity(0, {plan["cpu"]})
    bursts = []

    def on_alarm(signum, frame):
        t0 = time.monotonic()
        calibration_burst()
        bursts.append((t0, time.monotonic() - t0))

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
    try:
        return _run(plan, bursts)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _run(plan: dict, bursts: list) -> int:
    sys.stdout.reconfigure(line_buffering=True)

    import_s = {}
    modules = {}
    for name in plan["modules"]:
        t0 = time.monotonic()
        modules[name] = importlib.import_module(f"hecke_spectra.{name}")
        import_s[name] = time.monotonic() - t0
    harness = modules["harness"]
    src = (Path.cwd() / "src").resolve()
    if src not in Path(harness.__file__).resolve().parents:
        print(f"hecke_spectra imported from {harness.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    installed = []
    if plan["trace"]:
        import spans

        tracer = spans.Tracer()
        installed = tracer.install(modules)

    entries = []
    cpu_at_entry = []
    run_experiment = harness.run_experiment

    def timed_run_experiment(*args, **kwargs):
        if not entries:
            cpu_at_entry.append(_cpu_s())
        entries.append(time.monotonic())
        return run_experiment(*args, **kwargs)

    harness.run_experiment = timed_run_experiment

    for step in plan["steps"]:
        argv = [step["experiment"], "--config", step["config"], "--threads", str(step["threads"])]
        code = harness.main(argv)
        if code != 0:
            print(f"hecke-spectra {' '.join(argv)} exited with {code}", file=sys.stderr)
            return code
    sys.stdout.flush()
    t_end = time.monotonic()

    result = {"import_s": import_s, "t_first_entry": entries[0], "t_end": t_end,
              "run_cpu_s": _cpu_s() - cpu_at_entry[0], "bursts": list(bursts)}
    if tracer is not None:
        import spans

        result.update(
            installed=installed,
            spans=tracer.spans,
            counts=dict(tracer.counts),
            lru=spans.lru_stats(modules),
            table_entries=_table_entries(modules.get("class_numbers")),
        )
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _table_entries(class_numbers):
    """Size of the shared class-number table: 0 when the layer was never
    imported or never built, None when the table no longer exists."""
    if class_numbers is None:
        return 0
    if not hasattr(class_numbers, "_h_table"):
        return None
    table = class_numbers._h_table
    return 0 if table is None else len(table)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
