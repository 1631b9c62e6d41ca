"""The five sweep workloads: their cell universes and the seeded draw of one
run's cells from them.

A workload is a list of steps; a step is one `hecke-spectra <experiment>`
invocation (a config and a thread count), and a sample is one fresh child
interpreter running every step of the workload in order.  `arith-memo` is the
exception: one sample is two children, a cold and a warm pass, sharing one
cache directory.

Every cell a seed can draw lies in the workload's universe, and
`reference.json` holds the outputs of the whole universe at the commit that
introduced the benchmark, so every seed is checked against it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

DEFAULT_SEED = 1

# hecke_spectra modules in dependency order, and those each experiment
# imports (with their dependencies, so each import is timed on its own)
IMPORT_ORDER = [
    "arithmetic", "kloosterman", "class_numbers", "special_functions",
    "oracles", "eichler_selberg", "petersson", "spectral", "harness",
]
_TRACE_LAYER = {"arithmetic", "class_numbers", "special_functions", "eichler_selberg"}
_PETERSSON_LAYER = {"arithmetic", "kloosterman", "petersson"}
_EXPERIMENT_MODULES = {
    "trace": _TRACE_LAYER,
    "petersson": _PETERSSON_LAYER,
    "bessel-sum": {"special_functions"},
    "noweight": _TRACE_LAYER,
    "variance": _TRACE_LAYER,
    "arith-sum": _TRACE_LAYER,
    "discrepancy": _TRACE_LAYER | {"spectral"},
    "orbital": _PETERSSON_LAYER | {"special_functions"},
}


@dataclass(frozen=True)
class Step:
    experiment: str
    config: Dict[str, str]
    threads: int

    def config_text(self) -> str:
        lines = [f"experiment = {self.experiment}"]
        lines += [f"{k} = {v}" for k, v in self.config.items()]
        return "\n".join(lines) + "\n"

    def cells(self) -> List[dict]:
        return expand_cells(self.experiment, self.config)


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    passes: int  # children per sample sharing one cache directory
    why: str  # as in BENCHMARK.json; perfbench/README.md has the composition
    draw: Callable[[random.Random, int], List[Step]]
    universe_of: Callable[[int], List[Step]]

    def steps(self, seed: int) -> List[Step]:
        return self.draw(random.Random(f"{self.name}:{seed}"), self.threads)

    def universe(self) -> List[Step]:
        return self.universe_of(self.threads)

    def modules(self) -> List[str]:
        """hecke_spectra modules the child imports before `main`, in
        dependency order."""
        used = {"harness"}.union(*(_EXPERIMENT_MODULES[s.experiment] for s in self.universe()))
        return [m for m in IMPORT_ORDER if m in used]


def _ints(xs: Sequence[int]) -> str:
    return ",".join(str(x) for x in xs)


def _stratified(rng: random.Random, lo: int, hi: int, block: int, per_block: int) -> List[int]:
    """per_block distinct draws from each block of `block` consecutive
    integers in [lo, hi], so the cost of the draw barely depends on the seed."""
    out: List[int] = []
    for b in range(lo, hi + 1, block):
        out += rng.sample(range(b, min(b + block, hi + 1)), per_block)
    return sorted(out)


def window_n(k: int, N: int) -> int:
    """m = 1 and n anchored at the first Bessel maximum x ~ k + 0.81 k^(1/3):
    the transition-window cell rule of acceptance criterion 3."""
    x_target = k + 0.8086 * k ** (1.0 / 3.0)
    n = round((x_target / (4.0 * math.pi)) ** 2)
    while math.gcd(n, N) != 1 or abs(4.0 * math.pi * math.sqrt(n) - k) >= 2.0 * k ** (1.0 / 3.0):
        n += 1
    return n


# ---------------------------------------------------------------------------
# trace-grid

_TG_NEW_N = "1,2,3,5,6,7,10,11"
_TG_FULL_N = "4,9,12"
_TG_K = "2,12,24"


def _trace_grid_steps(small_n: Sequence[int], large_n: Sequence[int], threads: int) -> List[Step]:
    return [
        Step("trace", {"kind": "new", "N": _TG_NEW_N, "k": _TG_K, "n": _ints(small_n)}, threads),
        Step("trace", {"kind": "new", "N": "1", "k": "12", "n": _ints(large_n)}, threads),
        Step("trace", {"kind": "full", "N": _TG_FULL_N, "k": _TG_K, "n": _ints(small_n)}, threads),
    ]


def _draw_trace_grid(rng, threads):
    small = _stratified(rng, 1, 120, 12, 6)
    large = _stratified(rng, 1, 1000, 50, 2)
    return _trace_grid_steps(small, large, threads)


def _universe_trace_grid(threads):
    return _trace_grid_steps(range(1, 121), range(1, 1001), threads)


# ---------------------------------------------------------------------------
# petersson-sweep

def _petersson_sweep_step(ns: Sequence[int], threads: int) -> Step:
    return Step("petersson", {"kind": "full", "N": "1", "k": "4,8,12", "m": "1", "n": _ints(ns)},
                threads)


def _draw_petersson_sweep(rng, threads):
    # n = 1 is always drawn: it is the base of the k = 12 rank-one oracle.
    # One more n keeps a sample short, so a run holds six or more of them;
    # single-n cells cost the same for every n within the noise.
    return [_petersson_sweep_step([1, rng.randrange(2, 9)], threads)]


def _universe_petersson_sweep(threads):
    return [_petersson_sweep_step(range(1, 9), threads)]


# ---------------------------------------------------------------------------
# petersson-window

_PW_N = 7
_PW_K = tuple(range(264, 337, 8))


def _petersson_window_step(k: int, threads: int) -> Step:
    return Step("petersson", {"kind": "new", "N": str(_PW_N), "k": str(k), "m": "1",
                              "n": str(window_n(k, _PW_N))}, threads)


def _draw_petersson_window(rng, threads):
    return [_petersson_window_step(rng.choice(_PW_K), threads)]


def _universe_petersson_window(threads):
    return [_petersson_window_step(k, threads) for k in _PW_K]


# ---------------------------------------------------------------------------
# spectral-window

# k = 96 (dimension 8, the largest kept) costs about 10 % more than the rest
# of the range, so it is in every draw rather than drawn by some seeds only
_SW_K_LOW = tuple(range(24, 57, 4))
_SW_K_HIGH = tuple(range(60, 89, 4))
_SW_K_TOP = 96
def _spectral_window_steps(ks: Sequence[int], threads: int) -> List[Step]:
    return [
        Step("discrepancy", {"N": "1", "k": _ints(ks), "p": "2,3"}, threads),
        Step("noweight", {"N": "1", "n": "2280,9120", "delta": "0.25"}, threads),
        Step("variance", {"N": "2,3,5,6", "n": "105,625"}, threads),
        Step("bessel-sum", {"K": "2000", "delta": "0.3",
                            "x": "100,500,1955.27864045,1999,2000"}, threads),
        # one fixed cell: the quadrature's cost depends on k and t, and
        # drawing them would make the work depend on the seed
        Step("orbital", {"k": "12", "t": "1"}, threads),
    ]


def _draw_spectral_window(rng, threads):
    return _spectral_window_steps([rng.choice(_SW_K_LOW), rng.choice(_SW_K_HIGH), _SW_K_TOP],
                                  threads)


def _universe_spectral_window(threads):
    return _spectral_window_steps(tuple(range(24, 97, 4)), threads)


# ---------------------------------------------------------------------------
# arith-memo

# ten candidates per size class, each class inside one power-of-two
# class-table size so the table build costs the same for every seed; n is
# prime to 30, so every N gives a cell and every draw has twelve
_AM_CANDIDATES = tuple(
    tuple(n for n in range(base, base + 100) if math.gcd(n, 30) == 1)[:10]
    for base in (1001, 5001, 10001)
)


def _arith_memo_step(ns: Sequence[int], threads: int) -> Step:
    return Step("arith-sum", {"N": "2,3,5,6", "n": _ints(ns)}, threads)


def _draw_arith_memo(rng, threads):
    return [_arith_memo_step([rng.choice(c) for c in _AM_CANDIDATES], threads)]


def _universe_arith_memo(threads):
    return [_arith_memo_step([n for c in _AM_CANDIDATES for n in c], threads)]


WORKLOADS = {w.name: w for w in [
    Workload("trace-grid", 2, 1,
             "trace tables: class-number lookups and the per-(t, f) elliptic term, "
             "no Kloosterman or Bessel calls",
             _draw_trace_grid, _universe_trace_grid),
    Workload("petersson-sweep", 2, 1,
             "Petersson empty-space and rank-one cells walking the same c-range again "
             "and again, on two threads",
             _draw_petersson_sweep, _universe_petersson_sweep),
    Workload("petersson-window", 1, 1,
             "one transition-window newform cell: many l-lattice tasks sharing a "
             "c-walk up to about 3900",
             _draw_petersson_window, _universe_petersson_window),
    Workload("spectral-window", 1, 1,
             "few n at large k or prime powers: Newton root recovery, Plancherel, "
             "certified bessel_j, variance and orbital quadrature",
             _draw_spectral_window, _universe_spectral_window),
    Workload("arith-memo", 1, 2,
             "arith-sum run cold then warm on one fresh memo cache: the memo "
             "cache's writes and reads",
             _draw_arith_memo, _universe_arith_memo),
]}


def expand_cells(experiment: str, cfg: Dict[str, str]) -> List[dict]:
    """The cells `hecke-spectra <experiment>` emits for this config, in the
    harness's parameter names and types, in emission order."""
    il = lambda key: [int(x) for x in cfg[key].split(",")]
    fl = lambda key: [float(x) for x in cfg[key].split(",")]
    if experiment == "trace":
        return [{"n": n, "k": k, "N": N, "kind": cfg["kind"]}
                for N in il("N") for k in il("k") for n in il("n") if math.gcd(n, N) == 1]
    if experiment == "petersson":
        return [{"k": k, "N": N, "m": m, "n": n, "kind": cfg["kind"]}
                for N in il("N") for k in il("k") for m in il("m") for n in il("n")]
    if experiment == "bessel-sum":
        K, delta = float(cfg["K"]), float(cfg["delta"])
        return [{"K": K, "delta": delta, "x": x} for x in fl("x")]
    if experiment == "noweight":
        return [{"n": n, "N": N, "delta": float(cfg["delta"])} for N in il("N") for n in il("n")]
    if experiment == "variance":
        return [{"n": n, "N": N, "T": 2.0 * math.ceil(math.sqrt(n))}
                for N in il("N") for n in il("n") if math.gcd(n, N) == 1]
    if experiment == "arith-sum":
        return [{"n": n, "N": N} for N in il("N") for n in il("n")
                if n % 2 == 1 and math.gcd(n, N) == 1]
    if experiment == "discrepancy":
        return [{"k": k, "N": N, "p": p}
                for N in il("N") for k in il("k") for p in il("p") if math.gcd(p, N) == 1]
    if experiment == "orbital":
        return [{"k": k, "t": t} for k in il("k") for t in fl("t")]
    raise ValueError(f"no cell rule for experiment {experiment!r}")


def cell_key(experiment: str, parameters: dict) -> str:
    return experiment + " " + json.dumps(parameters, sort_keys=True)
