"""Experiment front end: flat key=value configs, JSONL record emission, a
persistent memo of D_N(t, n) rows, and the `verify` self-check.

The memo (`memo.jsonl` under `$HECKE_SPECTRA_CACHE`) holds one checksummed
line per (n, N): the row of `eichler_selberg.d_coefficients(n, N)`.  A line
that fails to parse or to check cuts the file back to the lines before it,
so a memo written in an older line format is discarded once, on first read.

Sweep cells run one after another in cell order; a Petersson sweep walks c
once for all of its cells.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from . import __version__

CACHE_ENV = "HECKE_SPECTRA_CACHE"


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class ExperimentRecord:
    experiment: str
    parameters: Dict[str, object]
    outputs: Dict[str, object]
    provenance: Dict[str, object]

    def to_json_line(self) -> str:
        return json.dumps(
            {
                "experiment": self.experiment,
                "parameters": self.parameters,
                "outputs": self.outputs,
                "provenance": self.provenance,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json_line(line: str) -> "ExperimentRecord":
        d = json.loads(line)
        return ExperimentRecord(d["experiment"], d["parameters"], d["outputs"], d["provenance"])


def _provenance(truncation: Dict[str, object]) -> Dict[str, object]:
    return {
        "tool": f"hecke-spectra {__version__}",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "truncation": truncation,
    }


# ---------------------------------------------------------------------------
# persistent cache: append-only JSONL log, one sha256 per line


def cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV)
    # the home default is built only when needed: Path.home() raises where
    # there is no HOME and no passwd entry
    return Path(env) if env is not None else Path.home() / ".cache" / "hecke_spectra"


def _cache_file() -> Path:
    return cache_dir() / "memo.jsonl"


def _line_checksum(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


class _Cache:
    """In-memory map from a key to one row of floats, backed by an
    append-only log of one checksummed line per key.  A line that does not
    parse or check invalidates the tail: the valid prefix is rewritten and
    computation repopulates the rest (never silently trusted).

    The location is resolved again only when `$HECKE_SPECTRA_CACHE` changes
    or `_loaded_from` is reset to None.  Puts append through one O_APPEND
    handle, opened on the first put and flushed after every line, so a crash
    loses nothing already put and other processes see each line at once."""

    def __init__(self):
        self._lock = threading.Lock()
        self._map: Dict[Tuple[str, str], Tuple[float, ...]] = {}
        self._loaded_from: Optional[Path] = None
        self._env: Optional[str] = None
        self._fh: Optional[TextIO] = None

    def _load(self):
        env = os.environ.get(CACHE_ENV)
        if self._loaded_from is not None and env == self._env:
            return
        self._close()
        path = _cache_file()
        self._map.clear()
        self._loaded_from = path
        self._env = env
        if not path.exists():
            return
        good: List[str] = []
        dirty = False
        for line in path.read_text().splitlines():
            try:
                d = json.loads(line)
                sha = d.pop("sha")
                if sha != _line_checksum(d):
                    raise ValueError("checksum mismatch")
                key = (d["key"][0], d["key"][1])
                row = tuple(map(float, d["row"]))
            except (ValueError, KeyError, IndexError, TypeError):
                dirty = True
                break
            self._map[key] = row
            good.append(line)
        if dirty:
            path.write_text("".join(g + "\n" for g in good))

    def _close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def close(self) -> None:
        """Close the append handle; the next put opens it again."""
        with self._lock:
            self._close()

    def get(self, key: Tuple[str, str]) -> Optional[Tuple[float, ...]]:
        with self._lock:
            self._load()
            return self._map.get(key)

    def put(self, key: Tuple[str, str], row: Sequence[float]) -> None:
        with self._lock:
            self._load()
            if key in self._map:
                return
            self._map[key] = tuple(row)
            payload = {"key": list(key), "row": list(row)}
            payload["sha"] = _line_checksum(payload)
            if self._fh is None:
                self._loaded_from.parent.mkdir(parents=True, exist_ok=True)
                self._fh = self._loaded_from.open("a")
            self._fh.write(json.dumps(payload, sort_keys=True) + "\n")
            self._fh.flush()


_CACHE = _Cache()


def cache_get(key: Tuple[str, str]) -> Optional[Tuple[float, ...]]:
    return _CACHE.get(key)


def cache_put(key: Tuple[str, str], row: Sequence[float]) -> None:
    _CACHE.put(key, row)


def _memo_d_row(n: int, N: int, table_limit: int) -> Sequence[float]:
    """D_N(t, n) for t = -tmax..tmax, tmax = isqrt(4n - 1), memoized as one
    row under ("d_coefficients", "n,N").  On a miss the class-number table
    is grown to table_limit (a sweep's largest 4n, so a sweep builds it
    once) and the row `d_coefficients(n, N)` is computed and put."""
    from .class_numbers import ensure_table
    from .eichler_selberg import d_coefficients

    key = ("d_coefficients", f"{n},{N}")
    row = cache_get(key)
    if row is None:
        ensure_table(table_limit)
        row = d_coefficients(n, N).tolist()
        cache_put(key, row)
    return row


# ---------------------------------------------------------------------------
# configuration: flat key = value lines, '#' comments


def parse_config(text: str) -> Dict[str, str]:
    cfg: Dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        cfg[key.strip()] = val.strip()
    return cfg


def _int_list(cfg: Dict[str, str], key: str, default: Optional[str] = None) -> List[int]:
    """Comma-separated integers; 'a..b' expands to an inclusive range."""
    raw = cfg.get(key, default)
    if raw is None:
        raise ConfigError(f"missing required key {key!r}")
    out: List[int] = []
    for part in raw.split(","):
        part = part.strip()
        try:
            if ".." in part:
                lo, hi = (int(x) for x in part.split(".."))
                if lo > hi:
                    raise ConfigError(f"key {key!r}: range {part!r} is empty")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(part))
        except ValueError:
            raise ConfigError(f"key {key!r}: cannot parse {part!r} as integer or range")
    return out


def _float_list(cfg: Dict[str, str], key: str, default: Optional[str] = None) -> List[float]:
    raw = cfg.get(key, default)
    if raw is None:
        raise ConfigError(f"missing required key {key!r}")
    try:
        return [float(p) for p in raw.split(",")]
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as floats")


def _float_scalar(cfg: Dict[str, str], key: str, default: Optional[str] = None) -> float:
    vals = _float_list(cfg, key, default)
    if len(vals) != 1:
        raise ConfigError(f"key {key!r}: expected a single number")
    return vals[0]


# ---------------------------------------------------------------------------
# sweep execution: one record per cell, in cell order


def _run_cells(cells: Sequence[dict], work: Callable[[dict], Tuple[dict, dict]],
               experiment: str) -> List[ExperimentRecord]:
    def one(cell):
        outputs, truncation = work(cell)
        return ExperimentRecord(experiment, cell, outputs, _provenance(truncation))

    return [one(c) for c in cells]


def _validate(experiment: str, cells: Sequence[dict], check: Callable[[dict], None]) -> None:
    """Reject a sweep before it runs if the library rejects any of its cells."""
    for cell in cells:
        try:
            check(cell)
        except ValueError as exc:
            raise ConfigError(f"{experiment} cell {cell}: {exc}") from None


def _grow_class_table(cells: Sequence[dict]) -> None:
    """Build the class-number table once, at the sweep's largest 4n, rather
    than once per power of two the cells pass."""
    from .class_numbers import ensure_table

    if cells:
        ensure_table(4 * max(c["n"] for c in cells))


# ---------------------------------------------------------------------------
# experiment drivers


def _exp_trace(cfg):
    from .eichler_selberg import check_trace_cell, trace_full, trace_new

    kind = cfg.get("kind", "new")
    if kind not in ("new", "full"):
        raise ConfigError("trace: kind must be 'new' or 'full'")
    fn = trace_new if kind == "new" else trace_full
    cells = [
        {"n": n, "k": k, "N": N, "kind": kind}
        for N in _int_list(cfg, "N", "1")
        for k in _int_list(cfg, "k", "12")
        for n in _int_list(cfg, "n")
        if math.gcd(n, N) == 1
    ]
    _validate("trace", cells, lambda c: check_trace_cell(kind, c["n"], c["k"], c["N"]))

    def work(cell):
        tb = fn(cell["n"], cell["k"], cell["N"])
        outputs = {
            "total": tb.total,
            "term1": float(tb.term1), "term2": tb.term2,
            "term3": float(tb.term3), "term4": float(tb.term4),
        }
        return outputs, {"mode": "exact identity, no truncation"}

    return _run_cells(cells, work, "trace")


def _exp_petersson(cfg):
    from .petersson import check_petersson_cell, petersson_cells

    kind = cfg.get("kind", "full")
    if kind not in ("full", "new"):
        raise ConfigError("petersson: kind must be 'full' or 'new'")
    m = _int_list(cfg, "m", "1")
    cells = [
        {"k": k, "N": N, "m": mm, "n": n, "kind": kind}
        for N in _int_list(cfg, "N", "1")
        for k in _int_list(cfg, "k", "12")
        for mm in m
        for n in _int_list(cfg, "n")
    ]
    _validate("petersson", cells,
              lambda c: check_petersson_cell(kind, c["k"], c["N"], c["m"], c["n"]))
    results = {
        (r.k, r.N, r.m, r.n): r
        for r in petersson_cells(kind, [(c["k"], c["N"], c["m"], c["n"]) for c in cells])
    }

    def work(cell):
        r = results[cell["k"], cell["N"], cell["m"], cell["n"]]
        return (
            {"value": r.value, "truncation_bound": r.truncation_bound},
            {"c_max": r.c_max, "l_max": r.l_max, "tail_bound": r.truncation_bound},
        )

    return _run_cells(cells, work, "petersson")


def _exp_maint(cfg):
    from .petersson import check_petersson_cell, maint_cells, window_n

    cells = []
    for k in _int_list(cfg, "k"):
        for N in _int_list(cfg, "N", "1,2,3,5,6"):
            try:
                n = window_n(k, N)
            except ValueError as exc:
                raise ConfigError(f"maint cell k={k}, N={N}: {exc}") from None
            cells.append({"k": k, "N": N, "m": 1, "n": n})
    _validate("maint", cells,
              lambda c: check_petersson_cell("new", c["k"], c["N"], c["m"], c["n"]))
    results = {
        (r.k, r.N): (r, main)
        for r, main in maint_cells([(c["k"], c["N"], c["m"], c["n"]) for c in cells])
    }

    def work(cell):
        r, main = results[cell["k"], cell["N"]]
        residual = r.value - main
        return (
            {"residual": residual, "scaled_residual": residual * math.sqrt(cell["k"]),
             "main_term": main, "ratio": abs(residual) / abs(main)},
            {"c_max": r.c_max, "l_max": r.l_max, "tail_bound": r.truncation_bound},
        )

    return _run_cells(cells, work, "maint")


def _exp_bessel_sum(cfg):
    from .special_functions import check_bessel_sum_cell, weighted_bessel_order_sum

    K = _float_scalar(cfg, "K")
    delta = _float_scalar(cfg, "delta", "0.3")
    cells = [{"K": K, "delta": delta, "x": x} for x in _float_list(cfg, "x")]
    _validate("bessel-sum", cells, lambda c: check_bessel_sum_cell(c["K"], c["delta"], c["x"]))

    def work(cell):
        s = weighted_bessel_order_sum(cell["K"], cell["delta"], cell["x"])
        return {"sum": s}, {"order_window": [K - K ** delta, K + K ** delta]}

    return _run_cells(cells, work, "bessel-sum")


def _exp_noweight(cfg):
    from .eichler_selberg import (WindowSpec, averaged_trace_window, check_noweight_cell,
                                  noweight_main_term)

    delta = _float_scalar(cfg, "delta", "0.25")
    cells = [
        {"n": n, "N": N, "delta": delta}
        for N in _int_list(cfg, "N", "1")
        for n in _int_list(cfg, "n")
    ]
    _validate("noweight", cells, lambda c: check_noweight_cell(c["n"], c["N"], c["delta"]))
    _grow_class_table(cells)

    def work(cell):
        n = cell["n"]
        K = int(4.0 * math.pi * math.sqrt(n))
        spec = WindowSpec(float(K), cell["delta"], 1.0, K ** cell["delta"])
        lhs = averaged_trace_window(n, cell["N"], spec)
        main = noweight_main_term(n, cell["N"], K)
        ratio = lhs / main if main != 0.0 else math.inf
        return (
            {"K": K, "lhs": lhs, "main_term": main, "ratio": ratio},
            {"weight_window_halfwidth": K ** cell["delta"]},
        )

    return _run_cells(cells, work, "noweight")


def _exp_variance(cfg):
    from .eichler_selberg import check_variance_cell, diagonal_side, variance_window

    cells = []
    for N in _int_list(cfg, "N", "2,3,5,6"):
        for n in _int_list(cfg, "n"):
            if math.gcd(n, N) != 1:
                continue
            T = _float_scalar(cfg, "T") if "T" in cfg else 2.0 * math.ceil(math.sqrt(n))
            cells.append({"n": n, "N": N, "T": T})
    _validate("variance", cells, lambda c: check_variance_cell(c["n"], c["N"], c["T"]))
    _grow_class_table(cells)

    def work(cell):
        v = variance_window(cell["n"], cell["N"], cell["T"])
        d = diagonal_side(cell["n"], cell["N"], cell["T"])
        return (
            {"variance": v, "diagonal": d, "difference": v - d,
             "scaled_difference": (v - d) / cell["n"] ** 0.6},
            {"phi_tail_target": 1e-8},
        )

    return _run_cells(cells, work, "variance")


def _exp_arith_sum(cfg):
    from .class_numbers import admissible_n0, count_A, ensure_r3_table
    from .eichler_selberg import check_arith_sum_cell

    cells = [
        {"n": n, "N": N}
        for N in _int_list(cfg, "N", "2,3,5,6")
        for n in _int_list(cfg, "n")
        if n % 2 == 1 and math.gcd(n, N) == 1
    ]
    _validate("arith-sum", cells, lambda c: check_arith_sum_cell(c["n"], c["N"]))
    limit = 4 * max((c["n"] for c in cells), default=0)
    if cells:
        ensure_r3_table(limit)  # once, at the sweep's largest 4n

    def work(cell):
        n, N = cell["n"], cell["N"]
        tmax = math.isqrt(4 * n - 1)
        dsum = math.fsum(d ** 2 for d in _memo_d_row(n, N, limit))
        outputs = {"d_square_sum": dsum, "normalized": dsum / math.sqrt(n)}
        n0 = admissible_n0(N, n)
        outputs["n0"] = n0
        outputs["a_count_ratio"] = count_A(N, n, n0) / n if n0 is not None else None
        return outputs, {"t_range": [-tmax, tmax]}

    return _run_cells(cells, work, "arith-sum")


def _exp_discrepancy(cfg):
    from .spectral import (check_discrepancy_cell, chebyshev_moment, discrepancy,
                           empirical_mu_star, plancherel_measure, recovery_route,
                           trace_discrepancy_bound)

    cells = [
        {"k": k, "N": N, "p": p}
        for N in _int_list(cfg, "N", "1")
        for k in _int_list(cfg, "k")
        for p in _int_list(cfg, "p", "2")
        if math.gcd(p, N) == 1
    ]
    _validate("discrepancy", cells, lambda c: check_discrepancy_cell(c["k"], c["N"], c["p"]))

    def work(cell):
        k, N, p = cell["k"], cell["N"], cell["p"]
        mu = empirical_mu_star(k, N, p)
        ref = plancherel_measure(p)
        outputs = {
            "dim": len(mu.atoms),
            "atoms": list(mu.atoms),
            "discrepancy_vs_plancherel": discrepancy(mu, ref),
            "moment2_gap": chebyshev_moment(mu, 2) - chebyshev_moment(ref, 2),
            "trace_bound_at_p": trace_discrepancy_bound(p, k, N),
        }
        return outputs, recovery_route(N, len(mu.atoms))

    return _run_cells(cells, work, "discrepancy")


def _exp_orbital(cfg):
    from .petersson import check_orbital_cell, orbital_integral_A

    cells = [
        {"k": k, "t": t}
        for k in _int_list(cfg, "k", "12,24,48")
        for t in _float_list(cfg, "t", "0.5,1,2")
    ]
    _validate("orbital", cells, lambda c: check_orbital_cell(c["k"], c["t"]))

    def work(cell):
        quad, closed = orbital_integral_A(cell["t"], cell["k"])
        rel = abs(quad - closed) / abs(closed) if closed != 0 else math.inf
        return (
            {"quadrature_re": quad.real, "quadrature_im": quad.imag,
             "closed_form": closed.real, "relative_error": rel},
            {"refinement_tolerance": 1e-7},
        )

    return _run_cells(cells, work, "orbital")


# ---------------------------------------------------------------------------
# verify: deterministic self-checks (quick) or the full acceptance suite


def _verify_checks() -> List[Tuple[str, dict, float, float]]:
    """(name, parameters, observed, tolerance) with observed <= tolerance on
    a healthy build.  A deterministic subset of the acceptance suite, cheap
    enough to run repeatedly for cache validation."""
    from .arithmetic import factor
    from .class_numbers import r3, r3_from_hurwitz
    from .eichler_selberg import diagonal_side, newform_cross_route, trace_new, variance_window
    from .kloosterman import kloosterman_sum, kloosterman_sum_fast, weil_bound
    from .oracles import delta_tau, genus_X0
    from .petersson import delta_full, orbital_integral_A
    from .spectral import trace_discrepancy_bound

    checks = []
    tau = delta_tau(60)
    err = max(abs(trace_new(n, 12, 1).total - tau.a(n) / n ** 5.5) for n in range(1, 51))
    checks.append(("trace_tau_n_le_50", {"k": 12, "N": 1}, err, 1e-9))

    genus_err = max(
        abs(float(trace_new(1, 2, N).total) - genus_X0(N)) for N in (11, 14, 15, 23, 26, 35)
    )
    checks.append(("weight2_genus", {}, genus_err, 1e-12))

    # the closed-form newform trace against the full-level combination; a
    # rational coefficient that differs at all reads as inf
    cross_err = 0.0
    for N in (6, 7, 10, 15):
        for k in (2, 12):
            for n in range(1, 21):
                if math.gcd(n, N) != 1:
                    continue
                tb = trace_new(n, k, N)
                c1, t2, c3, c4 = newform_cross_route(n, k, N)
                if (c1, c3, c4) != (tb.coeff1, tb.coeff3, tb.coeff4):
                    cross_err = math.inf
                else:
                    cross_err = max(cross_err, abs(t2 - tb.term2) / (1.0 + abs(tb.term2)))
    checks.append(
        ("newform_cross_route", {"N": [6, 7, 10, 15], "k": [2, 12], "n_max": 20}, cross_err, 1e-9)
    )

    r1 = delta_full(12, 1, 1, 1)
    r2 = delta_full(12, 1, 1, 2)
    checks.append(
        ("petersson_rank_one_n2", {"k": 12},
         abs(r2.value / r1.value - tau.a(2) / 2 ** 5.5), 1e-6)
    )

    werr = 0.0
    for (m, n, c) in [(1, 1, 100), (3, 7, 241), (5, 12, 2048), (2, 9, 1155)]:
        s = kloosterman_sum(m, n, c)
        werr = max(werr, abs(s.value) - weil_bound(m, n, c))
    checks.append(("weil_bound_sample", {}, werr, 0.0))

    # the twisted-multiplicative fast path against the direct sum: prime
    # powers, c with three or more primes, c = 2p, and m, n sharing primes with c
    moduli = [2 ** 10, 3 ** 6, 5 ** 4, 7 ** 3, 210, 1155, 4620, 2 * 997, 2 * 1009]
    kerr = 0.0
    for c in moduli:
        p = factor(c).primes[0]
        for m, n in [(1, 1), (3, -7), (p, 1), (p * p, 5), (c // p, c + 3), (19531250, 3)]:
            kerr = max(kerr, abs(kloosterman_sum_fast(m, n, c) - kloosterman_sum(m, n, c).value))
    checks.append(("kloosterman_fast_vs_direct", {"c": moduli}, kerr, 1e-8))

    r3err = max(abs(r3(n) - r3_from_hurwitz(n)) for n in range(1, 201))
    checks.append(("gauss_three_squares", {"n_max": 200}, r3err, 0.0))

    vdiff = abs(variance_window(15, 2, 8.0) - diagonal_side(15, 2, 8.0))
    checks.append(("variance_identity_n15", {"n": 15, "N": 2, "T": 8}, vdiff, 10 * 15 ** 0.6))

    quad, closed = orbital_integral_A(1.0, 12)
    checks.append(
        ("orbital_k12_t1", {}, abs(quad - closed) / abs(closed), 1e-6)
    )

    tdb = trace_discrepancy_bound(2, 12, 1)
    checks.append(
        ("trace_discrepancy_bound", {"n": 2, "k": 12, "N": 1},
         abs(tdb - abs(tau.a(2)) / 2 ** 5.5 / 2.0), 1e-9)
    )
    return checks


def _exp_verify(cfg):
    scope = cfg.get("scope", "quick")
    if scope == "full":
        import pytest

        tests = Path(__file__).resolve().parents[2] / "tests" / "test_acceptance.py"
        code = pytest.main(["-q", str(tests)])
        rec = ExperimentRecord(
            "verify", {"scope": "full"}, {"pytest_exit_code": int(code)},
            _provenance({"mode": "acceptance suite"}),
        )
        return [rec]
    if scope != "quick":
        raise ConfigError("verify: scope must be 'quick' or 'full'")

    checks = {name: (observed, tol) for name, _, observed, tol in _verify_checks()}

    def work(cell):
        observed, tol = checks[cell["check"]]
        return (
            {"observed": observed, "tolerance": tol, "ok": observed <= tol},
            {"mode": "quick self-check"},
        )

    cells = [{"check": name} for name in checks]
    return _run_cells(cells, work, "verify")


# each driver with the config keys it reads; the CLI keys are allowed everywhere
_DRIVERS = {
    "trace": (_exp_trace, {"kind", "N", "k", "n"}),
    "petersson": (_exp_petersson, {"kind", "N", "k", "m", "n"}),
    "maint": (_exp_maint, {"k", "N"}),
    "bessel-sum": (_exp_bessel_sum, {"K", "delta", "x"}),
    "noweight": (_exp_noweight, {"delta", "N", "n"}),
    "variance": (_exp_variance, {"N", "n", "T"}),
    "arith-sum": (_exp_arith_sum, {"N", "n"}),
    "discrepancy": (_exp_discrepancy, {"N", "k", "p"}),
    "orbital": (_exp_orbital, {"k", "t"}),
    "verify": (_exp_verify, {"scope"}),
}
EXPERIMENTS = tuple(_DRIVERS)
_CLI_KEYS = {"experiment", "out", "csv", "threads"}


def run_experiment(name: str, config: Dict[str, str], threads: int = 1) -> List[ExperimentRecord]:
    """Run one experiment sweep.  `threads` is accepted for compatibility and
    has no effect: cells run sequentially."""
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
    driver, keys = _DRIVERS[name]
    unknown = sorted(set(config) - keys - _CLI_KEYS)
    if unknown:
        raise ConfigError(f"{name}: unknown config key(s) {unknown}; it reads {sorted(keys)}")
    try:
        return driver(config)
    finally:
        _CACHE.close()


# ---------------------------------------------------------------------------
# emission


def _write_csv(records: List[ExperimentRecord], path: Path) -> None:
    keys_p: List[str] = []
    keys_o: List[str] = []
    for r in records:
        for k in r.parameters:
            if k not in keys_p:
                keys_p.append(k)
        for k in r.outputs:
            if k not in keys_o:
                keys_o.append(k)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["experiment"] + keys_p + keys_o)
        for r in records:
            w.writerow(
                [r.experiment]
                + [r.parameters.get(k, "") for k in keys_p]
                + [r.outputs.get(k, "") for k in keys_o]
            )


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="hecke-spectra",
        description="Trace-formula experiment sweeps; records are emitted as JSON lines.",
    )
    ap.add_argument("experiment", choices=EXPERIMENTS)
    ap.add_argument("--config", help="flat key = value config file")
    ap.add_argument("--out", help="also write JSONL records to this file")
    ap.add_argument("--csv", help="also write a flat CSV to this file")
    ap.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    args = ap.parse_args(argv)

    try:
        cfg: Dict[str, str] = {}
        if args.config:
            cfg = parse_config(Path(args.config).read_text())
        if "experiment" in cfg and cfg["experiment"] != args.experiment:
            raise ConfigError(
                f"config names experiment {cfg['experiment']!r} but "
                f"{args.experiment!r} was requested"
            )
        records = run_experiment(args.experiment, cfg)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    lines = [r.to_json_line() for r in records]
    for line in lines:
        print(line)
    out = args.out or cfg.get("out")
    if out:
        Path(out).write_text("".join(line + "\n" for line in lines))
    csv_path = args.csv or cfg.get("csv")
    if csv_path:
        _write_csv(records, Path(csv_path))

    if args.experiment == "verify":
        ok = all(
            r.outputs.get("ok", r.outputs.get("pytest_exit_code", 1) == 0)
            for r in records
        )
        return 0 if ok else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
