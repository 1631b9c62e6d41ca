"""Per-cell correctness gate.

Every cell is compared with `reference.json` (the outputs of the workload
universes at the commit that introduced the benchmark) at the tolerance the
acceptance suite uses for that quantity, and every cell with an independent
oracle is checked against it as well.  A cell that was expected but not
emitted fails.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from workloads import Step, cell_key

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _close(x, ref, atol: float, rtol: float = 0.0) -> bool:
    if isinstance(ref, list):
        return isinstance(x, list) and len(x) == len(ref) and all(
            _close(a, b, atol, rtol) for a, b in zip(x, ref))
    if ref is None or isinstance(ref, (bool, str)):
        return x == ref
    return isinstance(x, (int, float)) and abs(x - ref) <= atol + rtol * abs(ref)


def _exact(x, ref) -> bool:
    return x == ref and type(x) is type(ref)


def compare(experiment: str, params: dict, out: dict, ref: dict) -> List[str]:
    """The outputs that differ from the reference beyond tolerance.  A
    tolerance is None (exact), (atol, rtol), or a predicate of (value, ref)."""
    if experiment == "trace":
        # criterion 1: 1e-9 on normalized traces
        tol = {key: (1e-9, 0.0) for key in ref}
    elif experiment == "petersson":
        # criterion 2: within the certified truncation bounds (+ float slack),
        # and the bound itself not loosened.  The newform bounds of the
        # transition-window cells are vacuous (about 1e10), so the value must
        # also stay within 1e-6 relative of the reference.
        slack = min(out.get("truncation_bound", math.inf) + ref["truncation_bound"],
                    1e-6 * max(1.0, abs(ref["value"]))) + 1e-8
        tol = {"value": (slack, 0.0),
               "truncation_bound": lambda x, r: isinstance(x, float) and x <= r * (1.0 + 1e-6)}
    elif experiment == "bessel-sum":
        tol = {"sum": (1e-12, 1e-9)}
    elif experiment == "noweight":
        tol = {"K": None, "lhs": (1e-12, 1e-9), "main_term": (1e-12, 1e-9), "ratio": (1e-12, 1e-9)}
    elif experiment == "variance":
        # the difference cancels: bound it relative to the sums it cancels
        scale = 1e-9 * max(abs(ref["variance"]), abs(ref["diagonal"]), 1.0)
        tol = {"variance": (0.0, 1e-9), "diagonal": (0.0, 1e-9), "difference": (scale, 0.0),
               "scaled_difference": (scale / params["n"] ** 0.6, 0.0)}
    elif experiment == "arith-sum":
        tol = {"d_square_sum": (0.0, 1e-9), "normalized": (0.0, 1e-9), "n0": None,
               "a_count_ratio": (0.0, 1e-12)}
    elif experiment == "discrepancy":
        # criterion 9: 1e-9 on the trace bound; recovered atoms to 1e-6
        tol = {"dim": None, "atoms": (1e-6, 0.0), "discrepancy_vs_plancherel": (1e-6, 0.0),
               "moment2_gap": (1e-6, 0.0), "trace_bound_at_p": (1e-9, 0.0)}
    elif experiment == "orbital":
        # criterion 10: relative 1e-6 (relative_error itself is an oracle check)
        scale = 1e-6 * abs(ref["closed_form"])
        tol = {"quadrature_re": (scale, 0.0), "quadrature_im": (scale, 0.0),
               "closed_form": (0.0, 1e-6)}
    else:
        raise ValueError(f"no tolerances for experiment {experiment!r}")
    bad = []
    for key, t in tol.items():
        if key not in out:
            bad.append(f"{key} missing")
        elif not (_exact(out[key], ref[key]) if t is None else
                  t(out[key], ref[key]) if callable(t) else _close(out[key], ref[key], *t)):
            bad.append(f"{key} {out[key]!r} vs reference {ref[key]!r}")
    return bad


class Oracles:
    """Independent checks that hold on every seed."""

    def __init__(self):
        self._tau = None

    def _tau_n(self, n: int) -> int:
        from hecke_spectra.oracles import delta_tau

        if self._tau is None or self._tau.n_max < n:
            self._tau = delta_tau(max(n, 1000))
        return self._tau.a(n)

    def check(self, experiment: str, p: dict, out: dict) -> List[str]:
        from hecke_spectra.oracles import dim_level_one, genus_X0

        bad = []
        if experiment == "trace" and p["kind"] == "new":
            total = out.get("total", math.nan)
            if p["N"] == 1 and p["k"] == 12:
                want = self._tau_n(p["n"]) / p["n"] ** 5.5
                if not abs(total - want) <= 1e-9:
                    bad.append(f"total {total!r} vs tau(n)/n^5.5 = {want!r}")
            if p["n"] == 1 and p["k"] == 2 and not abs(total - genus_X0(p["N"])) <= 1e-12:
                bad.append(f"weight-2 dimension {total!r} vs genus {genus_X0(p['N'])}")
            if p["n"] == 1 and p["N"] == 1 and p["k"] >= 4 and not abs(total - dim_level_one(p["k"])) <= 1e-9:
                bad.append(f"dimension {total!r} vs {dim_level_one(p['k'])}")
        elif experiment == "petersson" and p["kind"] == "full" and p["N"] == 1 and p["k"] < 12:
            # empty space: the average is pure truncation error
            if not abs(out.get("value", math.nan)) <= out.get("truncation_bound", -1.0) + 1e-8:
                bad.append(f"empty-space value {out.get('value')!r} above its truncation bound")
        elif experiment == "orbital":
            if not out.get("relative_error", math.inf) <= 1e-6:
                bad.append(f"orbital relative error {out.get('relative_error')!r} above 1e-6")
        elif experiment == "noweight":
            if not 0.5 <= out.get("ratio", math.nan) <= 1.5:
                bad.append(f"unweighted ratio {out.get('ratio')!r} outside [0.5, 1.5]")
        elif experiment == "variance":
            if not abs(out.get("difference", math.inf)) / p["n"] ** 0.6 <= 10.0:
                bad.append("variance identity constant above 10")
        elif experiment == "discrepancy" and p["N"] == 1:
            atoms = out.get("atoms", [])
            if out.get("dim") != dim_level_one(p["k"]) or len(atoms) != out.get("dim"):
                bad.append(f"dimension {out.get('dim')!r} vs {dim_level_one(p['k'])}")
            if atoms != sorted(atoms) or any(abs(a) > 2.0 for a in atoms):
                bad.append("atoms unsorted or outside the Deligne range [-2, 2]")
        return bad

    def check_pass(self, by_key: Dict[str, dict]) -> List[Tuple[str, str]]:
        """Cross-cell oracles: the k = 12 Petersson rank-one ratio
        Delta(1, n) / Delta(1, 1) = tau(n) / n^5.5 (criterion 2)."""
        bad = []
        base = by_key.get(cell_key("petersson", {"k": 12, "N": 1, "m": 1, "n": 1, "kind": "full"}))
        for key, rec in by_key.items():
            p = rec["parameters"]
            if base is None or rec["experiment"] != "petersson" or p["kind"] != "full" \
                    or (p["k"], p["N"], p["m"]) != (12, 1, 1):
                continue
            ratio = rec["outputs"]["value"] / base["outputs"]["value"]
            want = self._tau_n(p["n"]) / p["n"] ** 5.5
            if not abs(ratio - want) <= 1e-6:
                bad.append((key, f"rank-one ratio {ratio!r} vs tau(n)/n^5.5 = {want!r}"))
        return bad


class Checker:
    def __init__(self, reference: Dict[str, dict] = None):
        self.reference = reference if reference is not None else json.loads(REFERENCE.read_text())
        self.oracles = Oracles()

    def check_pass(self, steps: Sequence[Step], records: List[dict]) -> Tuple[int, int, List[str]]:
        """(cells attempted, cells failed, failure messages) for one child's
        steps and the records it emitted.  Each expected cell consumes one
        matching record; an expected cell left unmatched fails."""
        expected = Counter(cell_key(s.experiment, c) for s in steps for c in s.cells())
        seen: Counter = Counter()
        failed: Counter = Counter()
        emitted: Dict[str, dict] = {}
        messages: List[str] = []
        for rec in records:
            key = cell_key(rec.get("experiment"), rec.get("parameters"))
            if seen[key] >= expected[key]:
                continue
            seen[key] += 1
            emitted[key] = rec
            bad = self.oracles.check(rec["experiment"], rec["parameters"], rec["outputs"])
            ref = self.reference.get(key)
            if ref is None:
                bad.append("no reference output")
            else:
                bad += compare(rec["experiment"], rec["parameters"], rec["outputs"], ref)
            if bad:
                failed[key] += 1
                messages.append(f"{key}: {bad[0]}")
        for key, msg in self.oracles.check_pass(emitted):
            if not failed[key]:
                failed[key] += 1
                messages.append(f"{key}: {msg}")
        for key in expected:
            if seen[key] < expected[key]:
                failed[key] += expected[key] - seen[key]
                messages.append(f"{key}: not emitted")
        return sum(expected.values()), sum(failed.values()), messages
