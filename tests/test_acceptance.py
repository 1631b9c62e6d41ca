"""Acceptance suite: one pass/fail line per criterion (run with -s to see
them live; pytest -v shows the verdict per test either way).

Criterion 4's empty-zone decay check and criterion 5's monotone-convergence
check are known to fail at desk scale; see the repository notes for the
quantitative analysis.  They are asserted at their stated tolerances anyway
rather than loosened.
"""

import math
import random

import numpy as np
import pytest

from hecke_spectra import harness
from hecke_spectra.class_numbers import admissible_n0, count_A, r3, r3_from_hurwitz
from hecke_spectra.eichler_selberg import (
    WindowSpec,
    averaged_trace_window,
    d_coefficient,
    diagonal_side,
    noweight_main_term,
    poisson_character_sum,
    trace_new,
    variance_window,
)
from hecke_spectra.kloosterman import kloosterman_sum, weil_bound
from hecke_spectra.oracles import delta_tau, level_one_eigenform
from hecke_spectra.petersson import (
    maint_cells,
    orbital_integral_A,
    petersson_cells,
    window_n,
)
from hecke_spectra.special_functions import bessel_j, weighted_bessel_order_sum
from hecke_spectra.spectral import (
    discrepancy_lower_bound_moments,
    nu_moment,
    trace_discrepancy_bound,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def test_criterion_01_trace_oracles():
    tau = delta_tau(2000)
    worst = max(
        abs(trace_new(n, 12, 1).total - tau.a(n) / n ** 5.5) for n in range(1, 2001)
    )
    for k in (16, 18, 20, 22, 26):
        f = level_one_eigenform(k, 500)
        worst = max(
            worst,
            max(
                abs(trace_new(n, k, 1).total - f.a(n) / n ** ((k - 1) / 2.0))
                for n in range(1, 501)
            ),
        )
    report("criterion 1 (trace vs eigenform oracles)", worst <= 1e-9,
           f"max abs error {worst:.3e} (tol 1e-9)")


def test_criterion_02_petersson_rank_one():
    tau = delta_tau(50)
    # the 50 rank-one cells and the 100 empty-space cells share one c-walk
    rank_one = [(12, 1, 1, n) for n in range(1, 51)]
    empty = [(k, 1, 1, n) for k in (4, 6, 8, 10, 14) for n in range(1, 21)]
    results = petersson_cells("full", rank_one + empty)
    base = results[0]
    worst = max(
        abs(r.value / base.value - tau.a(r.n) / r.n ** 5.5) for r in results[:len(rank_one)]
    )
    over = max(abs(r.value) - (r.truncation_bound + 1e-8) for r in results[len(rank_one):])
    empty_ok = over <= 0.0
    excess = max(0.0, over)
    report("criterion 2 (Petersson rank-one + empty space)",
           worst <= 1e-6 and empty_ok,
           f"max ratio error {worst:.3e} (tol 1e-6), empty-space excess {excess:.3e}")


def test_criterion_03_transition_main_terms():
    # the 20 window cells share one c-walk
    cells = [(k, N, 1, window_n(k, N)) for k in (500, 1000, 2000, 4000) for N in (1, 2, 3, 5, 6)]
    sups = {}
    ratio_ok = True
    worst_ratio = 0.0
    for (k, *_), (r, main) in zip(cells, maint_cells(cells)):
        res = r.value - main
        sups[k] = max(sups.get(k, 0.0), abs(res) * math.sqrt(k))
        if k >= 1000:
            ratio = abs(res) / abs(main)
            worst_ratio = max(worst_ratio, ratio)
            ratio_ok = ratio_ok and ratio <= 0.2
    slope = np.polyfit(np.log(list(sups)), np.log(list(sups.values())), 1)[0]
    ok = max(sups.values()) < 10.0 and slope <= 0.1 and ratio_ok
    report("criterion 3 (transition window residuals)", ok,
           f"sup residual*sqrt(k) {max(sups.values()):.3f}, log-sup slope {slope:.3f} "
           f"(<= 0.1), worst residual/main {worst_ratio:.4f} (<= 0.2)")


def test_criterion_04_sta3_peak_value():
    K, delta = 2000.0, 0.3
    s = weighted_bessel_order_sum(K, delta, K)
    ref = 0.5 * bessel_j(2000, K).value
    ratio = s / ref
    report("criterion 4a (order-averaged Bessel peak)", abs(ratio - 1.0) <= 0.1,
           f"ratio to J_K(K)/2 = {ratio:.4f} (within 10%)")


def test_criterion_04_sta1_empty_zone():
    K, delta = 2000.0, 0.3
    s = weighted_bessel_order_sum(K, delta, K - math.sqrt(K))
    # the stated tolerance; the smooth-in-order average only suppresses the
    # pre-transition tail to ~1e-5 at K = 2000, so this stays red
    report("criterion 4b (empty-zone decay)", abs(s) <= 1e-10,
           f"|sum| = {abs(s):.3e} (tol 1e-10)")


def test_criterion_04_sta2_transition_band():
    K, delta = 2000.0, 0.3
    worst = max(
        abs(weighted_bessel_order_sum(K, delta, K + a * K ** (1.0 / 3.0)))
        for a in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
    )
    report("criterion 4c (transition band size)", worst <= 10.0 * K ** (-1.0 / 3.0),
           f"max |sum| {worst:.4f} (limit {10.0 * K ** (-1.0 / 3.0):.4f})")


def _noweight_ratio(n: int) -> float:
    K = int(4.0 * math.pi * math.sqrt(n))
    spec = WindowSpec(float(K), 0.25, 1.0, K ** 0.25)
    return averaged_trace_window(n, 1, spec) / noweight_main_term(n, 1, K)


def test_criterion_05_noweight_ratio_bounds():
    ratios = [_noweight_ratio(n) for n in (2280, 9120, 36480)]
    ok = all(0.5 <= r <= 1.5 for r in ratios)
    report("criterion 5a (unweighted average / main term)", ok,
           "ratios " + ", ".join(f"{r:.4f}" for r in ratios) + " (in [0.5, 1.5])")


def test_criterion_05_noweight_monotone():
    devs = [abs(_noweight_ratio(n) - 1.0) for n in (2280, 9120, 36480)]
    ok = all(b <= a + 1e-12 for a, b in zip(devs, devs[1:]))
    # the deviation is dominated by oscillatory noise of size ~0.05 at these
    # K, so strict monotonicity fails at desk scale; asserted as stated
    report("criterion 5b (|ratio-1| non-increasing)", ok,
           "|ratio-1| = " + ", ".join(f"{d:.4f}" for d in devs))


def test_criterion_06_variance_identity():
    C = 0.0
    for n in (15, 27, 105, 625, 2401):
        for N in (2, 3, 5, 6):
            if math.gcd(n, N) != 1:
                continue
            T = 2.0 * math.ceil(math.sqrt(n))
            diff = abs(variance_window(n, N, T) - diagonal_side(n, N, T))
            C = max(C, diff / n ** 0.6)
    worst = 0.0
    for (T, theta) in [(8.0, 1.2), (10.0, 2.0), (50.0, math.pi / 2), (98.0, 0.7)]:
        re, im = poisson_character_sum(T, theta)
        worst = max(worst, abs(re), im)
    report("criterion 6 (variance identity + character sums)",
           C <= 10.0 and worst <= 1e-9,
           f"fitted C = {C:.4f} (<= 10), max character-sum residue {worst:.3e} (tol 1e-9)")


def test_criterion_07_arithmetic_sums():
    rng = np.random.default_rng(20260823)
    ns = sorted(set(int(x) | 1 for x in np.exp(rng.uniform(np.log(1e2), np.log(1e5), 12))))
    c1, c2 = math.inf, 0.0
    for n in ns:
        for N in (2, 3, 5, 6):
            if math.gcd(n, N) != 1:
                continue
            tmax = math.isqrt(4 * n - 1)
            R = math.fsum(
                d_coefficient(t, n, N) ** 2 for t in range(-tmax, tmax + 1)
            ) / math.sqrt(n)
            c1 = min(c1, R)
            c2 = max(c2, R / (math.log(n) ** 2 * math.log(math.log(n)) ** 4))
    gauss_ok = all(r3(n) == r3_from_hurwitz(n) for n in range(1, 10001))
    cmin = math.inf
    for N in (2, 3, 5, 6):
        for n in range(1, 10001, 2):
            if math.gcd(n, N) != 1:
                continue
            n0 = admissible_n0(N, n)
            # skip cells where the congruence class misses [-2 sqrt n, 2 sqrt n]
            if n0 is None or 4 * n < n0 * n0:
                continue
            cmin = min(cmin, count_A(N, n, n0) / n)
    ok = c1 > 0.0 and gauss_ok and cmin > 0.0
    report("criterion 7 (arithmetic sums)", ok,
           f"c1 = {c1:.4f}, c2 = {c2:.5f}, Gauss identity exact to 1e4: {gauss_ok}, "
           f"min A_N(n)/n = {cmin:.4f}")


def test_criterion_08_weil_and_reality():
    rng = random.Random(99)
    worst_over = -math.inf
    worst_imag = 0.0
    for _ in range(10 ** 4):
        c = rng.randrange(1, 3001)
        m = rng.randrange(-10 ** 6, 10 ** 6)
        n = rng.randrange(-10 ** 6, 10 ** 6)
        s = kloosterman_sum(m, n, c)
        worst_over = max(worst_over, abs(s.value) - weil_bound(m, n, c))
        worst_imag = max(worst_imag, s.imaginary_residual)
    report("criterion 8 (Weil bound + reality, 1e4 triples)",
           worst_over <= 1e-8 and worst_imag <= 1e-9,
           f"max |S|-bound = {worst_over:.3e}, max imag residual {worst_imag:.3e}")


def test_criterion_09_moment_largeness():
    rows = []
    for m in range(1, 15):
        x = 4.0 * math.pi * 2 ** (m / 2.0)
        k = 2 * round(x / 2.0)  # nearest even weight to 4 pi 2^{m/2}
        nu = nu_moment(k, 1, 2, m)
        bess = 2.0 * math.pi * abs(bessel_j(k - 1, x).value)
        lb = discrepancy_lower_bound_moments([0.0] * (m - 1) + [nu], m)
        rows.append((m, k, abs(nu), bess, lb))
    size_ok = all(anu >= 0.4 * bess for (_, _, anu, bess, _) in rows)
    scaling = [lb / (k ** (-1.0 / 3.0) / math.log(k) ** 2) for (_, k, _, _, lb) in rows]
    factor = max(scaling) / min(scaling)
    tdb = trace_discrepancy_bound(2, 12, 1)
    tdb_ok = abs(tdb - 24.0 / 2 ** 5.5 / 2.0) <= 1e-9
    report("criterion 9 (moment largeness / discrepancy bound)",
           size_ok and factor <= 5.0 and tdb_ok,
           f"all |nu_m| >= 0.4*2pi|J|: {size_ok}, scaling spread {factor:.2f} (<= 5), "
           f"trace bound at (2,12,1) within 1e-9: {tdb_ok}")


def test_criterion_10_orbital_integrals():
    worst = 0.0
    for k in (12, 24, 48):
        for t in (0.5, 1.0, 2.0):
            quad, closed = orbital_integral_A(t, k)
            worst = max(worst, abs(quad - closed) / abs(closed))
    mags = [abs(orbital_integral_A(1.0, k)[1]) for k in (12, 24, 48)]
    slope = np.polyfit(np.log([12.0, 24.0, 48.0]), np.log(mags), 1)[0]
    report("criterion 10 (orbital integral quadrature)",
           worst <= 1e-6 and 0.05 <= slope <= 0.30,
           f"max relative error {worst:.3e} (tol 1e-6), growth slope {slope:.3f}")


def test_criterion_11_determinism_and_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.CACHE_ENV, str(tmp_path / "cache"))
    harness._CACHE._loaded_from = None
    runs = {}
    for label, threads in [("cold1", 1), ("warm1", 1), ("cold4", 4),
                           ("warm4", 4), ("cold8", 8), ("warm8", 8)]:
        recs = harness.run_experiment("verify", {}, threads=threads)
        runs[label] = [(r.parameters, r.outputs) for r in recs]
    harness._CACHE._loaded_from = None
    base = runs["cold1"]
    identical = all(runs[k] == base for k in runs)
    healthy = all(out["ok"] for _, out in base)
    report("criterion 11 (determinism across threads, cold vs warm)",
           identical and healthy,
           f"six runs identical: {identical}, all self-checks green: {healthy}")
