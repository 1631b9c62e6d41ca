import math
from fractions import Fraction

import numpy as np
import pytest

from hecke_spectra.arithmetic import divisors, euler_phi, mobius, sigma
from hecke_spectra.eichler_selberg import (
    WindowSpec,
    _hw_sum,
    _hyperbolic_coeff,
    averaged_trace_window,
    d_coefficient,
    d_coefficients,
    diagonal_side,
    newform_cross_route,
    noweight_main_term,
    poisson_character_sum,
    trace_full,
    trace_new,
    variance_window,
)
from hecke_spectra.oracles import delta_tau, dim_level_one, genus_X0, level_one_eigenform

SQUAREFREE_LEVELS = (1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15)


def test_tau_oracle():
    tau = delta_tau(200)
    for n in range(1, 201):
        assert abs(trace_new(n, 12, 1).total - tau.a(n) / n ** 5.5) < 1e-12


def test_higher_weight_eigenform_oracles():
    for k in (16, 18, 20, 22, 26):
        f = level_one_eigenform(k, 60)
        for n in range(1, 61):
            want = f.a(n) / n ** ((k - 1) / 2.0)
            assert abs(trace_new(n, k, 1).total - want) < 1e-12


def test_level_one_dimensions():
    for k in range(4, 80, 2):
        assert abs(trace_new(1, k, 1).total - dim_level_one(k)) < 1e-10


def test_weight_two_genus():
    # dim S_2(Gamma_0(N))^new summed over divisors = genus of X_0(N)
    for N in SQUAREFREE_LEVELS:
        newdims = sum(round(trace_new(1, 2, M).total) for M in _divisors(N))
        # Actually genus counts oldforms too: g = sum over M|N of
        # sigma_0(N/M) * dim_new(M) ... for squarefree N each newform at M
        # contributes sigma_0(N/M) oldform copies
        g = sum(
            _sigma0(N // M) * round(trace_new(1, 2, M).total) for M in _divisors(N)
        )
        assert g == genus_X0(N), N


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _sigma0(n):
    return len(_divisors(n))


def test_weight_two_vanishing_genus_zero():
    # S_2(Gamma_0(N)) = 0 for these levels, so every full trace vanishes
    for N in (1, 2, 3, 5, 6, 7, 10, 13):
        for n in range(1, 120):
            if math.gcd(n, N) != 1:
                continue
            assert abs(float(trace_full(n, 2, N).total)) < 1e-12, (n, N)


def count_points_11(p):
    # y^2 + y = x^3 - x^2 - 10x - 20 over F_p, plus the point at infinity
    count = 1
    for x in range(p):
        rhs = (x ** 3 - x * x - 10 * x - 20) % p
        for y in range(p):
            if (y * y + y - rhs) % p == 0:
                count += 1
    return count


def test_weight_two_level_11_point_counts():
    # S_2(Gamma_0(11)) is spanned by the eigenform attached to X_0(11) itself
    for p in (2, 3, 5, 7, 13, 17, 19, 23, 29):
        a_p = p + 1 - count_points_11(p)
        assert abs(float(trace_new(p, 2, 11).total) - a_p / math.sqrt(p)) < 1e-12


def test_deligne_envelope():
    # |normalized trace| <= sigma_0(n) * dim
    for N in (1, 2, 5, 11):
        dim = round(trace_new(1, 24, N).total)
        for n in range(1, 150):
            if math.gcd(n, N) != 1:
                continue
            assert abs(trace_new(n, 24, N).total) <= sigma(0, n) * dim + 1e-9


def test_term2_elliptic_bound():
    # the elliptic term is a finite sum of class numbers; crude uniform bound
    for n in (7, 48, 99, 144):
        for N in (1, 2, 3, 6):
            if math.gcd(n, N) != 1:
                continue
            tb = trace_full(n, 8, N)
            assert abs(tb.term2) < 20.0 * sigma(1, n) * math.sqrt(N + 1), (n, N)


def test_weight_two_correction_term():
    tb = trace_full(6, 2, 1)
    assert tb.coeff4 == sigma(1, 6)
    tb12 = trace_full(6, 12, 1)
    assert tb12.coeff4 == 0


def test_d_coefficient_even_in_t():
    for n in (15, 27, 105):
        for N in (2, 3):
            if math.gcd(n, N) != 1:
                continue
            tmax = math.isqrt(4 * n - 1)
            for t in range(0, tmax + 1):
                assert d_coefficient(t, n, N) == d_coefficient(-t, n, N)


# every level on n <= 1001; the large n, whose per-t route is slow, on four cells
ROW_CELLS = [(n, N) for N in (1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 30)
             for n in tuple(range(1, 25)) + (97, 243, 625, 1001)]
ROW_CELLS += [(2999, 1), (2401, 6), (1369, 12), (2999, 30)]


def test_d_coefficients_match_the_per_t_route():
    # every value bit for bit against the per-(t, f) Fraction route
    unit_terms = set()
    for n, N in ROW_CELLS:
        row = d_coefficients(n, N)
        tmax = math.isqrt(4 * n - 1)
        assert row.shape == (2 * tmax + 1,)
        for t in range(-tmax, tmax + 1):
            want = float(_hw_sum(t, n, N, True)) / (2.0 * math.sqrt(4 * n - t * t))
            assert float(row[t + tmax]).hex() == want.hex(), (t, n, N)
            m = 4 * n - t * t
            for unit in (3, 4):  # the w = 3 and w = 2 terms, h_w(-unit) at f^2 = m/unit
                if m % unit == 0 and math.isqrt(m // unit) ** 2 == m // unit:
                    unit_terms.add(unit)
    assert unit_terms == {3, 4}


def test_d_coefficient_reads_the_row():
    row = d_coefficients(105, 2)
    assert not row.flags.writeable
    for t in (-20, -3, 0, 7, 20):
        assert d_coefficient(t, 105, 2) == row[t + 20]
    with pytest.raises(ValueError):
        d_coefficient(21, 105, 2)  # t^2 >= 4n


def _hyperbolic_per_divisor(n, k, N):
    # one reduced Fraction per divisor, as the coefficient was first written
    acc = Fraction(0)
    for d in divisors(n):
        if d * d > n:
            continue
        csum = sum(euler_phi(math.gcd(c, N // c)) for c in divisors(N)
                   if (n // d - d) % math.gcd(c, N // c) == 0)
        w = Fraction(1, 2) if d * d == n else Fraction(1)
        acc -= w * csum * Fraction(d ** (k - 1), n ** (k // 2 - 1))
    return acc


def test_hyperbolic_coeff_one_denominator():
    cells = [(n, k, N) for n in (1, 2, 4, 6, 9, 12, 36, 100) for k in (2, 4, 12, 24)
             for N in (1, 5, 6, 11) if math.gcd(n, N) == 1]
    cells += [(2280, 600, 1), (9120, 1200, 1), (36480, 2400, 1), (36480, 2400, 7)]
    for n, k, N in cells:
        assert _hyperbolic_coeff(n, k, N) == _hyperbolic_per_divisor(n, k, N), (n, k, N)


def test_variance_identity_small():
    # at genus-zero levels the weight-2 newform trace vanishes, so the
    # off-diagonal contribution reduces to the k=2 cross term; for square n
    # that leaves an exactly predictable offset from the identity component
    from hecke_spectra.arithmetic import euler_phi
    from hecke_spectra.special_functions import phi_eval

    for (n, N) in [(15, 2), (27, 2), (105, 2), (625, 3)]:
        T = 2.0 * math.ceil(math.sqrt(n))
        v = variance_window(n, N, T)
        d = diagonal_side(n, N, T)
        b4 = mobius(N) * sigma(1, n) / math.sqrt(n)
        if math.isqrt(n) ** 2 == n:
            b1_k2 = euler_phi(N) / (12.0 * math.sqrt(n))
            expected = -2.0 * phi_eval(1.0 / T) * b4 * b1_k2
        else:
            expected = 0.0
        assert abs((v - d) - expected) < 1e-6 * max(1.0, abs(v)), (n, N)


def test_variance_summand_matches_trace():
    # one k at a time: the vectorized summand equals the trace formula parts
    n, N, T = 15, 2, 8.0
    from hecke_spectra.eichler_selberg import _phi_weights, _variance_inputs

    _, y, theta = _variance_inputs(n, N, T)
    for k in (4, 8, 16, 30):
        s = -2.0 * float(np.sin((k - 1.0) * theta) @ y)
        tb = trace_new(n, k, N)
        assert abs(s - tb.total) < 1e-10, k


def test_variance_window_matches_per_k_traces():
    # the whole weighted sum, every k through trace_new: one non-square cell
    # and one square cell, where the identity term is subtracted
    from hecke_spectra.arithmetic import euler_phi
    from hecke_spectra.eichler_selberg import _odd_cutoff, _variance_inputs
    from hecke_spectra.special_functions import phi_eval

    for (n, N, T) in [(15, 2, 8.0), (49, 3, 14.0)]:
        _, y, _ = _variance_inputs(n, N, T)
        b4 = mobius(N) * sigma(1, n) / math.sqrt(n)
        j_max = _odd_cutoff(T, (2.0 * float(np.sum(np.abs(y))) + abs(b4)) ** 2, 1e-8)
        square = math.isqrt(n) ** 2 == n
        terms = []
        for k in range(2, j_max + 2, 2):
            identity = (k - 1) / 12.0 * euler_phi(N) / math.sqrt(n) if square else 0.0
            terms.append(phi_eval((k - 1) / T) * (trace_new(n, k, N).total - identity) ** 2)
        expected = math.fsum(terms)
        got = variance_window(n, N, T)
        assert abs(got - expected) <= 1e-12 * expected, (n, N, got, expected)


def test_variance_reflection_symmetry():
    # the elliptic sum at weight k equals minus the sum at 2-k
    n, N = 105, 2
    from hecke_spectra.eichler_selberg import _variance_inputs

    _, y, theta = _variance_inputs(n, N, 2.0 * math.ceil(math.sqrt(n)))
    for k in (6, 14, 40):
        fwd = -2.0 * float(np.sin((k - 1.0) * theta) @ y)
        bwd = -2.0 * float(np.sin((1.0 - k) * theta) @ y)
        assert abs(fwd + bwd) < 1e-12


def test_poisson_character_sum_vanishes_in_bulk():
    for (T, theta) in [(8.0, 1.0), (16.0, math.pi / 2), (50.0, 2.5), (100.0, 0.5)]:
        re, im_res = poisson_character_sum(T, theta)
        assert abs(re) < 1e-9
        assert im_res < 1e-9


def test_poisson_character_sum_peaks_at_zero():
    re, _ = poisson_character_sum(50.0, 1e-4)
    assert re > 10.0


def test_averaged_window_requires_matched_K():
    with pytest.raises(ValueError):
        averaged_trace_window(100, 1, WindowSpec(50.0, 0.25, 1.0, 5.0))


def _window_spec(n: int) -> WindowSpec:
    K = int(4.0 * math.pi * math.sqrt(n))
    return WindowSpec(float(K), 0.25, 1.0, K ** 0.25)


def test_averaged_window_matches_per_k_traces():
    # the batched window against its definition, one trace_new call per weight
    from hecke_spectra.special_functions import psi_eval

    for (n, N) in [(2280, 1), (2281, 2), (9121, 6)]:
        spec = _window_spec(n)
        h = spec.K ** spec.delta
        terms = []
        for k in range(2 * math.ceil((spec.K - h) / 2), 2 * math.floor((spec.K + h) / 2) + 2, 2):
            sign = -1.0 if (k // 2) % 2 else 1.0
            terms.append(psi_eval((k - spec.K) / h) * sign * trace_new(n, k, N).total)
        expected = math.fsum(terms) / h
        got = averaged_trace_window(n, N, spec)
        assert abs(got - expected) <= 1e-12 * abs(expected), (n, N, got, expected)


def test_averaged_window_reads_the_row_not_the_per_k_traces(monkeypatch):
    import hecke_spectra.eichler_selberg as es

    calls = []
    monkeypatch.setattr(es, "_hw_sum", lambda *a: calls.append(("_hw_sum", a)))
    monkeypatch.setattr(es, "trace_new", lambda *a: calls.append(("trace_new", a)))
    averaged_trace_window(2289, 5, _window_spec(2289))
    assert calls == []
    with pytest.raises(ValueError):
        averaged_trace_window(2280, 4, _window_spec(2280))  # N not squarefree


def test_noweight_main_term_sign():
    # mu(N) flips the sign of the main term
    n = 2280
    K = int(4 * math.pi * math.sqrt(n))
    assert noweight_main_term(n, 1, K) == -noweight_main_term(n, 2, K)


def test_dual_route_consistency_grid():
    # the direct newform formula against the inclusion-exclusion of trace_full:
    # rational coefficients exactly, the elliptic term to 1e-9 relative
    for N in SQUAREFREE_LEVELS:
        for k in (2, 4, 6, 12, 20):
            for n in range(1, 40):
                if math.gcd(n, N) != 1:
                    continue
                tb = trace_new(n, k, N)
                c1, t2, c3, c4 = newform_cross_route(n, k, N)
                assert (c1, c3, c4) == (tb.coeff1, tb.coeff3, tb.coeff4), (n, k, N)
                assert abs(t2 - tb.term2) <= 1e-9 * (1.0 + abs(tb.term2)), (n, k, N)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        trace_new(2, 13, 1)  # odd weight
    with pytest.raises(ValueError):
        trace_new(2, 12, 4)  # non-squarefree level for the newform route
    with pytest.raises(ValueError):
        trace_new(3, 12, 3)  # gcd(n, N) > 1
    with pytest.raises(ValueError):
        variance_window(15, 1, 8.0)  # needs N > 1
    with pytest.raises(ValueError):
        variance_window(15, 2, 1.0)  # T below sqrt(n)
