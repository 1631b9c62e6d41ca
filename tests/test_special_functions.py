import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid
from scipy.special import airy as scipy_airy
from scipy.special import jv as scipy_jv

from hecke_spectra.special_functions import (
    PSI_NORMALIZATION,
    airy_ai,
    bessel_j,
    bessel_transition_approx,
    jv,
    phi_envelope,
    phi_eval,
    phi_hat_eval,
    psi_eval,
    weighted_bessel_order_sum,
)


def test_bessel_against_scipy_small():
    for order in (0, 1, 5, 12, 40):
        for x in (0.1, 1.0, 7.3, 25.0):
            b = bessel_j(order, x)
            assert abs(b.value - scipy_jv(order, x)) < 1e-12 + b.abs_error_bound


def test_bessel_against_scipy_large_order():
    # the quadrature branch; scipy uses an unrelated backend
    for order, x in [(600, 590.0), (2000, 2000.0), (5000, 5100.0)]:
        b = bessel_j(order, x)
        assert abs(b.value - scipy_jv(order, x)) < 1e-10


def test_bessel_recurrence():
    # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x)
    for n, x in [(10, 12.0), (100, 95.0), (700, 710.0)]:
        lhs = bessel_j(n - 1, x).value + bessel_j(n + 1, x).value
        rhs = 2.0 * n / x * bessel_j(n, x).value
        assert abs(lhs - rhs) < 1e-11


def _jv_grid(nu):
    """Arguments in every route of jv at order nu, on both sides of each route
    boundary ((x/2)^2 = nu + 1, x = 25, x = nu), at the turning point
    nu +- nu^(1/3), where J underflows, and up to x = 2e7."""
    edge = 2.0 * math.sqrt(nu + 1.0)
    xs = [0.0, 0.5 * edge, 1.0, 200.0, 25.0, 0.5 * (edge + max(nu, 25.0)),
          0.5 * nu, 0.8 * nu, nu - nu ** (1.0 / 3.0), nu + nu ** (1.0 / 3.0), 1.2 * nu,
          2.0 * nu + 3.0, 1e3, 3e5, 1.7e6, 2e7]
    for b in (edge, 25.0, float(nu)):
        xs += [b * (1.0 - 1e-9), b, b * (1.0 + 1e-9)]
    if nu <= 299:
        xs.append(1e4)  # mpmath's sum takes seconds there at nu >= 1999
    return np.array(sorted({x for x in xs if x >= 0.0}))


def _mpmath_jv(nu, x):
    import mpmath as mp

    with mp.workdps(40):
        # the default precision cap stops mpmath's hypergeometric sum short at
        # large nu and x < 0.8 nu
        return float(mp.besselj(nu, mp.mpf(float(x)), maxprec=50000, maxterms=10 ** 6))


_JV_ORDERS = (0, 1, 3, 11, 63, 299, 1999, 3999)


def test_jv_against_mpmath():
    for nu in _JV_ORDERS:
        xs = _jv_grid(nu)
        got = jv(nu, xs)
        assert np.all(np.isfinite(got)), nu
        want = np.array([_mpmath_jv(nu, x) for x in xs])
        err = np.abs(got - want)
        assert np.max(err) <= 1e-13, (nu, xs[np.argmax(err)], np.max(err))


def test_jv_is_elementwise():
    # each value depends on its own (nu, x) alone: a scalar call, or the same
    # x inside any other array, gives the same float
    rng = np.random.default_rng(5)
    for nu in _JV_ORDERS:
        xs = np.concatenate([_jv_grid(nu), rng.uniform(0.0, 2.5 * nu + 40.0, 400)])
        got = jv(nu, xs)
        assert isinstance(jv(nu, 1.5), float)
        for x, want in zip(xs[:60], got[:60]):
            assert jv(nu, float(x)) == want, (nu, x)
        perm = rng.permutation(len(xs))
        assert np.array_equal(jv(nu, xs[perm]), got[perm])
        assert np.array_equal(jv(nu, xs[::3].reshape(-1, 1))[:, 0], got[::3])


def test_airy_against_scipy():
    for x in np.linspace(-8.0, 5.0, 40):
        assert abs(airy_ai(float(x)) - scipy_airy(x)[0]) < 1e-12


def test_transition_approx():
    # J_alpha(alpha + a alpha^{1/3}) ~ (2/alpha)^{1/3} Ai(-2^{1/3} a)
    alpha = 4000
    for a in (-1.5, -0.5, 0.0, 0.5, 1.5):
        x = alpha + a * alpha ** (1.0 / 3.0)
        approx = bessel_transition_approx(alpha, a)
        exact = scipy_jv(alpha, x)
        assert abs(approx - exact) < 0.2 * alpha ** (-2.0 / 3.0)


def test_psi_bump():
    assert psi_eval(1.0) == 0.0
    assert psi_eval(-1.2) == 0.0
    assert psi_eval(0.3) == psi_eval(-0.3) > 0.0
    xs = np.linspace(-1, 1, 20001)
    integral = trapezoid([psi_eval(float(t)) for t in xs], xs)
    assert abs(integral - 1.0) < 1e-6


def test_psi_normalization_constant():
    import mpmath as mp

    with mp.workdps(30):
        integral = mp.quad(lambda t: mp.exp(-1 / (1 - t * t)), [-1, 1])
        assert float(1 / integral) == PSI_NORMALIZATION


@given(st.floats(min_value=-1e5, max_value=1e5, allow_nan=False))
def test_phi_positive_even_bounded(x):
    v = phi_eval(x)
    assert 0.0 <= v <= 1.0
    assert v == phi_eval(-x)
    assert v <= phi_envelope(x) + 1e-15


def test_phi_hat_support_and_symmetry():
    assert phi_hat_eval(0.0) > 0.0
    assert phi_hat_eval(0.0100001) == 0.0
    assert phi_hat_eval(-0.02) == 0.0
    for xi in (0.001, 0.004, 0.0099):
        assert phi_hat_eval(xi) == phi_hat_eval(-xi) >= 0.0


def test_phi_hat_fourier_consistency():
    # phi(x) = int phi_hat(xi) e(xi x) dxi, checked by direct quadrature
    xis = np.linspace(-0.01, 0.01, 4001)
    vals = np.array([phi_hat_eval(float(x)) for x in xis])
    for x in (0.0, 37.0, 200.0, 801.0):
        recon = trapezoid(vals * np.cos(2.0 * math.pi * xis * x), xis)
        assert abs(recon - phi_eval(x)) < 1e-7


def test_phi_hat_total_mass():
    # int phi_hat = phi(0) = 1
    xis = np.linspace(-0.01, 0.01, 8001)
    mass = trapezoid([phi_hat_eval(float(x)) for x in xis], xis)
    assert abs(mass - 1.0) < 1e-8


def test_weighted_order_sum_against_direct():
    K, delta, x = 300.0, 0.3, 295.0
    h = K ** delta
    direct = sum(
        psi_eval((l - K) / h) * scipy_jv(l, x)
        for l in range(int(K - h) - 1, int(K + h) + 2)
        if l % 2 == 1
    ) / h
    assert abs(weighted_bessel_order_sum(K, delta, x) - direct) < 1e-10


def test_domain_checks():
    for nu, x in [(-1, 1.0), (3, -1.0), (3, [1.0, math.nan]), (3, math.inf)]:
        with pytest.raises(ValueError):
            jv(nu, x)
    with pytest.raises(ValueError):
        weighted_bessel_order_sum(50.0, 0.3, 40.0)
    with pytest.raises(ValueError):
        bessel_transition_approx(50.0, 0.0)
