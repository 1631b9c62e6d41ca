"""Certified Bessel evaluation, Airy function, and the fixed test functions.

bessel_j carries an a-posteriori absolute error bound: quadrature aliasing is
bounded by series-tail estimates on the aliased orders, which sit deep in the
exponential-decay regime by construction of the node count.

The test functions are fixed representatives of the classes the theory
allows: psi is the standard normalized bump on [-1,1]; phi is sinc^16(pi
x/800), i.e. the squared inverse transform of an order-8 B-spline seed of
half-width 1/200, so phi >= 0, phi(0) = 1, and phi-hat is an order-16
B-spline supported exactly in [-1/100, 1/100].
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lgamma

import numpy as np

# mpmath is imported inside the functions that use it: petersson imports this
# module for bessel_j and _log_series_head only, and starts without mpmath.
# mp.workdps mutates the shared mpmath context; concurrent entry from a
# library caller's threads can shift precision mid-computation (observed as a
# tanh-sinh node collapsing onto an endpoint singularity).  Every workdps
# block in the package takes this lock first.
MP_CONTEXT_LOCK = threading.Lock()

_SPLINE_ORDER = 16  # phi-hat is a 16-fold box convolution of width 1/800


@dataclass(frozen=True)
class BesselEval:
    order: int
    argument: float
    value: float
    abs_error_bound: float
    method: str

    def __post_init__(self):
        if abs(self.value) > 1.0 + 1e-12:
            raise ValueError(f"|J_{self.order}({self.argument})| = {self.value} > 1")


@dataclass(frozen=True)
class TestFunctionPsi:
    """Normalized bump c*exp(-1/(1-t^2)) on (-1,1)."""

    normalization: float


def _log_series_head(nu: int, x: float) -> float:
    """log of (x/2)^nu / nu!, the leading series term and a bound for |J_nu(x)|."""
    if x <= 0.0:
        return -math.inf if nu > 0 else 0.0
    return nu * math.log(x / 2.0) - lgamma(nu + 1)


def _alias_bound(order: int, x: float, M: int) -> float:
    """Bound sum_{j != 0} |J_{order + jM}(x)| via |J_nu(x)| <= (x/2)^nu/nu!."""
    total = 0.0
    j = 1
    while True:
        added = 0.0
        for nu in (order + j * M, j * M - order):
            lb = _log_series_head(nu, x)
            if lb > -745.0:
                added += math.exp(lb)
        total += added
        if added < 1e-18 * max(total, 1e-300) or j > 64:
            return total
        j += 1


def _bessel_series(order: int, x: float) -> BesselEval:
    if x == 0.0:
        return BesselEval(order, 0.0, 1.0 if order == 0 else 0.0, 1e-16, "series")
    # terms scaled by the leading one: r_0 = 1, r_{k+1} = -r_k (x/2)^2/((k+1)(order+k+1));
    # the ratios stay within ~e^25 of 1 for x <= 30, so no overflow
    q = (x / 2.0) ** 2
    r = 1.0
    acc = [1.0]
    abs_acc = 1.0
    k = 0
    while True:
        r *= -q / ((k + 1) * (order + k + 1))
        acc.append(r)
        abs_acc += abs(r)
        k += 1
        if abs(r) < 1e-22 * abs_acc and k * (order + k) > q:
            break
    s = math.fsum(acc)
    lt0 = order * math.log(x / 2.0) - lgamma(order + 1)
    if lt0 <= -745.0:
        # leading term underflows; past k(order+k) > q the terms decay
        # geometrically, so the whole sum is below the smallest normal float
        return BesselEval(order, x, 0.0, 1e-300, "series")
    t0 = math.exp(lt0)
    tail = abs(r) * q / ((k + 1) * (order + k + 1))
    # t0 carries the exp/lgamma error, each r_k at most 3k rounding steps
    rel_round = (abs(lt0) + 20.0) * 1.2e-16 + 3.6e-16 * (k + 1)
    bound = t0 * (2.0 * tail + abs_acc * rel_round) + 1e-18
    return BesselEval(order, x, t0 * s, bound, "series")


def _bessel_quadrature(order: int, x: float) -> BesselEval:
    M = 2 * math.ceil(x + order) + 64
    while True:
        alias = _alias_bound(order, x, M)
        if alias <= 1e-12:
            break
        M = int(M * 1.5) + 1
    theta = (2.0 * math.pi / M) * np.arange(M)
    value = float(np.mean(np.cos(order * theta - x * np.sin(theta))))
    roundoff = (math.pi * order + x) * 1.2e-16 + 1e-15
    value = min(1.0, max(-1.0, value))
    return BesselEval(order, x, value, alias + roundoff, "quadrature")


def bessel_j(order: int, x: float) -> BesselEval:
    """J_order(x) by periodic-trapezoid quadrature of the integral
    representation, or by the power series when it has no cancellation
    ((x/2)^2 <= order + 1, terms strictly decreasing: full relative
    accuracy there, which the quadrature's absolute error cannot give)."""
    if not (isinstance(order, (int, np.integer)) and 0 <= order <= 10 ** 5):
        raise ValueError(f"bessel_j: order {order} outside [0, 1e5]")
    x = float(x)
    if not (0.0 <= x <= 10 ** 6):
        raise ValueError(f"bessel_j: argument {x} outside [0, 1e6]")
    if (x / 2.0) ** 2 <= order + 1.0:
        # terms strictly decreasing: no cancellation at all
        return _bessel_series(int(order), x)
    if x <= 30.0:
        # mild cancellation region: the series bound is computed a
        # posteriori, so keep it whenever it beats the quadrature's
        # absolute-accuracy floor (essential for tiny J at order ~ x)
        ser = _bessel_series(int(order), x)
        if ser.abs_error_bound <= 1e-13:
            return ser
    return _bessel_quadrature(int(order), x)


@lru_cache(maxsize=None)
def _airy_coeffs(dps: int):
    import mpmath as mp

    with MP_CONTEXT_LOCK, mp.workdps(dps):
        c1 = mp.mpf(3) ** mp.mpf("-2/3") / mp.gamma(mp.mpf(2) / 3)
        c2 = mp.mpf(3) ** mp.mpf("-1/3") / mp.gamma(mp.mpf(1) / 3)
        return +c1, +c2


def airy_ai(x: float) -> float:
    """Ai(x) from the two Maclaurin series, at precision adapted to the
    cancellation scale exp((2/3)|x|^{3/2})."""
    if abs(x) > 20.0:
        raise ValueError("airy_ai: |x| <= 20 supported")
    import mpmath as mp

    dps = 30 + int(0.3 * abs(x) ** 1.5)
    c1, c2 = _airy_coeffs(dps)
    with MP_CONTEXT_LOCK, mp.workdps(dps):
        xm = mp.mpf(x)
        x3 = xm ** 3
        # f = sum 3^k (1/3)_k x^{3k}/(3k)!,  g = sum 3^k (2/3)_k x^{3k+1}/(3k+1)!
        f = term_f = mp.mpf(1)
        g = term_g = xm
        k = 0
        while True:
            term_f *= x3 * (3 * k + 1) / ((3 * k + 1) * (3 * k + 2) * (3 * k + 3))
            term_g *= x3 * (3 * k + 2) / ((3 * k + 2) * (3 * k + 3) * (3 * k + 4))
            f += term_f
            g += term_g
            k += 1
            if abs(term_f) < mp.mpf(10) ** (-dps) and abs(term_g) < mp.mpf(10) ** (-dps):
                break
        return float(c1 * f - c2 * g)


def bessel_transition_approx(alpha: float, a: float) -> float:
    """Main term of the transition-zone asymptotic J_alpha(alpha + a alpha^{1/3})."""
    if abs(a) > 2.0:
        raise ValueError("bessel_transition_approx: |a| <= 2 required")
    if alpha < 100.0:
        raise ValueError("bessel_transition_approx: alpha >= 100 required")
    cbrt2 = 2.0 ** (1.0 / 3.0)
    return cbrt2 / alpha ** (1.0 / 3.0) * airy_ai(-cbrt2 * a)


@lru_cache(maxsize=1)
def _psi() -> TestFunctionPsi:
    import mpmath as mp

    with MP_CONTEXT_LOCK, mp.workdps(30):
        integral = mp.quad(lambda t: mp.exp(-1 / (1 - t * t)), [-1, 1])
        return TestFunctionPsi(float(1 / integral))


def psi_eval(t: float) -> float:
    """Normalized smooth bump supported in [-1,1] with integral 1."""
    if abs(t) >= 1.0:
        return 0.0
    return _psi().normalization * math.exp(-1.0 / (1.0 - t * t))


def phi_eval(x: float) -> float:
    """phi(x) = sinc^16(x/800), positive, even, phi(0)=1, band-limited transform."""
    u = math.pi * x / 800.0
    if abs(u) < 1e-6:
        s = 1.0 - u * u / 6.0
    else:
        s = math.sin(u) / u
    return s ** 16


def phi_envelope(x: float) -> float:
    """Proven pointwise bound phi(x) <= min(1, (800/(pi x))^16)."""
    ax = abs(x)
    if ax <= 800.0 / math.pi:
        return 1.0
    return (800.0 / (math.pi * ax)) ** 16


@lru_cache(maxsize=4096)
def _cardinal_bspline(m: int, t: Fraction) -> Fraction:
    """Centered cardinal B-spline M_m(t), exact in rationals."""
    half = Fraction(m, 2)
    if abs(t) >= half:
        return Fraction(0)
    acc = Fraction(0)
    for j in range(m + 1):
        u = t + half - j
        if u > 0:
            acc += (-1) ** j * math.comb(m, j) * u ** (m - 1)
    return acc / math.factorial(m - 1)


def phi_hat_eval(xi: float) -> float:
    """Fourier transform of phi: an order-16 B-spline supported in [-1/100, 1/100].

    Computed exactly in rational arithmetic (the naive alternating power sum
    cancels catastrophically in floats near the support edge)."""
    t = Fraction(xi).limit_denominator(10 ** 15) * 800
    return float(800 * _cardinal_bspline(_SPLINE_ORDER, t))


def check_bessel_sum_cell(K: float, delta: float, x: float) -> None:
    """Raise ValueError unless weighted_bessel_order_sum accepts (K, delta, x)."""
    if K < 100.0:
        raise ValueError("weighted_bessel_order_sum: K >= 100 required")
    if not (0.0 < delta < 1.0 / 3.0):
        raise ValueError("weighted_bessel_order_sum: delta in (0, 1/3) required")
    if not (K + K ** delta < 10 ** 5 + 1 and 0.0 <= x <= 10 ** 6):
        raise ValueError("weighted_bessel_order_sum: orders <= 1e5 and x in [0, 1e6] required")


def weighted_bessel_order_sum(K: float, delta: float, x: float) -> float:
    """(1/K^delta) sum over odd l, |l-K| <= K^delta, of psi((l-K)/K^delta) J_l(x)."""
    check_bessel_sum_cell(K, delta, x)
    h = K ** delta
    lo = math.ceil(K - h)
    hi = math.floor(K + h)
    terms = []
    for l in range(lo, hi + 1):
        if l % 2 == 0:
            continue
        w = psi_eval((l - K) / h)
        if w > 0.0:
            terms.append(w * bessel_j(l, x).value)
    return math.fsum(terms) / h
