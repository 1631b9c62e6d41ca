"""Certified Bessel evaluation, Airy function, and the fixed test functions.

bessel_j carries an a-posteriori absolute error bound: quadrature aliasing is
bounded by series-tail estimates on the aliased orders, which sit deep in the
exponential-decay regime by construction of the node count.  jv is the
Petersson walk's array J_nu: numpy only and elementwise, checked against
mpmath in tests but without an error bound per value.

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

# mpmath is imported inside the functions that use it (Airy Ai): petersson
# imports this module for jv, bessel_j and _log_series_head only, and starts
# without mpmath.
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


def _hankel_coeffs(nu: int, terms: int):
    """a_k(nu) = (4nu^2 - 1^2)(4nu^2 - 3^2)...(4nu^2 - (2k-1)^2)/(k! 8^k), k < terms,
    signed as they enter P = sum (-1)^j a_2j x^-2j and Q = sum (-1)^j a_2j+1 x^-2j-1."""
    a = [1.0]
    for k in range(1, terms):
        a.append(a[-1] * (4 * nu * nu - (2 * k - 1) ** 2) / (8 * k))
    signed = [(-1) ** (k // 2) * ak for k, ak in enumerate(a)]
    return signed[0::2], signed[1::2]


# 18 terms: at x >= 25 the first one left out is below 3.1e-17 for nu = 0 and 1
_HANKEL_X = 25.0
# Horner coefficients of P_0, Q_0, P_1, Q_1 in y = x^-2, one row per power
_HANKEL = np.array([c for nu in (0, 1) for c in _hankel_coeffs(nu, 18)]).T[:, :, None]


def _hankel_j01(x: np.ndarray):
    """(J_0(x), J_1(x)) for x >= 25 by Hankel's expansion (DLMF 10.17.3),
    J_nu = sqrt(2/(pi x)) (P cos w - Q sin w), w = x - nu pi/2 - pi/4, with
    cos w and sin w expanded into cos x and sin x, which numpy reduces
    accurately at any x.  The four series share one Horner loop."""
    y = 1.0 / (x * x)
    pq = _HANKEL[-1] * np.ones_like(x)
    for h in _HANKEL[-2::-1]:
        pq *= y
        pq += h
    p0, q0, p1, q1 = pq
    c, s = np.cos(x), np.sin(x)
    r = np.sqrt(1.0 / (math.pi * x))
    return r * (p0 * (c + s) + q0 / x * (c - s)), r * (p1 * (s - c) + q1 / x * (s + c))


def _jv_series(nu: int, x: np.ndarray) -> np.ndarray:
    """J_nu(x) where (x/2)^2 <= nu + 1: (x/2)^nu/nu! times the power series in
    (x/2)^2, whose terms strictly decrease there, by Horner's rule over a
    number of terms that depends on nu alone (each left out below 1e-18)."""
    terms, r = 1, 1.0
    while r >= 1e-18:
        r *= (nu + 1.0) / (terms * (nu + terms))
        terms += 1
    q = 0.25 * x * x
    s, t = np.ones_like(x), np.empty_like(x)
    for k in range(terms, 0, -1):
        np.multiply(q, 1.0 / (k * (nu + k)), out=t)
        t *= s
        np.subtract(1.0, t, out=s)
    if nu == 0:
        return s
    with np.errstate(divide="ignore"):
        return np.exp(nu * np.log(0.5 * x) - lgamma(nu + 1)) * s


def _jv_forward(nu: int, x: np.ndarray) -> np.ndarray:
    """J_nu(x) where x >= max(nu, 25): forward recurrence J_{n+1} = (2n/x) J_n -
    J_{n-1} (DLMF 10.6.1), stable for n <= x, from Hankel's J_0 and J_1."""
    a, b = _hankel_j01(x)
    if nu == 0:
        return a
    tx = 2.0 / x
    c = np.empty_like(x)
    for n in range(1, nu):
        np.multiply(tx, n, out=c)
        c *= b
        c -= a
        a, b, c = b, c, a
    return b


_MILLER_BIG = 2.0 ** 800  # values above this are scaled by 2^-800, which is exact


def _jv_miller(nu: int, x: np.ndarray) -> np.ndarray:
    """J_nu(x) by Miller's algorithm (DLMF 10.74(iv)): the backward recurrence
    J_{n-1} = (2n/x) J_n - J_{n+1} from J_{N+1} = 0, J_N = 1, normalized by
    J_0 + 2 sum J_2k = 1 (DLMF 10.12.4).  Each element starts at its own
    N = m + 9 m^(1/3) + 12, m = max(nu, x), so its result does not depend on
    the other elements: the m^(1/3) term spans the turning-point region
    (Debye, DLMF 10.19.3), and the constant is needed at small m (without
    it the error reaches 1e-11 at x < 25).  The elements run sorted by N, so
    the live ones at each level are a prefix."""
    m = np.maximum(x, nu)
    start = np.maximum(m + 9.0 * np.cbrt(m) + 12.0, nu + 1.0).astype(np.int64)
    order = np.argsort(-start, kind="stable")
    xs, start = x[order], start[order]
    cut = np.flatnonzero(start[1:] != start[:-1]) + 1
    joins = dict(zip(start[np.concatenate(([0], cut))].tolist(), cut.tolist() + [len(xs)]))
    top = int(start[0])
    # max(|J_n|, |J_n+1|) grows by at most 1 + 2n/x per level, so unless this
    # product passes _MILLER_BIG no value can, and the checks are skipped
    check = np.sum(np.log1p(2.0 / xs.min() * np.arange(1, top + 1))) > math.log(_MILLER_BIG)
    tx = 2.0 / xs
    a, b, c = np.zeros_like(xs), np.zeros_like(xs), np.zeros_like(xs)
    even, jnu = np.zeros_like(xs), np.zeros_like(xs)
    live = 0
    for n in range(top, 0, -1):
        # (a, b) = (J_{n+1}, J_n) on the first `live` elements
        if n in joins:
            b[live:joins[n]] = 1.0
            live = joins[n]
        if live == len(xs):
            al, bl, cl, txl, evl = a, b, c, tx, even
        else:
            al, bl, cl, txl, evl = a[:live], b[:live], c[:live], tx[:live], even[:live]
        if check and n % 8 == 0:  # 8 levels grow values by far less than 2^200
            big = np.abs(bl) > _MILLER_BIG
            if big.any():
                for v in (a, b, even, jnu):
                    v[:live][big] *= 1.0 / _MILLER_BIG
        if n == nu:
            jnu[:] = b
        if n % 2 == 0:
            evl += bl
        np.multiply(txl, n, out=cl)
        cl *= bl
        cl -= al
        a, b, c = b, c, a
    if nu == 0:
        jnu = b
    out = np.empty_like(x)
    out[order] = jnu / (b + 2.0 * even)
    return out


def jv(nu: int, x):
    """J_nu(x) for integer nu >= 0 and finite x >= 0 (an array or a scalar),
    elementwise: each value depends only on its own (nu, x), whatever else the
    array holds.  Three routes: the power series where (x/2)^2 <= nu + 1,
    forward recurrence from Hankel's J_0, J_1 where x >= max(nu, 25), and
    Miller's backward recurrence elsewhere.  Against 40-digit mpmath the
    absolute error stays below 1e-13 for nu <= 3999 and x <= 2e7
    (tests/test_special_functions.py); there is no error bound per value."""
    nu = int(nu)
    if nu < 0:
        raise ValueError(f"jv: order {nu} must be >= 0")
    xa = np.asarray(x, dtype=float)
    flat = xa.ravel()
    if not np.all((flat >= 0.0) & (flat < math.inf)):
        raise ValueError("jv: arguments must be finite and >= 0")
    out = np.empty_like(flat)
    series = 0.25 * flat * flat <= nu + 1.0
    forward = ~series & (flat >= max(nu, _HANKEL_X))
    miller = ~(series | forward)
    for route, fn in ((series, _jv_series), (forward, _jv_forward), (miller, _jv_miller)):
        if route.any():
            out[route] = fn(nu, flat[route])
    return out.reshape(xa.shape)[()]


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


# 1 / integral of exp(-1/(1-t^2)) over (-1, 1), rounded from a 30-digit
# mpmath quadrature (a unit test recomputes it)
PSI_NORMALIZATION = 2.252283621043581


def psi_eval(t: float) -> float:
    """Normalized smooth bump c*exp(-1/(1-t^2)) supported in [-1,1] with
    integral 1."""
    if abs(t) >= 1.0:
        return 0.0
    return PSI_NORMALIZATION * math.exp(-1.0 / (1.0 - t * t))


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
