"""Spectral measures attached to Hecke eigenvalue systems: Plancherel and
semicircle reference measures, empirical measures recovered from Chebyshev
moments (= normalized traces at prime powers), interval discrepancy, and
certified discrepancy lower bounds from single moments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .arithmetic import factor
from .special_functions import MP_CONTEXT_LOCK


@dataclass(frozen=True)
class DiscreteMeasure:
    """The probability measure of mass 1/d at each of its d sorted atoms (an
    atom repeated j times carries j/d)."""

    atoms: Tuple[float, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("DiscreteMeasure: no atoms")
        if any(a2 < a1 for a1, a2 in zip(self.atoms, self.atoms[1:])):
            raise ValueError("DiscreteMeasure: atoms must be sorted")
        if any(abs(a) > 2.0 + 1e-6 for a in self.atoms):
            raise ValueError("DiscreteMeasure: atom outside [-2, 2] + 1e-6")


@dataclass(frozen=True)
class ContinuousMeasure:
    kind: str  # "plancherel(p)" or "semicircle"
    cdf: Callable = field(compare=False)  # a float or an ndarray of x in, the same out
    p: Optional[int] = None  # the prime of a Plancherel measure

    def __post_init__(self):
        vals = self.cdf(np.linspace(-2.0, 2.0, 10 ** 4))  # the grid ends are -2.0 and 2.0
        if abs(vals[0]) > 1e-9 or abs(vals[-1] - 1.0) > 1e-9:
            raise ValueError(f"{self.kind}: cdf endpoints not (0, 1)")
        if np.any(np.diff(vals) < -1e-12):
            raise ValueError(f"{self.kind}: cdf not monotone")


def _require_prime(p, who: str) -> int:
    q = int(p) if isinstance(p, (int, np.integer)) else 0  # 2.0 is refused too
    if q < 2 or factor(q).factors != ((q, 1),):
        raise ValueError(f"{who}: p must be prime, got {p}")
    return q


def _float_or_array(v: np.ndarray):
    return float(v) if v.ndim == 0 else v


def plancherel_cdf(p: int, x):
    """CDF of Serre's Plancherel measure mu_p (J. AMS 10, 1997), of density (p+1)/pi
    (1-x^2/4)^{1/2} / ((p^{1/2}+p^{-1/2})^2-x^2): with x = -2 cos(theta), theta in [0, pi],
    F_p(x) = ((p+1) theta - (p-1) Phi)/(2 pi), Phi = atan2((p+1) sin(theta), (p-1) cos(theta)).

    x is a float (a float is returned) or an ndarray (an ndarray of its shape
    is).  Both go through the same numpy ufuncs, so an array entry equals the
    float at that x."""
    p = _require_prime(p, "plancherel_cdf")
    x = np.asarray(x, dtype=float)
    if not np.all((-2.0 <= x) & (x <= 2.0)):
        warnings.warn(f"plancherel_cdf: clamping x = {x} to [-2, 2]")
        x = np.clip(x, -2.0, 2.0)
    theta = np.arccos(-x / 2.0)
    phi = np.arctan2((p + 1) * np.sin(theta), (p - 1) * np.cos(theta))
    # clipped: rounding can put F_p(2) past 1 (by 1.05e-13 at p = 1321)
    f = np.clip(((p + 1) * theta - (p - 1) * phi) / (2.0 * math.pi), 0.0, 1.0)
    return _float_or_array(f)


@lru_cache(maxsize=32)
def plancherel_measure(p: int) -> ContinuousMeasure:
    return ContinuousMeasure(f"plancherel({p})", lambda x: plancherel_cdf(p, x), p)


def semicircle_cdf(x):
    """x is a float (a float is returned) or an ndarray (an ndarray of its
    shape is), clamped to [-2, 2]."""
    x = np.clip(np.asarray(x, dtype=float), -2.0, 2.0)
    f = 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * math.pi) + np.arcsin(x / 2.0) / math.pi
    return _float_or_array(f)


def semicircle_measure() -> ContinuousMeasure:
    return ContinuousMeasure("semicircle", semicircle_cdf)


def _chebyshev_u(m: int, x: np.ndarray) -> np.ndarray:
    """Chebyshev U_m(x/2) at every entry of x, by the three-term recurrence."""
    half_x = x / 2.0
    u_prev, u = np.zeros_like(half_x), np.ones_like(half_x)
    for _ in range(m):
        u_prev, u = u, 2.0 * half_x * u - u_prev
    return u


def chebyshev_moment(measure, m: int) -> float:
    """integral of U_m(x/2) against the measure."""
    if not (0 <= m <= 200):
        raise ValueError("chebyshev_moment: 0 <= m <= 200 required")
    if isinstance(measure, DiscreteMeasure):
        d = len(measure.atoms)
        return math.fsum((1.0 / d) * _chebyshev_u(m, np.array(measure.atoms)))
    if measure.p is None:  # the semicircle
        return 1.0 if m == 0 else 0.0
    return measure.p ** (-m / 2.0) if m % 2 == 0 else 0.0


def _power_sums_from_chebyshev(c: Sequence[float]) -> list:
    """s_j = sum of j-th powers of atoms, from moments c_m = sum U_m(atom/2).

    x^j = sum_{i <= j/2} (C(j,i) - C(j,i-1)) U_{j-2i}(x/2): at x = 2 cos t,
    U_n(x/2) = sum_{r <= n} e^{i(n-2r)t}, so these coefficients add up to the
    binomial ones of (e^{it} + e^{-it})^j.  The integer coefficients are exact
    in mpf; terms are summed in increasing m."""
    import mpmath as mp

    sums = []
    for j in range(len(c)):
        sums.append(mp.fsum(
            mp.mpf(math.comb(j, i) - (math.comb(j, i - 1) if i else 0)) * c[j - 2 * i]
            for i in range(j // 2, -1, -1)
        ))
    return sums


# mpmath is imported inside the Newton route alone, so the measures and the
# Hecke-matrix route start without it
_NEWTON_DPS = 40
_COEFF_THRESHOLD = 10 ** 8


class RecoveryRangeError(ValueError):
    """S_k(N)* is empty, or its dimension is past what empirical_mu_star can
    recover from traces."""


@lru_cache(maxsize=256)
def _newform_dim(k: int, N: int) -> int:
    """dim S_k(N)*, the trace of T_1 on it; kept per (k, N), since each
    discrepancy cell asks for it three times and p = 2, 3 share (k, N)."""
    from .eichler_selberg import trace_new

    return round(trace_new(1, k, N).total)


def check_discrepancy_cell(k: int, N: int, p: int) -> int:
    """dim S_k(N)* if empirical_mu_star(k, N, p) can recover its measure
    (p a prime not dividing N); ValueError otherwise.

    The trace route's trace at p^dim needs class numbers for |D| <= 4 p^dim,
    so dim is limited both by 40 and by 4 p^dim <= 1e7 (dim <= 21 at p = 2).
    The Hecke-matrix route at N = 1 needs neither limit; it keeps them only so
    that the accepted cells are the same at every level."""
    from .class_numbers import MAX_ABS_DISC

    p = _require_prime(p, "empirical_mu_star")
    if math.gcd(p, N) != 1:
        raise ValueError("empirical_mu_star: gcd(p, N) = 1 required")
    d = _newform_dim(k, N)
    if d < 1:
        raise RecoveryRangeError(f"empirical_mu_star: S_{k}({N})* is empty")
    if d > 40:
        raise RecoveryRangeError(f"empirical_mu_star: dim {d} > 40 is out of recovery range")
    if 4 * p ** d > MAX_ABS_DISC:
        raise RecoveryRangeError(
            f"empirical_mu_star: 4*p^dim <= 1e7 required (the trace at p^dim needs "
            f"class numbers for |D| <= 4*p^dim), got 4*{p}^{d}"
        )
    return d


def recovery_route(N: int, dim: int) -> dict:
    """How empirical_mu_star gets the eigenvalues of a cell of level N and
    dimension dim, as the discrepancy records state it in provenance.

    At N = 1 and dim >= 2 they are the eigenvalues of the integer matrix of
    T_p on the Miller basis, which needs coefficients to q^{p dim} only.  At
    dim = 1 (where p may be as large as 2.5e6) and at N > 1 they are the
    roots of the polynomial that Newton's identities give from the traces."""
    if N == 1 and dim >= 2:
        return {"route": "hecke_matrix"}
    return {"route": "newton", "newton_digits": _NEWTON_DPS}


def _newton_roots(k: int, N: int, p: int, d: int) -> list:
    """The eigenvalues of T_p / p^{(k-1)/2} on S_k(N)*, dim d, as the complex
    roots of the polynomial whose power sums are the normalized traces at
    1, p, ..., p^d (Newton's identities at _NEWTON_DPS digits)."""
    import mpmath as mp

    from .eichler_selberg import trace_new

    c = [trace_new(p ** m, k, N).total for m in range(d + 1)]
    with MP_CONTEXT_LOCK, mp.workdps(_NEWTON_DPS):
        s = _power_sums_from_chebyshev(c)
        e = [mp.mpf(1)]
        for i in range(1, d + 1):
            acc = mp.fsum((-1) ** (j - 1) * e[i - j] * s[j] for j in range(1, i + 1))
            e.append(acc / i)
        if max(abs(x) for x in e) > _COEFF_THRESHOLD:
            raise ArithmeticError(
                f"empirical_mu_star({k},{N},{p}): Newton identities ill-conditioned"
            )
        poly = [(-1) ** i * e[i] for i in range(d + 1)]
        return [complex(r) for r in mp.polyroots(poly, maxsteps=200, extraprec=120)]


def _hecke_matrix_roots(k: int, p: int) -> list:
    """The eigenvalues of T_p / p^{(k-1)/2} on S_k(1), from the exact integer
    matrix of T_p on the Miller basis.  Each entry is divided by the integer
    p^{(k-2)/2} in Python's correctly rounded int / int division, so no
    entry overflows a float on its way to the matrix."""
    from .oracles import hecke_matrix_level_one

    scale = p ** ((k - 2) // 2)
    sqrt_p = math.sqrt(p)
    m = np.array([[x / scale / sqrt_p for x in row] for row in hecke_matrix_level_one(k, p)])
    return [complex(r) for r in np.linalg.eigvals(m)]


def empirical_mu_star(k: int, N: int, p: int):
    """The eigenvalue measure of T_p / p^{(k-1)/2} on the newform space;
    check_discrepancy_cell says which (k, N, p) it accepts (at N = 1 its
    4 p^dim <= 1e7 rule is kept only so that the accepted cells stay the
    same), and recovery_route which route computes the eigenvalues."""
    d = check_discrepancy_cell(k, N, p)
    if recovery_route(N, d)["route"] == "hecke_matrix":
        roots = _hecke_matrix_roots(k, p)
    else:
        roots = _newton_roots(k, N, p, d)
    atoms = []
    for r in roots:
        if abs(r.imag) > 1e-4 or abs(r.real) > 2.0 + 1e-4:
            raise ArithmeticError(
                f"empirical_mu_star({k},{N},{p}): root {r} outside the eigenvalue range"
            )
        atoms.append(min(2.0, max(-2.0, r.real)))
    atoms.sort()
    return DiscreteMeasure(tuple(atoms))


def nu_moment(k: int, N: int, p: int, m: int) -> float:
    """m-th Chebyshev moment of the coefficient-weighted eigenvalue measure,
    which the Petersson formula evaluates as a geometric sum."""
    from .petersson import delta_new

    if math.gcd(p, N) != 1:
        raise ValueError("nu_moment: gcd(p, N) = 1 required")
    return delta_new(k, N, 1, p ** m).value


def discrepancy(d: DiscreteMeasure, c: ContinuousMeasure) -> float:
    """sup over closed intervals [a,b] of |d([a,b]) - c([a,b])|.

    Candidate cuts are the atoms approached from both sides plus the interval
    ends; over cuts, the interval mass difference telescopes to a difference
    of W - F values, so the sup is max(G) - min(G) with G = W - F."""
    n = len(d.atoms)
    cum = np.concatenate([[0.0], np.cumsum(np.full(n, 1.0 / n))])
    f = c.cdf(np.array(d.atoms))
    # cuts at -2 and +2, just left of each atom and just right of it
    g = np.concatenate([[0.0, cum[-1] - 1.0], cum[:-1] - f, cum[1:] - f])
    return float(g.max() - g.min())


def _u_total_variation(m: int) -> float:
    """sum |U_m(x_{i+1}/2) - U_m(x_i/2)| over 20,001 equispaced x_i in [-2, 2].

    A lower estimate of TV(U_m(x/2)): the part of each extremum between two
    grid points is missed."""
    u = _chebyshev_u(m, np.linspace(-2.0, 2.0, 20001))
    return float(np.sum(np.abs(np.diff(u))))


def discrepancy_lower_bound_moments(moment_diffs: Sequence[float], m: int) -> float:
    """|Delta_m| / (2 max|U_m| + TV(U_m)): any two probability measures on
    [-2,2] whose m-th Chebyshev moments differ by Delta_m have interval
    discrepancy at least this (integration by parts).

    TV(U_m) is bounded above, so the bound is certified: the grid sum of
    _u_total_variation plus, for each of the at most m - 1 interior extrema
    of f(x) = U_m(x/2), the M2 h^2/4 its grid cell can miss (f' = 0 there,
    so f is within M2 d^2/2 of its extremum at distance d <= h/2 from the
    nearer cell end; a cell holding k extrema misses at most k times that).
    h = 4/20000 is that grid's step and M2 = max|f''| = U_m''(1)/4 =
    (m-1)m(m+1)(m+2)(m+3)/60: every derivative of U_m peaks at 1 on [-1, 1]."""
    if m < 1 or m > len(moment_diffs):
        raise ValueError("discrepancy_lower_bound_moments: need 1 <= m <= len(diffs)")
    max_u = m + 1.0  # |U_m(x/2)| <= U_m(1) = m+1 on [-2,2]
    m2 = (m - 1) * m * (m + 1) * (m + 2) * (m + 3) / 60.0
    missed = (m - 1) * m2 * (4.0 / 20000) ** 2 / 4.0
    return abs(moment_diffs[m - 1]) / (2.0 * max_u + _u_total_variation(m) + missed)


def trace_discrepancy_bound(n: int, k: int, N: int):
    """|Tr - dim * delta(n,square)/sqrt(n)| / (2 m^2 dim), a lower bound for
    the discrepancy between the empirical measure and the Plancherel measure
    at the prime p, for n = p^m.  None when the space is empty."""
    from .eichler_selberg import trace_new

    fn = factor(n)
    if len(fn.factors) != 1:
        raise ValueError("trace_discrepancy_bound: n must be a prime power")
    if math.gcd(n, N) != 1:
        raise ValueError("trace_discrepancy_bound: gcd(n, N) = 1 required")
    m = fn.factors[0][1]
    dim = _newform_dim(k, N)
    if dim == 0:
        return None
    main = dim / math.sqrt(n) if math.isqrt(n) ** 2 == n else 0.0
    return abs(trace_new(n, k, N).total - main) / (2.0 * m * m * dim)
