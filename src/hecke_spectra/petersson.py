"""Geometric side of the Petersson formula: full-level and newform averages,
their transition-window main terms, and the appendix orbital integral.

The c-sum is evaluated with special_functions.jv, a numpy J-Bessel for integer
order (checked in tests against 40-digit mpmath and against scipy), and the
paired Kloosterman fast path.  Each summed task's c-range is certified before
any term is summed, so in each block of c one kloosterman_sum_fast call takes
every distinct (m, n), each over every c its tasks need, and one jv call per
distinct order covers every argument of its tasks; each task then adds its
terms in increasing c.
Truncations are certified: each c-tail where J_nu decays exponentially, below
the turning point x = nu, by the smaller of the series head and Kapteyn's
inequality (DLMF 10.14.8), and delta_new's l-tail past _L_MAX by Deligne's bound
(Deligne, La conjecture de Weil I, 1974; as in Iwaniec-Luo-Sarnak 2000, sec. 2):
for gcd(a, M) = 1, |Delta_{k,M}(a, n)| <= tau(a) sqrt(Delta_{k,M}(1,1)
Delta_{k,M}(n,n)), the two diagonals being full-level cells of the same walk.
The certificates leave out the rounding of the float accumulation and the
error of jv, which is measured (below 1e-13 against mpmath) but not bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import lgamma
from typing import List, Sequence, Tuple

import numpy as np

from .arithmetic import divisors, euler_phi, factor, mobius, sigma
from .kloosterman import kloosterman_sum_fast
from .special_functions import _log_series_head, bessel_j, jv

_L_MAX = 10 ** 4  # delta_new sums l <= _L_MAX; the rest is its certified l-tail


@dataclass(frozen=True)
class PeterssonResult:
    """value is the truncated sum; truncation_bound bounds |value - exact| by the
    certified c-tails of every summed task plus, for delta_new at N > 1, the
    Deligne bound on the l > _L_MAX tail.  It does not cover the rounding of
    the float accumulation or the error of special_functions.jv."""

    k: int
    N: int
    m: int
    n: int
    value: float
    truncation_bound: float
    c_max: int
    l_max: int

    def __post_init__(self):
        if self.truncation_bound < 0:
            raise ValueError("truncation_bound must be non-negative")


def _check_kn(k: int, N: int, m: int, n: int) -> None:
    if k % 2 or k < 4:
        raise ValueError("petersson: even k >= 4 required (weight 2 is out of scope)")
    if N < 1 or m < 1 or n < 1:
        raise ValueError("petersson: N, m, n must be positive")


def check_petersson_cell(kind: str, k: int, N: int, m: int, n: int) -> None:
    """Raise ValueError unless delta_full (kind 'full') or delta_new (kind
    'new') accepts the cell (k, N, m, n)."""
    _check_kn(k, N, m, n)
    if kind == "new":
        if mobius(N) == 0:
            raise ValueError("delta_new: N must be squarefree")
        if math.gcd(m * n, N) != 1:
            raise ValueError("delta_new: gcd(mn, N) = 1 required")


def _kapteyn(nu: int, z: float) -> Tuple[float, float]:
    """(nu phi(z), nu s) for Kapteyn's inequality (DLMF 10.14.8; Watson, Treatise,
    sec. 8.7), integer nu and 0 < z <= 1: |J_nu(nu z)| <= exp(nu phi(z)), with
    phi(z) = log z + s - log(1 + s), s = sqrt(1 - z^2).  As dphi/dlog z = s only
    grows as z falls, |J_nu(nu z / r)| <= exp(nu phi(z)) r^(-nu s) for r >= 1."""
    s = math.sqrt(max(1.0 - z * z, 0.0))
    return nu * (math.log(z) + s - math.log1p(s)), nu * s


def _exp_tail(nu: int, x0: float, C: float, step: int, g0: int) -> float:
    """Bound on 2 pi sum_{c >= C, step | c} |S(m,n;c)/c| |J_nu(x0/c)|, valid when
    x0/C < nu (sigma_0(c) <= 2 sqrt c, so |S(m,n;c)/c| <= 2 sqrt(g0)): the smaller
    of two bounds on the J-sum.  The series head |J_nu(x)| <= (x/2)^nu/nu! falls
    like c^-nu.  Kapteyn's inequality (DLMF 10.14.8, integer nu, 0 < z <= 1) at
    z = x0/(nu C) falls like c^-(nu s), s = sqrt(1 - z^2), since dphi/dlog z = s
    only grows as z falls (_kapteyn); it is used when nu s > 1, so that its sum
    over c converges."""
    if C <= x0 / nu:
        return math.inf
    lt = _log_series_head(nu, x0 / C)
    series = math.inf if lt > 700.0 else 2.0 * math.pi * 2.0 * math.sqrt(g0) * math.exp(lt) * (
        1.0 + C / (step * max(nu - 1, 1))
    )
    log_bound, decay = _kapteyn(nu, x0 / (nu * C))
    if decay <= 1.0:
        return series
    return min(series, 2.0 * math.pi * 2.0 * math.sqrt(g0) * math.exp(log_bound) * (
        1.0 + C / (step * (decay - 1.0))
    ))


def _c_stop(nu: int, x0: float, step: int, g0: int, target: float):
    """First multiple of step where the certified tail of _exp_tail <= target
    (or a work cap is hit; the honest tail is returned either way).  The search
    starts at x = 0.8 nu.  If that start already meets the target (as Kapteyn's
    bound, DLMF 10.14.8, does at large nu), bisection over multiples of step
    between it and the turning point x0/nu, where the tail is infinite, finds
    the smallest C that meets it (both bounds fall as C grows); otherwise C
    grows by an eighth at a time."""
    C = step * max(1, math.ceil(x0 / (0.8 * nu) / step) + 1)
    cap = C + 2000 * step
    tail = _exp_tail(nu, x0, C, step, g0)
    if tail <= target:
        lo = step * math.floor(x0 / nu / step)
        while C - lo > step:
            mid = step * ((lo + C) // (2 * step))
            mid_tail = _exp_tail(nu, x0, mid, step, g0)
            if mid_tail <= target:
                C, tail = mid, mid_tail
            else:
                lo = mid
        return C, tail
    while tail > target and C < cap:
        C += step * max(1, C // (8 * step))
        tail = _exp_tail(nu, x0, C, step, g0)
    return C, tail


@dataclass
class _Task:
    nu: int          # Bessel order k - 1
    step: int        # c runs over multiples of this
    m_eff: int
    n: int
    weight: float
    x0: float = 0.0
    c_stop: int = 0
    tail: float = 0.0
    acc: float = 0.0


_C_BLOCK = 1 << 16  # c per block of the walk, and J values per jv call, which bound its arrays


def _chunks(items):
    """Consecutive runs of (task, c) pairs holding at most _C_BLOCK values of c each."""
    chunk, size = [], 0
    for item in items:
        if chunk and size + len(item[1]) > _C_BLOCK:
            yield chunk
            chunk, size = [], 0
        chunk.append(item)
        size += len(item[1])
    if chunk:
        yield chunk


def _run_c_sums(tasks: List[_Task]) -> None:
    """Accumulate sum_{c = 0 mod step, c <= c_stop} S(m_eff,n;c)/c J_nu(x0/c)
    into each task.  Every task's c_stop is fixed before any sum, so in each
    block of _C_BLOCK values of c, one kloosterman_sum_fast call takes every
    distinct (m_eff, n), each over every c its tasks need, and each distinct
    order nu one jv call over every argument of its tasks (a call per chunk of
    at most _C_BLOCK values; jv is elementwise, so the batching moves no
    value).  A task adds its terms in increasing c by sequential float
    addition (cumsum, never the pairwise np.sum), as a walk over c one at a
    time would."""
    for t in tasks:
        t.x0 = 4.0 * math.pi * math.sqrt(t.m_eff * t.n)
        g0 = math.gcd(t.m_eff, t.n)
        target = 1e-12 / max(abs(t.weight), 1e-6)
        t.c_stop, t.tail = _c_stop(t.nu, t.x0, t.step, g0, target)
    for lo in range(0, max(t.c_stop for t in tasks), _C_BLOCK):
        # each live task's c in (lo, lo + _C_BLOCK]
        live = [(t, np.arange(t.step * (lo // t.step + 1), min(t.c_stop, lo + _C_BLOCK) + 1, t.step))
                for t in tasks if t.c_stop > lo]
        pairs, orders = {}, {}
        for i, (t, _) in enumerate(live):
            pairs.setdefault((t.m_eff, t.n), []).append(i)
            orders.setdefault(t.nu, []).append(i)
        coef = [None] * len(live)  # S(m_eff, n; c)/c of each live task
        # the sorted distinct c of each pair (np.unique would import numpy.ma
        # on its first call), all pairs end to end in one Kloosterman call
        cs = [np.sort(np.concatenate([live[i][1] for i in group])) for group in pairs.values()]
        cs = [c[np.concatenate(([True], c[1:] != c[:-1]))] for c in cs]
        sizes = [c.size for c in cs]
        m, n = (np.repeat(np.array(v, dtype=np.int64), sizes) for v in zip(*pairs))
        sums = np.split(kloosterman_sum_fast(m, n, np.concatenate(cs)), np.cumsum(sizes)[:-1])
        for group, c_pair, s in zip(pairs.values(), cs, sums):
            for i in group:
                c = live[i][1]
                coef[i] = s[np.searchsorted(c_pair, c)] / c
        for nu, group in orders.items():
            for chunk in _chunks([(i, live[i][1]) for i in group]):
                j = jv(nu, np.concatenate([live[i][0].x0 / c for i, c in chunk]))
                at = 0
                for i, c in chunk:
                    t = live[i][0]
                    terms = coef[i] * j[at:at + len(c)]
                    t.acc = float(np.cumsum(np.concatenate(([t.acc], terms)))[-1])
                    at += len(c)


def _full_cell(k: int, N: int, m: int, n: int):
    """(diagonal, tasks, l_tail, l_max) of delta_full(k, N, m, n): one task, no l-tail."""
    _check_kn(k, N, m, n)
    return 1.0 if m == n else 0.0, [_Task(k - 1, N, m, n, 1.0)], [], 1


def _prime_lattice(primes, bound: int) -> list:
    """All products of powers of the given primes that are <= bound, sorted."""
    out = [1]
    for p in primes:
        ext = []
        for l in out:
            q = l * p
            while q <= bound:
                ext.append(q)
                q *= p
        out += ext
    return sorted(out)


def _l_tail_mass(primes, lattice) -> Fraction:
    """sum of tau(l^2)/l over the l | L^infinity past the lattice (L the product
    of the primes): the full sum, prod p(p+1)/(p-1)^2, less the lattice's terms."""
    full = Fraction(1)
    for p in primes:
        full *= Fraction(p * (p + 1), (p - 1) ** 2)
    return full - sum(Fraction(sigma(0, l * l), l) for l in lattice)


def _new_cell(k: int, N: int, m: int, n: int):
    """(diagonal, tasks, l_tail, l_max) of delta_new(k, N, m, n): one task per
    l <= _L_MAX, and the l-tail past them as (M, w) pairs, each bounding its
    part of the tail by w sqrt(Delta_{k,M}(1,1) Delta_{k,M}(n,n))."""
    check_petersson_cell("new", k, N, m, n)
    tasks = []
    l_tail = []
    l_max = 1
    for L in divisors(N):
        M = N // L
        wL = mobius(L) / L
        primes = factor(L).primes
        lattice = _prime_lattice(primes, _L_MAX)
        tasks += [_Task(k - 1, M, m * l * l, n, wL / l) for l in lattice]
        l_max = max(l_max, lattice[-1])
        if primes:
            # gcd(m l^2, M) = 1, so Deligne and Cauchy-Schwarz give
            # |Delta_{k,M}(m l^2, n)| <= tau(m) tau(l^2) sqrt(Delta_{k,M}(1,1) Delta_{k,M}(n,n))
            l_tail.append((M, abs(wL) * sigma(0, m) * float(_l_tail_mass(primes, lattice))))
    # the diagonal survives only at l = 1 (l > 1 shares a factor with N,
    # which is coprime to n), giving delta(m,n) phi(N)/N
    return euler_phi(N) / N if m == n else 0.0, tasks, l_tail, l_max


def petersson_cells(kind: str, cells: Sequence[Tuple[int, int, int, int]]) -> List[PeterssonResult]:
    """delta_full (kind 'full') or delta_new (kind 'new') of every (k, N, m, n)
    cell, from one c-walk shared by all the cells' tasks."""
    if kind not in ("full", "new"):
        raise ValueError(f"petersson_cells: kind must be 'full' or 'new', got {kind!r}")
    build = _full_cell if kind == "full" else _new_cell
    plans = [build(*cell) for cell in cells]
    # the l-tails need the full-level cells (k, M, 1, 1) and (k, M, n, n),
    # which join the walk once per (k, M, n)
    diagonals = {(k, M, a, a): _full_cell(k, M, a, a)
                 for (k, _, _, n), (_, _, l_tail, _) in zip(cells, plans)
                 for M, _ in l_tail for a in (1, n)}
    _run_c_sums([t for _, tasks, _, _ in [*plans, *diagonals.values()] for t in tasks])

    def result(cell, plan) -> PeterssonResult:
        (k, N, m, n), (diagonal, tasks, l_tail, l_max) = cell, plan
        sign = -1.0 if (k // 2) % 2 else 1.0
        value = diagonal + 2.0 * math.pi * sign * math.fsum(t.weight * t.acc for t in tasks)
        bound = math.fsum(abs(t.weight) * t.tail for t in tasks) + math.fsum(
            w * math.sqrt(size[k, M, 1, 1] * size[k, M, n, n]) for M, w in l_tail)
        return PeterssonResult(k, N, m, n, value, bound, max(t.c_stop for t in tasks), l_max)

    size = {}  # |Delta_{k,M}(a,a)| + its c-tail, an upper bound on Delta_{k,M}(a,a)
    for cell, plan in diagonals.items():
        r = result(cell, plan)
        size[cell] = abs(r.value) + r.truncation_bound
    return [result(cell, plan) for cell, plan in zip(cells, plans)]


def delta_full(k: int, N: int, m: int, n: int) -> PeterssonResult:
    """delta(m,n) + 2 pi (-1)^{k/2} sum_{c = 0 mod N} S(m,n;c)/c J_{k-1}(4 pi sqrt(mn)/c)."""
    return petersson_cells("full", [(k, N, m, n)])[0]


def delta_new(k: int, N: int, m: int, n: int) -> PeterssonResult:
    """Newform-projected Petersson average: sum over LM = N of (mu(L)/L)
    sum_{l | L^inf} (1/l) delta_full(k, M, m l^2, n), with the l-sum cut at
    10^4 and its tail certified by Deligne's bound."""
    return petersson_cells("new", [(k, N, m, n)])[0]


def _check_window(k: int, N: int, m: int, n: int) -> None:
    if mobius(N) == 0:
        raise ValueError("transition window: N must be squarefree")
    if math.gcd(m * n, N) != 1:
        raise ValueError("transition window: gcd(mn, N) = 1 required")
    if abs(4.0 * math.pi * math.sqrt(m * n) - k) >= 2.0 * k ** (1.0 / 3.0):
        raise ValueError(
            f"(m,n)=({m},{n}) lies outside the transition window of k={k}"
        )


def maint_main_terms(k: int, N: int, m: int, n: int) -> float:
    """phi(N)/N delta(m,n) + 2 pi (-1)^{k/2} (mu(N)/N) prod(1 - p^-2) J_{k-1}(4 pi sqrt(mn))."""
    _check_kn(k, N, m, n)
    _check_window(k, N, m, n)
    sign = -1.0 if (k // 2) % 2 else 1.0
    pref = mobius(N) / N
    for p in factor(N).primes:
        pref *= 1.0 - p ** -2
    bess = bessel_j(k - 1, 4.0 * math.pi * math.sqrt(m * n))
    diag = euler_phi(N) / N if m == n else 0.0
    return diag + 2.0 * math.pi * sign * pref * bess.value


def window_n(k: int, N: int) -> int:
    """n of the transition-window cell (k, N, 1, n) of acceptance criterion 3:
    the first n prime to N from the first Bessel maximum x ~ k + 0.81 k^(1/3)
    on with |4 pi sqrt(n) - k| < 2 k^(1/3).  ValueError if the window holds
    no such n."""
    width = 2.0 * k ** (1.0 / 3.0)
    n = max(1, round(((k + 0.8086 * k ** (1.0 / 3.0)) / (4.0 * math.pi)) ** 2))
    while True:
        x = 4.0 * math.pi * math.sqrt(n) - k
        if x >= width:
            raise ValueError(f"transition window of k={k} holds no n prime to N={N}")
        if x > -width and math.gcd(n, N) == 1:
            return n
        n += 1


def maint_cells(cells: Sequence[Tuple[int, int, int, int]]) -> List[Tuple[PeterssonResult, float]]:
    """(delta_new, maint_main_terms) of every transition-window (k, N, m, n)
    cell, from one c-walk shared by all the cells."""
    mains = [maint_main_terms(*cell) for cell in cells]  # checks every cell before the walk
    return list(zip(petersson_cells("new", cells), mains))


def maint_residual(k: int, N: int, m: int, n: int) -> float:
    """delta_new minus its transition-window main terms."""
    r, main = maint_cells([(k, N, m, n)])[0]
    return r.value - main


def check_orbital_cell(k: int, t: float) -> None:
    """Raise ValueError unless orbital_integral_A accepts (t, k)."""
    if not (8 <= k <= 60) or k % 2:
        raise ValueError("orbital_integral_A: even k in [8, 60] required")
    if not (0.3 <= t <= 3.0):
        raise ValueError("orbital_integral_A: t in [0.3, 3] required")


def _inner_integral(t: float, k: int, x: np.ndarray) -> np.ndarray:
    """int_R (a y + b)^{-k} e^{iky/2} dy at each x, a = t(x + i), b = t + 1/t - itx, by
    residues: the one pole y0 = -b/a has Im y0 = (t + 1/t + t x^2)/(t(x^2 + 1)) > 0, where
    e^{iky/2} decays, so it is 2 pi i a^{-k} (ik/2)^{k-1}/(k-1)! e^{iky0/2} (in log space)."""
    a = t * (x + 1j)
    y0 = -(t + 1.0 / t - 1j * t * x) / a
    log_r = math.log(2.0 * math.pi) + (k - 1) * math.log(k / 2.0) - lgamma(k)
    return 1j ** k * np.exp(log_r - k * np.log(a) + 0.5j * k * y0)


# the 8-point Gauss-Legendre rule on [-1, 1], as numpy.polynomial.legendre.leggauss(8)
# gives it (a test holds the two equal); written out, so no quadrature imports numpy.polynomial
_GL8_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                       -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                       0.7966664774136267, 0.9602898564975362])
_GL8_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                         0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                         0.22238103445337443, 0.10122853629037706])


def _orbital_quadrature(t: float, k: int, half_width: float, per_wave: int) -> complex:
    """The matrix-coefficient double integral over [-X, X] x R, phase e^{ik(y-x)/2}:
    the y-integral exact by residues, the x-integral by a composite 8-point
    Gauss-Legendre rule, per_wave panels per wavelength 4 pi/k of e^{-ikx/2}."""
    panels = max(8, math.ceil(2.0 * half_width / (4.0 * math.pi / k) * per_wave))
    h = 2.0 * half_width / panels
    x = (-half_width + h * (np.arange(panels)[:, None] + 0.5 + 0.5 * _GL8_NODES[None, :])).ravel()
    w = np.tile(h / 2.0 * _GL8_WEIGHTS, panels) * np.exp(-0.5j * k * x)
    return (k - 1) / (4.0 * math.pi) * (2.0j) ** k * complex(np.sum(w * _inner_integral(t, k, x)))


def orbital_integral_A(t: float, k: int):
    """The horocycle matrix-coefficient integral A(t,k): (quadrature, closed form).

    closed form: e^{-k} i^k 4 pi k^{k-1} / (2t (k-2)!) J_{k-1}(k/t), in log space.
    The quadrature's inner integral is exact by residues, so its agreement under
    refinement certifies the outer integral; the comparison with the closed
    form checks the closed form's Bessel and Gamma assembly."""
    check_orbital_cell(k, t)
    bess = bessel_j(k - 1, k / t)
    log_pref = -k + math.log(4.0 * math.pi) + (k - 1) * math.log(k) - math.log(2.0 * t) - lgamma(k - 1)
    closed = complex((-1.0) ** (k // 2) * math.exp(log_pref) * bess.value, 0.0)
    # half-width from the integrand's (2/(t|x|))^k decay, well below |closed|
    target = max(abs(closed) * 1e-9, 1e-280)
    X = min((2.0 / t) * ((k - 1) / (4.0 * math.pi * target)) ** (1.0 / (k - 2.0)) + 8.0, 400.0)
    quad = _orbital_quadrature(t, k, X, 8)
    refined = _orbital_quadrature(t, k, X * 1.15, 12)
    scale = max(abs(closed), abs(refined), 1e-280)
    if abs(quad - refined) > 1e-7 * scale:
        raise ArithmeticError(
            f"orbital_integral_A({t},{k}): quadrature not converged ({quad} vs {refined})")
    return refined, closed
