"""Eichler-Selberg traces of Hecke operators on S_k(N) and on the newform
subspace, with the normalization Tr T_n / n^{(k-1)/2} throughout.

The elliptic term is evaluated in the numerically stable angular form
sin((k-1)theta)/(sqrt(n) sin theta) rather than through powers of the root
rho = sqrt(n) e^{i theta}; the rational terms (identity, hyperbolic, k=2
correction) are carried as exact Fraction coefficients of n^{-1/2}.

The elliptic-term coefficients D_N(t, n) of the variance and arith-sum
experiments come from one integer row per (n, N), `d_coefficients`, read
from the class-number table; so does the no-weight window average
`averaged_trace_window`, whose elliptic terms for every k are one product
with that row.  The per-(t, f) `Fraction` sum `_hw_sum`, which `trace_new`
and `trace_full`'s elliptic term still run on, is its reference route in the
tests.

The newform trace is computed once, from its own closed-form terms.  The
Mobius/divisor-count combination of full-level traces is an independent
second route, `newform_cross_route`; the unit tests compare the two on a grid
of squarefree levels and the `verify` experiment on a small one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple, Union

import numpy as np

from .arithmetic import divisors, euler_phi, mobius, nu_index, sigma, count_congruence_roots
from .class_numbers import MAX_ABS_DISC, MAX_R3_N, ensure_table, h_w
from .special_functions import phi_eval, psi_eval

Rational = Union[Fraction, float]


def _is_square(n: int) -> bool:
    r = math.isqrt(n)
    return r * r == n


def _over_sqrt(coeff: Fraction, n: int) -> Rational:
    """coeff / sqrt(n), exact when n is a perfect square."""
    if coeff == 0:
        return Fraction(0)
    if _is_square(n):
        return coeff / math.isqrt(n)
    return float(coeff) / math.sqrt(n)


@dataclass(frozen=True)
class TraceBreakdown:
    n: int
    k: int
    N: int
    tag: str  # "full" or "new"
    term1: Rational
    term2: float
    term3: Rational
    term4: Rational
    total: float
    # exact coefficients of n^{-1/2} behind the rational terms
    coeff1: Fraction
    coeff3: Fraction
    coeff4: Fraction

    def __post_init__(self):
        if self.tag not in ("full", "new"):
            raise ValueError("tag must be 'full' or 'new'")
        s = float(self.term1) + self.term2 + float(self.term3) + float(self.term4)
        if abs(self.total - s) > 1e-12 * (1.0 + abs(self.total)):
            raise ValueError(f"TraceBreakdown total {self.total} != term sum {s}")
        if self.tag == "new" and self.N > 1 and self.coeff3 != 0:
            raise ValueError("newform hyperbolic term must vanish for N > 1")
        if self.k != 2 and self.coeff4 != 0:
            raise ValueError("term4 only occurs at weight 2")


@dataclass(frozen=True)
class WindowSpec:
    K: float
    delta: float
    T: float
    truncation_radius: float

    def __post_init__(self):
        if not (0.2 < self.delta < 1.0 / 3.0):
            raise ValueError("WindowSpec: delta must lie in (1/5, 1/3)")
        if self.K <= 0 or self.T <= 0 or self.truncation_radius <= 0:
            raise ValueError("WindowSpec: K, T, truncation_radius must be positive")


def _mu_weight(t: int, f: int, n: int, N: int) -> Fraction:
    """Local solution-count weight: nu(N)/nu(N/N_f) times the number of
    x mod N whose lifts solve x^2 - tx + n = 0 mod N*N_f.

    The roots mod N*N_f fall into full fibers over x mod N (counting mod
    N*N_f and not dividing by N_f makes the weight-2 trace fail to vanish
    on empty spaces; see the dimension tests)."""
    if N == 1:
        return Fraction(1)
    Nf = math.gcd(N, f)
    roots = count_congruence_roots(t, n, N * Nf)
    if roots % Nf:
        raise ArithmeticError(
            f"local root count {roots} mod {N * Nf} not divisible by {Nf}"
        )
    return Fraction(nu_index(N), nu_index(N // Nf)) * (roots // Nf)


def mu_tilde(t: int, f: int, n: int, N: int) -> int:
    """Divisor-count/Mobius combination of the local weights across levels d | N."""
    acc = Fraction(0)
    for d in divisors(N):
        acc += sigma(0, N // d) * mobius(N // d) * _mu_weight(t, f, n, d)
    if acc.denominator != 1:
        raise ArithmeticError(f"mu_tilde({t},{f},{n},{N}) non-integer: {acc}")
    return int(acc)


@lru_cache(maxsize=1 << 19)
def _hw_sum(t: int, n: int, N: int, tilde: bool) -> Fraction:
    """sum over f with f^2 | 4n-t^2, (t^2-4n)/f^2 = 0,1 mod 4 of
    h_w((t^2-4n)/f^2) times the (plain or tilde) local weight."""
    disc = t * t - 4 * n
    ensure_table(4 * n)
    total = Fraction(0)
    for f in range(1, math.isqrt(-disc) + 1):
        if (-disc) % (f * f):
            continue
        D = disc // (f * f)
        if D % 4 not in (0, 1):
            continue
        w = h_w(D)
        total += w * (mu_tilde(t, f, n, N) if tilde else _mu_weight(t, f, n, N))
    return total


@lru_cache(maxsize=64)
def d_coefficients(n: int, N: int) -> np.ndarray:
    """D_N(t, n) for t = -tmax..tmax, tmax = isqrt(4n - 1), as one read-only
    float64 row (entry t + tmax), computed in integers.

    One numpy pass per f finds every t with f^2 | 4n - t^2 and
    m = (4n - t^2)/f^2 = 0 or 3 mod 4, and adds 6 h_w(-m) = (6/w) h(-m), read
    from the shared class-number table, times mu_tilde(t, f, n, N).  For
    every d | N the local weight depends on t and f only through t mod N^2
    and gcd(N, f), so mu_tilde is called once per such pair.  The int64 sum
    S6 becomes a float only at the end, as S6 / 6.0 / (2.0 sqrt(4n - t^2));
    every step is exact or correctly rounded, so each value equals
    float(_hw_sum(t, n, N, True)) / (2.0 sqrt(4n - t^2)) bit for bit.

    The last 64 rows are kept.  At 4n <= MAX_ABS_DISC a row has at most
    6,325 entries (49 KiB), so the cache holds at most about 3.2 MB."""
    tmax = math.isqrt(4 * n - 1)
    ts = np.arange(-tmax, tmax + 1)
    disc = 4 * n - ts * ts
    h = ensure_table(4 * n)
    weights: dict = {}  # gcd(N, f) -> {t mod N^2: mu_tilde}
    s6 = np.zeros(len(ts), dtype=np.int64)
    for f in range(1, math.isqrt(4 * n) + 1):
        ff = f * f
        lo = tmax - math.isqrt(4 * n - ff)  # the t with 4n - t^2 >= f^2
        hit = np.nonzero(disc[lo : len(ts) - lo] % ff == 0)[0] + lo
        m = disc[hit] // ff
        keep = m % 4 % 3 == 0  # m = 0 or 3 mod 4
        hit, m = hit[keep], m[keep]
        if not len(hit):
            continue
        six_hw = h[m] * np.where(m == 3, 2, np.where(m == 4, 3, 6))
        by_t = weights.setdefault(math.gcd(N, f), {})
        mu = []
        for t in ts[hit].tolist():
            r = t % (N * N)
            if r not in by_t:
                by_t[r] = mu_tilde(t, f, n, N)
            mu.append(by_t[r])
        s6[hit] += six_hw * np.array(mu)
    row = s6 / 6.0 / (2.0 * np.sqrt(disc))
    row.flags.writeable = False
    return row


def _angles(n: int) -> np.ndarray:
    """theta_t = arg(t + i sqrt(4n - t^2)) for t = -tmax..tmax, the angles
    that go with the row d_coefficients(n, N)."""
    tmax = math.isqrt(4 * n - 1)
    ts = np.arange(-tmax, tmax + 1, dtype=float)
    return np.arctan2(np.sqrt(4.0 * n - ts ** 2), ts)


def d_coefficient(t: int, n: int, N: int) -> float:
    """Magnitude of the elliptic-term coefficient D_N(t,n); even in t.
    (The signed convention that flips under t -> -t also carries a factor i;
    both are bookkeeping and cancel in every observable quantity here.)
    A read of the row `d_coefficients(n, N)`."""
    if t * t >= 4 * n:
        raise ValueError("d_coefficient: need t^2 < 4n")
    return float(d_coefficients(n, N)[t + math.isqrt(4 * n - 1)])


def _elliptic_term(n: int, k: int, N: int, tilde: bool) -> float:
    """-sum_{t^2<4n} sin((k-1)theta_t) (4n-t^2)^{-1/2} * class-number sum."""
    tmax = math.isqrt(4 * n - 1)
    terms = []
    for t in range(-tmax, tmax + 1):
        s = _hw_sum(t, n, N, tilde)
        if s == 0:
            continue
        th = math.atan2(math.sqrt(4 * n - t * t), t)
        terms.append(-math.sin((k - 1) * th) * float(s) / math.sqrt(4 * n - t * t))
    return math.fsum(terms)


def _hyperbolic_coeff(n: int, k: int, N: int) -> Fraction:
    """Exact coefficient of n^{-1/2} in the divisor-pair term: the integer
    numerators over the one denominator 2 n^{k/2-1} (the weight 1/2 of
    d = sqrt(n) as a factor 1 against 2), reduced once."""
    num = 0
    for d in divisors(n):
        if d * d > n:
            continue
        csum = sum(
            euler_phi(g)
            for c in divisors(N)
            if (n // d - d) % (g := math.gcd(c, N // c)) == 0
        )
        num += (1 if d * d == n else 2) * csum * d ** (k - 1)
    return Fraction(-num, 2 * n ** (k // 2 - 1))


def _check_class_range(what: str, n: int) -> None:
    """The class numbers behind n reach |D| = 4n; refuse n before the class
    table grows past what class_number supports."""
    if 4 * n > MAX_ABS_DISC:
        raise ValueError(f"{what}: 4n <= {MAX_ABS_DISC} required (class-number range)")


def check_trace_cell(kind: str, n: int, k: int, N: int) -> None:
    """Raise ValueError unless trace_full (kind 'full') or trace_new (kind
    'new') accepts (n, k, N)."""
    if n < 1 or N < 1:
        raise ValueError("trace: n >= 1 and N >= 1 required")
    _check_class_range("trace", n)
    if k < 2 or k % 2:
        raise ValueError("trace: even k >= 2 required")
    if math.gcd(n, N) != 1:
        raise ValueError(f"trace: gcd(n, N) = {math.gcd(n, N)} > 1 not supported")
    if kind == "new" and mobius(N) == 0:
        raise ValueError("trace_new: N must be squarefree")


def check_arith_sum_cell(n: int, N: int) -> None:
    """Raise ValueError unless the arith-sum cell (n, N) runs: d_coefficient
    over every t^2 < 4n, and count_A at level N, whose r3 lookups reach 4n."""
    if n < 1 or N < 1:
        raise ValueError("arith-sum: n >= 1 and N >= 1 required")
    _check_class_range("arith-sum", n)
    if 4 * n > MAX_R3_N:
        raise ValueError(f"arith-sum: 4n <= {MAX_R3_N} required (r3 table range)")


def _assemble(n, k, N, tag, c1: Fraction, t2: float, c3: Fraction, c4: Fraction) -> TraceBreakdown:
    term1 = _over_sqrt(c1, n)
    term3 = _over_sqrt(c3, n)
    term4 = _over_sqrt(c4, n)
    total = float(term1) + t2 + float(term3) + float(term4)
    return TraceBreakdown(n, k, N, tag, term1, t2, term3, term4, total, c1, c3, c4)


def trace_full(n: int, k: int, N: int) -> TraceBreakdown:
    """Normalized trace of T_n on S_k(N), gcd(n,N)=1."""
    check_trace_cell("full", n, k, N)
    c1 = Fraction(k - 1, 12) * nu_index(N) if _is_square(n) else Fraction(0)
    t2 = _elliptic_term(n, k, N, tilde=False)
    c3 = _hyperbolic_coeff(n, k, N)
    c4 = Fraction(sigma(1, n)) if k == 2 else Fraction(0)
    return _assemble(n, k, N, "full", c1, t2, c3, c4)


def _assemble_new(n: int, k: int, N: int, t2: float) -> TraceBreakdown:
    """trace_new(n, k, N) around a given elliptic term t2: the exact
    identity, hyperbolic and weight-2 terms of the newform space."""
    c1 = Fraction(k - 1, 12) * euler_phi(N) if _is_square(n) else Fraction(0)
    c3 = _hyperbolic_coeff(n, k, 1) if N == 1 else Fraction(0)
    c4 = Fraction(mobius(N) * sigma(1, n)) if k == 2 else Fraction(0)
    return _assemble(n, k, N, "new", c1, t2, c3, c4)


def trace_new(n: int, k: int, N: int) -> TraceBreakdown:
    """Normalized trace of T_n on the newform subspace of S_k(N), N squarefree,
    from the closed-form newform terms.  `newform_cross_route` evaluates the
    same terms independently through full-level traces; the tests and the
    `verify` experiment compare the two."""
    check_trace_cell("new", n, k, N)
    return _assemble_new(n, k, N, _elliptic_term(n, k, N, tilde=True))


def newform_cross_route(n: int, k: int, N: int) -> Tuple[Fraction, float, Fraction, Fraction]:
    """(coeff1, term2, coeff3, coeff4) of trace_new(n, k, N) by the second route
    sum_{d|N} sigma_0(N/d) mu(N/d) trace_full(n, k, d): the rational
    coefficients exactly, the elliptic term by math.fsum.  An oracle, not a
    hot path; at N = 1 it repeats trace_new's computation (every local
    weight is 1)."""
    check_trace_cell("new", n, k, N)
    c1 = c3 = c4 = Fraction(0)
    t2 = []
    for d in divisors(N):
        w = sigma(0, N // d) * mobius(N // d)
        full = trace_full(n, k, d)
        c1 += w * full.coeff1
        t2.append(w * full.term2)
        c3 += w * full.coeff3
        c4 += w * full.coeff4
    return c1, math.fsum(t2), c3, c4


def check_noweight_cell(n: int, N: int, delta: float) -> None:
    """Raise ValueError unless the no-weight cell (n, N) runs: averaged_trace_window
    and noweight_main_term at K = int(4 pi sqrt n), window exponent delta.  The
    window's weights are all even and >= 2, so trace_new's rule at k = 2 covers them."""
    check_trace_cell("new", n, 2, N)
    WindowSpec(float(int(4.0 * math.pi * math.sqrt(n))), delta, 1.0, 1.0)


def averaged_trace_window(n: int, N: int, spec: WindowSpec) -> float:
    """(1/K^delta) sum over even k of psi((k-K)/K^delta) (-1)^{k/2} trace_new.

    The row d_coefficients(n, N) is read once, and the elliptic terms of
    every weight in the window come from one (k x t) product,
    t2_k = -2 sum_t sin((k-1) theta_t) D_N(t, n), the sum trace_new's
    _elliptic_term takes per (t, f).  The rational terms stay exact and per
    k (_assemble_new).  The result moves from the per-k trace_new sum by
    rounding only; the tests hold the two to 1e-12 relative."""
    check_trace_cell("new", n, 2, N)
    K, delta = spec.K, spec.delta
    if abs(K - 4.0 * math.pi * math.sqrt(n)) > n ** (1.0 / 6.0):
        raise ValueError("averaged_trace_window: K must be within n^(1/6) of 4 pi sqrt(n)")
    h = K ** delta
    lo = 2 * math.ceil((K - h) / 2)
    hi = 2 * math.floor((K + h) / 2)
    window = [(k, w) for k in range(lo, hi + 2, 2) if (w := psi_eval((k - K) / h)) != 0.0]
    j = np.array([k - 1.0 for k, _ in window])
    t2 = -2.0 * (np.sin(np.outer(j, _angles(n))) @ d_coefficients(n, N))
    terms = []
    for (k, w), t2_k in zip(window, t2.tolist()):
        sign = -1.0 if (k // 2) % 2 else 1.0
        terms.append(w * sign * _assemble_new(n, k, N, t2_k).total)
    return math.fsum(terms) / h


def noweight_main_term(n: int, N: int, K: int) -> float:
    """(mu(N) K / 2 pi) (sigma_1(n)/n) J_K(4 pi sqrt n)."""
    from .special_functions import bessel_j

    if mobius(N) == 0:
        raise ValueError("noweight_main_term: N must be squarefree")
    if abs(K - 4.0 * math.pi * math.sqrt(n)) > n ** (1.0 / 6.0):
        raise ValueError("noweight_main_term: K must be within n^(1/6) of 4 pi sqrt(n)")
    bess = bessel_j(int(K), 4.0 * math.pi * math.sqrt(n))
    return mobius(N) * K / (2.0 * math.pi) * sigma(1, n) / n * bess.value


def _phi_weights(j: np.ndarray, T: float) -> np.ndarray:
    # np.sinc(x) = sin(pi x)/(pi x), so this is phi_eval vectorized; four
    # in-place squarings are much cheaper than the float power ** 16
    w = np.sinc(j / (800.0 * T))
    for _ in range(4):
        np.square(w, out=w)
    return w


def _phi_tail(j0: float, T: float) -> float:
    """Bound on sum over odd j >= j0 of phi(j/T) from the (800T/(pi j))^16 envelope."""
    c = 800.0 * T / math.pi
    if j0 <= c:
        return math.inf
    return (c / j0) ** 16 + c ** 16 * j0 ** -15 / 30.0


def _odd_cutoff(T: float, coeff: float, abs_target: float) -> int:
    """Smallest odd j0 with coeff * phi-tail(j0) <= abs_target."""
    c = 800.0 * T / math.pi
    j0 = 2 * math.ceil(c) + 1
    while coeff * _phi_tail(j0, T) > abs_target:
        j0 = 2 * math.ceil(j0 * 1.3 / 2) + 1
    return j0


def check_variance_cell(n: int, N: int, T: float) -> None:
    """Raise ValueError unless variance_window and diagonal_side accept (n, N, T)."""
    if n < 1:
        raise ValueError("variance sums: n >= 1 required")
    _check_class_range("variance sums", n)
    if N <= 1 or mobius(N) == 0:
        raise ValueError("variance sums: squarefree N > 1 required")
    if math.gcd(n, N) != 1:
        raise ValueError("variance sums: gcd(n, N) = 1 required")
    if not math.isfinite(T) or T < math.sqrt(n):
        raise ValueError("variance sums: finite T >= sqrt(n) required")


def _variance_inputs(n: int, N: int, T: float):
    check_variance_cell(n, N, T)
    tmax = math.isqrt(4 * n - 1)
    return np.arange(-tmax, tmax + 1), d_coefficients(n, N), _angles(n)


# largest array variance_window builds, in elements (8 MiB of float64)
_VARIANCE_BLOCK = 1 << 20


def variance_window(n: int, N: int, T: float) -> float:
    """sum_{k>0 even} phi((k-1)/T) |trace_new(n,k,N) - identity term|^2.

    The identity term is (k-1)/12 phi(N)/sqrt(n) when n is a square; what is
    left is the elliptic term plus the weight-2 correction, which this
    evaluates vectorized over k (the closed-form pieces are exactly the
    per-k trace_new totals; tests spot-check that).

    The odd j = k-1 <= j_max are split as j = a_h + 2l with a_h = 1 + 2Bh and
    0 <= l < B, B about sqrt(j_max/2).  By angle addition the elliptic sums
    for all j form one H x B table,
        sum_t y_t sin(j theta_t) = (y sin(a theta)) @ cos(2l theta)^T
                                 + (y cos(a theta)) @ sin(2l theta)^T,
    so about 2(H + B)|t| sines and two matrix products replace the
    (j_max/2)|t| sines of the direct grid.  B is capped and the rows h are
    taken in chunks so that no array exceeds _VARIANCE_BLOCK elements.  The
    result moves from the direct per-k grid's only by rounding: at most
    1.4e-14 relative on configs/variance.cfg (observed), with the split the
    closer of the two to an 80-bit long-double evaluation."""
    _, y, theta = _variance_inputs(n, N, T)
    b4 = mobius(N) * sigma(1, n) / math.sqrt(n)
    m_bound = 2.0 * float(np.sum(np.abs(y))) + abs(b4)
    j_max = _odd_cutoff(T, m_bound ** 2, 1e-8)
    count = (j_max + 1) // 2  # odd j = 1, 3, ..., j_max
    width = min(math.isqrt(count - 1) + 1, _VARIANCE_BLOCK // len(y))
    fine = np.outer(2.0 * np.arange(width), theta)
    cos_fine, sin_fine = np.cos(fine).T, np.sin(fine).T
    n_rows = -(-count // width)
    rows = _VARIANCE_BLOCK // max(len(y), width)
    total = 0.0
    for h_lo in range(0, n_rows, rows):
        a = 1.0 + 2.0 * width * np.arange(h_lo, min(h_lo + rows, n_rows))
        coarse = np.outer(a, theta)
        s = -2.0 * ((np.sin(coarse) * y) @ cos_fine + (np.cos(coarse) * y) @ sin_fine)
        if h_lo == 0:
            s[0, 0] += b4  # j = 1 is k = 2
        j = a[:, None] + 2.0 * np.arange(width)
        w = np.where(j <= j_max, _phi_weights(j, T), 0.0)
        total += float(np.sum(w * s ** 2))
    return total


def diagonal_side(n: int, N: int, T: float) -> float:
    """2 sum_{k in 2Z} phi((k-1)/T) sum_{t^2<4n} |D_N(t,n)|^2 - phi(1/T) sigma_1(n)^2/n."""
    _, y, _ = _variance_inputs(n, N, T)
    s2 = float(np.sum(y ** 2))
    j_max = _odd_cutoff(T, max(1.0, 4.0 * s2), 1e-8)
    js = np.arange(1, j_max + 1, 2)
    # the two-sided even-k sum is twice the sum over positive odd j = k-1
    phi_sum = 2.0 * float(np.sum(_phi_weights(js.astype(float), T)))
    return 2.0 * phi_sum * s2 - phi_eval(1.0 / T) * sigma(1, n) ** 2 / n


def poisson_character_sum(T: float, theta: float) -> Tuple[float, float]:
    """sum_{k even} phi((k-1)/T) e^{i(k-1)theta}: (real value, imaginary residual).

    Vanishes identically for theta in [1/(2 sqrt n), pi - 1/(2 sqrt n)] with
    T >= sqrt(n): the transform of phi is supported in [-1/100, 1/100], so
    after Poisson summation no frequency survives."""
    if T < 1.0:
        raise ValueError("poisson_character_sum: T >= 1 required")
    if not (0.0 < theta < math.pi):
        raise ValueError("poisson_character_sum: theta in (0, pi) required")
    j_max = _odd_cutoff(T, 1.0, 1e-10)
    js = np.arange(1, j_max + 1, 2).astype(float)
    w = _phi_weights(js, T)
    # both signs of j = k-1 summed explicitly; the sine parts should cancel
    re = 2.0 * float(np.sum(w * np.cos(js * theta)))
    im = float(np.sum(w * np.sin(js * theta)) + np.sum(w * np.sin(-js * theta)))
    return re, abs(im)
