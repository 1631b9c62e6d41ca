"""Ground-truth generators: exact q-expansions of the level-1 Miller bases
and the one-dimensional eigenform spaces, the integer matrix of T_p on a
Miller basis, plus dimension and genus formulas.  Everything here is
independent of the trace-formula machinery and serves as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Tuple

from .arithmetic import _as_factored, divisors, factor, kronecker_chi, nu_index


@dataclass(frozen=True)
class QExpansion:
    weight: int
    coefficients: Tuple[int, ...]  # a(1), a(2), ..., a(n_max)
    normalized: bool

    def a(self, n: int) -> int:
        if not (1 <= n <= len(self.coefficients)):
            raise IndexError(f"coefficient a({n}) not computed")
        return self.coefficients[n - 1]

    @property
    def n_max(self) -> int:
        return len(self.coefficients)


def _pack(coeffs, width: int) -> int:
    buf = bytearray()
    for c in coeffs:
        buf += int(c).to_bytes(width, "little")
    return int.from_bytes(buf, "little")


def _unpack(val: int, width: int, count: int):
    nbytes = max((val.bit_length() + 7) // 8, width * count)
    buf = val.to_bytes(nbytes, "little")
    return [
        int.from_bytes(buf[i * width : (i + 1) * width], "little") for i in range(count)
    ]


def poly_mul(a, b, n_max: int):
    """Exact truncated product of integer polynomials via Kronecker substitution.

    Signs handled by splitting into positive/negative parts, so the packed
    big-integer multiplications see non-negative digits only."""
    a = a[: n_max + 1]
    b = b[: n_max + 1]
    max_a = max(1, max(abs(x) for x in a))
    max_b = max(1, max(abs(x) for x in b))
    bound = max_a * max_b * min(len(a), len(b))
    width = (bound.bit_length() + 8) // 8 + 1
    out = [0] * (n_max + 1)
    ap = _pack([x if x > 0 else 0 for x in a], width)
    am = _pack([-x if x < 0 else 0 for x in a], width)
    bp = _pack([x if x > 0 else 0 for x in b], width)
    bm = _pack([-x if x < 0 else 0 for x in b], width)
    pos = _unpack(ap * bp + am * bm, width, n_max + 1)
    neg = _unpack(ap * bm + am * bp, width, n_max + 1)
    for i in range(min(n_max + 1, len(a) + len(b) - 1)):
        out[i] = pos[i] - neg[i]
    return out


def _poly_pow(base, e: int, n_max: int):
    result = [1]
    while e:
        if e & 1:
            result = poly_mul(result, base, n_max)
        base = poly_mul(base, base, n_max)
        e >>= 1
    return result


def _eta_quotientless(n_max: int):
    """prod_{m>=1} (1 - q^m) to degree n_max, by the pentagonal number theorem."""
    coeffs = [0] * (n_max + 1)
    coeffs[0] = 1
    m = 1
    while m * (3 * m - 1) // 2 <= n_max:
        sign = -1 if m % 2 else 1
        g1 = m * (3 * m - 1) // 2
        g2 = m * (3 * m + 1) // 2
        coeffs[g1] = sign
        if g2 <= n_max:
            coeffs[g2] = sign
        m += 1
    return coeffs


def _grown(build):
    """Keep one expansion build(*key, n_max) per key, to the largest n_max asked
    for so far, and answer a smaller n_max with its prefix: the coefficients
    are exact, so a prefix equals a fresh build at the smaller n_max."""
    longest = {}

    @wraps(build)
    def cached(*args):
        *key, n_max = args
        key = tuple(key)
        if key not in longest or longest[key][0] < n_max:
            longest[key] = (n_max, build(*key, n_max))
        built, coeffs = longest[key]
        return coeffs[: len(coeffs) - (built - n_max)]

    return cached


@_grown
def _tau(n_max: int) -> Tuple[int, ...]:
    eta24 = _poly_pow(_eta_quotientless(n_max - 1), 24, n_max - 1)
    return tuple(eta24[:n_max])


def delta_tau(n_max: int) -> QExpansion:
    """tau(1..n_max) from q prod (1-q^m)^24, exact integers."""
    if not (1 <= n_max <= 10 ** 5):
        raise ValueError("delta_tau: 1 <= n_max <= 1e5")
    return QExpansion(12, _tau(n_max), True)


def _sigma_series(t: int, n_max: int):
    out = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        dt = d ** t
        for m in range(d, n_max + 1, d):
            out[m] += dt
    return out


@_grown
def _eisenstein(k: int, n_max: int) -> Tuple[int, ...]:
    """E4 or E6 to q^n_max: n_max + 1 coefficients from q^0."""
    if k == 4:
        s = _sigma_series(3, n_max)
        return (1, *(240 * s[m] for m in range(1, n_max + 1)))
    if k == 6:
        s = _sigma_series(5, n_max)
        return (1, *(-504 * s[m] for m in range(1, n_max + 1)))
    raise ValueError("only E4 and E6 supported")


@lru_cache(maxsize=16)
def miller_basis(k: int, n_max: int) -> Tuple[QExpansion, ...]:
    """The Miller basis g_1, ..., g_d of S_k(SL_2(Z)), d = dim_level_one(k), as
    exact integer q-expansions to q^n_max: g_j = q^j + O(q^{d+1}).

    Each g_j starts as Delta^j E4^a E6^b with 4a + 6b = k - 12j; b is the same
    for every j, and a grows by 3 as j drops by 1, so the rows take one E4^3
    and one Delta step each.  Clearing the q^{j+1..d} coefficients of g_j
    with the rows below it gives the reduced form (W. Stein, Modular Forms:
    A Computational Approach, AMS GSM 79, ch. 2)."""
    d = dim_level_one(k)
    if n_max < d:
        raise ValueError(f"miller_basis: n_max >= dim S_{k}(1) = {d} required")
    if d == 0:
        return ()
    rest = k - 12 * d  # 0, 4, 6, 8, 10 or 14: never 2
    b = rest % 4 // 2
    series = _poly_pow(_eisenstein(4, n_max), (rest - 6 * b) // 4, n_max)
    if b:
        series = poly_mul(series, _eisenstein(6, n_max), n_max)
    e4_cubed = _poly_pow(_eisenstein(4, n_max), 3, n_max)
    delta = [0] + list(delta_tau(n_max).coefficients)
    delta_pows = [delta]
    for _ in range(d - 1):
        delta_pows.append(poly_mul(delta_pows[-1], delta, n_max))
    rows = {}
    for j in range(d, 0, -1):
        if j < d:
            series = poly_mul(series, e4_cubed, n_max)
        g = poly_mul(delta_pows[j - 1], series, n_max)
        for i in range(j + 1, d + 1):
            c = g[i]
            if c:
                g = [x - c * y for x, y in zip(g, rows[i])]
        rows[j] = g
    return tuple(QExpansion(k, tuple(rows[j][1:]), d == 1) for j in range(1, d + 1))


def level_one_eigenform(k: int, n_max: int) -> QExpansion:
    """The normalized eigenform E4^a E6^b Delta for the weights with dim 1:
    the one-row Miller basis."""
    if dim_level_one(k) != 1:
        raise ValueError(f"level_one_eigenform: weight {k} space is not 1-dimensional")
    return miller_basis(k, n_max)[0]


def hecke_matrix_level_one(k: int, p: int) -> Tuple[Tuple[int, ...], ...]:
    """The integer matrix of T_p (p prime) on the Miller basis of S_k(1):
    M[i][j] = a_{g_j}(p i) + p^{k-1} a_{g_j}(i/p) for i, j = 1..d (row i - 1,
    column j - 1 of the result), so column j holds the coordinates of T_p g_j.
    It needs coefficients to q^{p d} only."""
    if p < 2 or factor(p).factors != ((p, 1),):
        raise ValueError(f"hecke_matrix_level_one: p must be prime, got {p}")
    d = dim_level_one(k)
    basis = miller_basis(k, p * d)
    pk = p ** (k - 1)
    return tuple(
        tuple(g.a(p * i) + (pk * g.a(i // p) if i % p == 0 else 0) for g in basis)
        for i in range(1, d + 1)
    )


def dim_level_one(k: int) -> int:
    """dim S_k(SL_2(Z)) for even k >= 4."""
    if k % 2 or k < 4:
        raise ValueError("dim_level_one: even k >= 4 required")
    return k // 12 - (1 if k % 12 == 2 else 0)


def genus_X0(N: int) -> int:
    """Genus of X_0(N) for squarefree N via index, elliptic points and cusps."""
    fN = _as_factored(N)
    if N > 100 or any(e > 1 for _, e in fN.factors):
        raise ValueError("genus_X0: squarefree N <= 100 required")
    index = nu_index(fN)
    nu2 = 1
    nu3 = 1
    for p, _ in fN.factors:
        nu2 *= 1 + kronecker_chi(-4, p)
        nu3 *= 1 + kronecker_chi(-3, p)
    # squarefree N: gcd(d, N/d) = 1, so each divisor gives one cusp
    cusps = len(divisors(N))
    twelve_g = 12 + index - 3 * nu2 - 4 * nu3 - 6 * cusps
    if twelve_g % 12:
        raise ArithmeticError(f"genus_X0({N}): non-integer genus")
    return twelve_g // 12
