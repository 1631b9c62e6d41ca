"""Kloosterman sums, plus Ramanujan sums and the Weil bound.

The certified `kloosterman_sum` is a direct O(c) sum over a per-c table of
the units and their inverses: it is the single source of truth and the
oracle the tests hold the fast path to.  Its imaginary part cancels exactly
by x <-> -x, so it is kept as a corruption detector rather than discarded.

The fast path, which the Petersson c-walk calls, uses twisted
multiplicativity (Iwaniec-Kowalski, Analytic Number Theory, AMS Colloq.
Publ. 53, 2004): for c = q r with gcd(q, r) = 1, r* the inverse of r mod q
and q* the inverse of q mod r,

    S(m, n; q r) = S(m r*, n r*; q) * S(m q*, n q*; r),

so S(m, n; c) is the product over the prime powers q || c of
S(m r*, n r*; q), r = c/q.  Sign and inverse conventions here are a classic
source of silent errors, hence the direct-sum oracle.  Unit tables are
needed only for prime powers; the units are sieved out of range(q) and
their inverses come from one routine, `_unit_inverses` (blocked batch
inversion).  The inverses are exact integers, so the route to them never
moves a sum.

`kloosterman_sum_fast` also takes an int array of c, which is how the walk
calls it: once per distinct (m, n) over every c its tasks need.  The prime
powers of all those c and the r* come from one cached table, each distinct
(m r*, n r*, q) is summed once, a batch per q, and the product over q is
taken in increasing p, so each entry equals the scalar form bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arithmetic import carmichael_lambda, divisors, factor, mobius, sigma


@dataclass(frozen=True)
class KloostermanValue:
    m: int
    n: int
    c: int
    value: float
    imaginary_residual: float

    def __post_init__(self):
        if self.imaginary_residual > 1e-10 * max(1.0, abs(self.value)):
            raise ValueError(
                f"S({self.m},{self.n};{self.c}): imaginary residual "
                f"{self.imaginary_residual:.3e} exceeds reality tolerance"
            )
        if abs(self.value) > weil_bound(self.m, self.n, self.c) + 1e-8:
            raise ValueError(
                f"S({self.m},{self.n};{self.c}) = {self.value} violates the Weil bound"
            )


@lru_cache(maxsize=4096)
def _unit_table(c: int):
    """All units mod c, ascending, and their inverses in [1, c), stored as
    int16 for c <= 2^15 and int32 above, like `_half_units`, so the cache
    holds every c <= 3000 in about 11 MB.  The inverses are computed for the
    whole range, not mirrored from the half table, so that a wrong inverse
    breaks the x <-> -x cancellation of the imaginary part."""
    if c == 1:
        return np.array([0], dtype=np.int16), np.array([0], dtype=np.int16)
    x = _units_below(c, c)
    dtype = np.int16 if c <= 2 ** 15 else np.int32
    return x.astype(dtype), _unit_inverses(x, c).astype(dtype)


def _units_and_inverses(c: int):
    """All units mod c, ascending, and their inverses, as int64 arrays."""
    x, inv = _unit_table(c)
    return x.astype(np.int64), inv.astype(np.int64)


def kloosterman_sum(m: int, n: int, c: int) -> KloostermanValue:
    """S(m,n;c) = sum over units x mod c of e((m x + n x*)/c)."""
    if c < 1:
        raise ValueError("kloosterman_sum: c must be positive")
    if c == 1:
        return KloostermanValue(m, n, 1, 1.0, 0.0)
    x, inv = _units_and_inverses(c)
    ang = (2.0 * math.pi / c) * (((m % c) * x + (n % c) * inv) % c)
    # fsum rounds the real part exactly; the imaginary part is only a
    # residual held to 1e-10, far above np.sum's rounding
    re = math.fsum(np.cos(ang).tolist())
    im = float(np.sum(np.sin(ang)))
    return KloostermanValue(m, n, c, re, abs(im))


def _units_below(c: int, stop: int) -> np.ndarray:
    """The units mod c in [1, stop), ascending, as int64: every multiple of a
    prime factor of c struck from range(stop)."""
    keep = np.ones(stop, dtype=bool)
    keep[:1] = False
    for p in factor(c).primes:
        keep[p::p] = False
    return np.flatnonzero(keep).astype(np.int64)


def _unit_inverses(x: np.ndarray, c: int) -> np.ndarray:
    """Inverses mod c of an array of units, by blocked batch inversion.

    The units go into B rows; running products down the rows leave K = len/B
    column products, which one vectorized square-and-multiply ladder inverts
    (to the power lambda(c) - 1, lambda the exponent of the unit group), and
    a pass back up the rows peels off each inverse.  Each pass is B numpy
    calls on arrays of length K, so B grows with the table: measured over
    c < 40000, B ~ sqrt(len)/8 in [2, 16] is within noise of the best block
    at every length.  c <= ~3e9 keeps products in int64."""
    nx = len(x)
    B = min(16, max(2, round(math.sqrt(nx) / 8)))
    K = -(-nx // B)
    u = np.ones(B * K, dtype=np.int64)
    u[:nx] = x
    u = u.reshape(B, K)
    pref = np.empty_like(u)
    pref[0] = u[0]
    for i in range(1, B):
        pref[i] = pref[i - 1] * u[i] % c
    e = carmichael_lambda(c) - 1
    w = np.ones(K, dtype=np.int64)
    base = pref[B - 1].copy()
    while e:
        if e & 1:
            w = w * base % c
        base = base * base % c
        e >>= 1
    inv = np.empty_like(u)
    for i in range(B - 1, 0, -1):
        inv[i] = w * pref[i - 1] % c
        w = w * u[i] % c
    inv[0] = w
    return inv.reshape(-1)[:nx]


@lru_cache(maxsize=2048)
def _half_units(c: int):
    """Units x in (0, c/2) mod c, ascending, with their inverses in [1, c);
    used with the x <-> c-x pairing, which makes the sum 2*sum(cos) and
    exactly real.  Built by `_units_below` and `_unit_inverses` and stored
    as int16 for c <= 2^15 and int32 above (c <= 2^31), which keeps a long
    walk's tables small; callers widen them before any product.
    `kloosterman_sum_fast` caches only the prime powers q <= 2^14, all 1,961
    of which the cache holds at once, and builds larger ones afresh: a walk
    to c = 50803 otherwise kept 291 MB of them, each used about once."""
    x = _units_below(c, (c + 1) // 2)
    dtype = np.int16 if c <= 2 ** 15 else np.int32
    return x.astype(dtype), _unit_inverses(x, c).astype(dtype)


def _prime_power_sums(a, b, q: int):
    """S(a,b;q) for a prime power q and 0 <= a, b < q, by paired summation.
    a and b are ints (a float64 scalar is returned) or equal-length int
    arrays (one sum per entry, each a row sum along the last axis, which
    equals the 1-D np.sum of that row bit for bit)."""
    if q == 2:
        return np.where((a + b) % 2 == 0, 1.0, -1.0)
    x, inv = _half_units(q) if q <= 2 ** 14 else _half_units.__wrapped__(q)
    # a x + b x* < 2 q^2 fits int32 for q <= 2^15; the integers are exact either way
    dtype = np.int32 if q <= 2 ** 15 else np.int64
    a = np.asarray(a, dtype=dtype)[..., None]
    b = np.asarray(b, dtype=dtype)[..., None]
    ang = (2.0 * math.pi / q) * ((a * x.astype(dtype) + b * inv.astype(dtype)) % q)
    return 2.0 * np.sum(np.cos(ang), axis=-1)


@lru_cache(maxsize=4096)
def _prime_power_sum(a: int, b: int, q: int) -> float:
    """S(a,b;q) for a prime power q and 0 <= a, b < q, memoized for scalar c."""
    return float(_prime_power_sums(a, b, q))


def _smallest_prime_factors(size: int) -> np.ndarray:
    """spf[c] = the smallest prime dividing c, for 2 <= c < size; spf[0] = spf[1] = 1."""
    spf = np.arange(size, dtype=np.int64)
    spf[:2] = 1
    for p in range(2, math.isqrt(size - 1) + 1):
        if spf[p] == p:
            tail = spf[p * p::p]
            tail[tail == np.arange(p * p, size, p)] = p
    return spf


@lru_cache(maxsize=None)
def _twists(bits: int):
    """(q, rbar), int64 arrays of shape (J, 2^bits): column c holds the prime
    powers q || c in increasing p, one per row and 1 past the last, and beside
    each q the inverse rbar of c/q mod q (0 where q = 1).  Peeled off all c at
    once with a smallest-prime-factor sieve; rbar = (c/q)^(phi(q) - 1) mod q by
    one square-and-multiply ladder.  Cached per power of two up to
    _TWIST_MAX, so all the tables take at most twice the largest."""
    size = 1 << bits
    spf = _smallest_prime_factors(size)
    rem = np.arange(size, dtype=np.int64)
    live = np.arange(2, size)
    qs, rbars = [], []
    while live.size:
        r = rem[live]
        p = spf[r]
        q = p.copy()
        r //= p
        peel = np.flatnonzero(r % p == 0)
        while peel.size:
            q[peel] *= p[peel]
            r[peel] //= p[peel]
            peel = peel[r[peel] % p[peel] == 0]
        e = q - q // p - 1  # phi(q) - 1
        base = live // q % q
        rbar = np.ones_like(q)
        while e.any():
            rbar = np.where(e & 1, rbar * base % q, rbar)
            base = base * base % q
            e >>= 1
        qs.append(np.ones(size, dtype=np.int64))
        rbars.append(np.zeros(size, dtype=np.int64))
        qs[-1][live], rbars[-1][live] = q, rbar
        rem[live] = r
        live = live[r > 1]
    return (np.array(qs, dtype=np.int64).reshape(-1, size),
            np.array(rbars, dtype=np.int64).reshape(-1, size))


_TWIST_MAX = 1 << 16  # c past this take the scalar route, so no table tops ~6 MB


def _kloosterman_sums(m: int, n: int, c: np.ndarray) -> np.ndarray:
    """kloosterman_sum_fast at every entry of the int array c (m and n within
    int64).  Below _TWIST_MAX each distinct (a, b, q) over all of c is
    evaluated once, a batch per q, and each c's prime-power values are
    multiplied in increasing p, as the scalar form does (the 1.0 past a c's
    last prime power is an exact factor).  Larger c take one scalar call
    each, which needs no table."""
    c = np.asarray(c, dtype=np.int64)
    if c.size and c.min() < 1:
        raise ValueError("kloosterman_sum_fast: c must be positive")
    s = np.ones(c.shape)
    big = c >= _TWIST_MAX
    s[big] = [kloosterman_sum_fast(m, n, int(x)) for x in c[big]]
    c = c[~big]
    if not c.size:
        return s
    q_tab, rbar_tab = _twists(int(c.max()).bit_length())
    q, rbar = q_tab[:, c], rbar_tab[:, c]
    live = q > 1
    if not live.any():  # every c is 1: no prime power, so S = 1
        return s
    q, rbar = q[live], rbar[live]
    a = m % q * rbar % q
    b = n % q * rbar % q
    # each distinct (q, a, b) once: sorted, so each q's rows are one batch
    # (np.unique(axis=0) does the same but sorts much slower)
    order = np.lexsort((b, a, q))
    q, a, b = q[order], a[order], b[order]
    new = np.ones(q.size, dtype=bool)
    new[1:] = (q[1:] != q[:-1]) | (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    first = np.flatnonzero(new)
    q, a, b = q[first], a[first], b[first]
    sums = np.empty(first.size)
    cuts = [0, *(np.flatnonzero(q[1:] != q[:-1]) + 1).tolist(), q.size]
    for lo, hi in zip(cuts, cuts[1:]):
        sums[lo:hi] = _prime_power_sums(a[lo:hi], b[lo:hi], int(q[lo]))
    values = np.empty(order.size)
    values[order] = sums[np.cumsum(new) - 1]
    factors = np.ones(live.shape)
    factors[live] = values
    product = np.ones(c.shape)
    for row in factors:
        product *= row
    s[~big] = product
    return s


def kloosterman_sum_fast(m: int, n: int, c):
    """S(m,n;c) by twisted multiplicativity: the product over q || c of
    S(m r*, n r*; q), r = c/q and r* its inverse mod q, in increasing p; no
    per-value certification (the harness-facing kloosterman_sum is the
    certified evaluator).

    c is an int (a float is returned) or an int ndarray (an ndarray of its
    shape is, each entry equal bit for bit to the float at that c).  A scalar
    c reads its prime powers from `factor` and memoizes each prime-power sum;
    an array shares each distinct prime-power sum across all its c below
    _TWIST_MAX."""
    if isinstance(c, np.ndarray):
        return _kloosterman_sums(m, n, c)
    s = 1.0
    for p, e in factor(c).factors:
        q = p ** e
        rbar = pow(c // q, -1, q)
        s *= _prime_power_sum(m * rbar % q, n * rbar % q, q)
    return s


def ramanujan_sum(n: int, c: int) -> int:
    """S(0,n;c) = sum_{d | gcd(c,n)} mu(c/d) d, exactly."""
    if c < 1:
        raise ValueError("ramanujan_sum: c must be positive")
    g = math.gcd(n, c)
    return sum(mobius(c // d) * d for d in divisors(g))


def weil_bound(m: int, n: int, c: int) -> float:
    """sigma_0(c) * sqrt(gcd(m,n,c)) * sqrt(c)."""
    if c < 1:
        raise ValueError("weil_bound: c must be positive")
    g = math.gcd(math.gcd(abs(m), abs(n)), c)
    return sigma(0, c) * math.sqrt(g) * math.sqrt(c)
