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


@lru_cache(maxsize=512)
def _units_and_inverses(c: int):
    """All units mod c and their inverses, as int64 arrays."""
    if c == 1:
        return np.array([0], dtype=np.int64), np.array([0], dtype=np.int64)
    x = _units_below(c, c)
    return x, _unit_inverses(x, c)


def kloosterman_sum(m: int, n: int, c: int) -> KloostermanValue:
    """S(m,n;c) = sum over units x mod c of e((m x + n x*)/c)."""
    if c < 1:
        raise ValueError("kloosterman_sum: c must be positive")
    if c == 1:
        return KloostermanValue(m, n, 1, 1.0, 0.0)
    x, inv = _units_and_inverses(c)
    ang = (2.0 * math.pi / c) * (((m % c) * x + (n % c) * inv) % c)
    # fsum gives exactly rounded accumulation of the cosine/sine terms
    re = math.fsum(np.cos(ang).tolist())
    im = math.fsum(np.sin(ang).tolist())
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
    walk's tables small; callers widen them to int64 before any product.
    `kloosterman_sum_fast` asks only for the prime powers q || c: about 1.8k
    of them below 15k, which the cache holds at once."""
    x = _units_below(c, (c + 1) // 2)
    dtype = np.int16 if c <= 2 ** 15 else np.int32
    return x.astype(dtype), _unit_inverses(x, c).astype(dtype)


@lru_cache(maxsize=4096)
def _prime_power_sum(a: int, b: int, q: int) -> float:
    """S(a,b;q) for a prime power q and 0 <= a, b < q, by paired summation."""
    if q == 2:
        return 1.0 if (a + b) % 2 == 0 else -1.0
    x, inv = _half_units(q)
    ang = (2.0 * math.pi / q) * ((a * x.astype(np.int64) + b * inv.astype(np.int64)) % q)
    return 2.0 * float(np.sum(np.cos(ang)))


def kloosterman_sum_fast(m: int, n: int, c: int) -> float:
    """S(m,n;c) by twisted multiplicativity: the product over q || c of
    S(m r*, n r*; q), r = c/q and r* its inverse mod q; no per-value
    certification (the harness-facing kloosterman_sum is the certified
    evaluator)."""
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
