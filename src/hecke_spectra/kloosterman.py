"""Kloosterman sums by direct summation, plus Ramanujan sums and the Weil bound.

Direct O(c) summation is the single source of truth; no twisted
multiplicativity (sign conventions there are a classic source of silent
errors).  The imaginary part of S(m,n;c) cancels exactly by x <-> -x, so it
is kept as a corruption detector rather than discarded.

Both evaluators read a per-c unit table: the units mod c, sieved out of
range(c) by the prime factors of c, and their inverses from one routine,
`_unit_inverses` (blocked batch inversion with a block size chosen from the
table length).  The inverses are exact integers, so the route to them never
moves a sum.  The tables are lru-cached per c; the Petersson c-walk asks
for each distinct sum S(m,n;c) once per c and shares the value among every
task that needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arithmetic import carmichael_lambda, divisors, factor, mobius


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


@lru_cache(maxsize=64)
def _half_units(c: int):
    """Units x in (0, c/2) mod c, ascending, with their inverses in [1, c);
    used with the x <-> c-x pairing, which makes the sum 2*sum(cos) and
    exactly real.  Built once per c by `_units_below` and `_unit_inverses`;
    the cache lets the cells of a sweep that revisit c share the table."""
    x = _units_below(c, (c + 1) // 2)
    return x, _unit_inverses(x, c)


def kloosterman_sum_fast(m: int, n: int, c: int) -> float:
    """S(m,n;c) by paired summation; no per-value certification (the
    harness-facing kloosterman_sum is the certified evaluator)."""
    if c == 1:
        return 1.0
    if c == 2:
        return 1.0 if (m + n) % 2 == 0 else -1.0
    x, inv = _half_units(c)
    ang = (2.0 * math.pi / c) * (((m % c) * x + (n % c) * inv) % c)
    return 2.0 * float(np.sum(np.cos(ang)))


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
    sigma0 = len(divisors(c))
    g = math.gcd(math.gcd(abs(m), abs(n)), c)
    return sigma0 * math.sqrt(g) * math.sqrt(c)
