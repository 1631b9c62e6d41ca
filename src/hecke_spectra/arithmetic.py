"""Exact elementary number-theoretic primitives shared by the other modules.

Everything here is pure integer/rational arithmetic; no floats.  Inputs that
are conceptually "a factored integer" accept either a plain int or a
FactoredInt so callers can pass whatever they have on hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Tuple, Union


@dataclass(frozen=True)
class FactoredInt:
    """A positive integer together with its prime factorization."""

    value: int
    factors: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        last_p = 0
        for p, e in self.factors:
            if p <= last_p or e < 1:
                raise ValueError("factors must have strictly increasing primes, exponents >= 1")
            last_p = p
            prod *= p ** e
        if prod != self.value:
            raise ValueError(f"factorization product {prod} != value {self.value}")

    @property
    def primes(self) -> Tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def divisors(self) -> list[int]:
        divs = [1]
        for p, e in self.factors:
            divs = [d * p ** j for d in divs for j in range(e + 1)]
        divs.sort()
        return divs


IntLike = Union[int, FactoredInt]


@lru_cache(maxsize=65536)
def factor(n: int) -> FactoredInt:
    """Trial-division factorization.  Desk-scale inputs stay small."""
    if not (1 <= n <= 2 ** 63):
        raise ValueError(f"factor: need 1 <= n <= 2^63, got {n}")
    m = n
    fac = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            fac.append((p, e))
    # wheel over 6k +/- 1
    p = 5
    while p * p <= m:
        for q in (p, p + 2):
            if m % q == 0:
                e = 0
                while m % q == 0:
                    m //= q
                    e += 1
                fac.append((q, e))
        p += 6
    if m > 1:
        fac.append((m, 1))
    fac.sort()
    return FactoredInt(n, tuple(fac))


def _as_factored(n: IntLike) -> FactoredInt:
    if isinstance(n, FactoredInt):
        return n
    return factor(int(n))


def mobius(n: IntLike) -> int:
    fn = _as_factored(n)
    if any(e >= 2 for _, e in fn.factors):
        return 0
    return -1 if len(fn.factors) % 2 else 1


def euler_phi(n: IntLike) -> int:
    fn = _as_factored(n)
    out = 1
    for p, e in fn.factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def carmichael_lambda(n: IntLike) -> int:
    """Exponent of the unit group mod n: the least L >= 1 with x^L = 1 for
    every unit x.  It divides euler_phi(n)."""
    fn = _as_factored(n)
    out = 1
    for p, e in fn.factors:
        lam = 2 ** (e - 2) if p == 2 and e >= 3 else (p - 1) * p ** (e - 1)
        out = out * lam // math.gcd(out, lam)
    return out


def sigma(t: int, n: IntLike) -> int:
    """Sum of t-th powers of divisors; sigma(0, n) is the divisor count."""
    if t < 0:
        raise ValueError("sigma: t must be non-negative")
    fn = _as_factored(n)
    out = 1
    for p, e in fn.factors:
        if t == 0:
            out *= e + 1
        else:
            out *= (p ** (t * (e + 1)) - 1) // (p ** t - 1)
    return out


def nu_index(N: IntLike) -> int:
    """Index of the Hecke congruence subgroup: N * prod_{p|N} (1 + 1/p)."""
    fN = _as_factored(N)
    out = fN.value
    for p, _ in fN.factors:
        out = out // p * (p + 1)
    return out


def mod_inverse(x: int, c: int) -> int:
    if c < 1:
        raise ValueError("mod_inverse: modulus must be positive")
    if math.gcd(x, c) != 1:
        raise ValueError(f"mod_inverse: {x} not invertible mod {c}")
    return pow(x, -1, c)


def _kronecker(a: int, n: int) -> int:
    # standard Kronecker symbol (a|n) for arbitrary integer n
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # pull out factors of 2 from n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol loop
    result = sign
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker_chi(D: int, m: int) -> int:
    """Kronecker character chi_D(m) = (D|m) for a discriminant D."""
    if D % 4 not in (0, 1):
        raise ValueError(f"kronecker_chi: D = {D} is not 0 or 1 mod 4")
    if m < 1:
        raise ValueError("kronecker_chi: m must be positive")
    return _kronecker(D, m)


def count_congruence_roots(t: int, n: int, K: int) -> int:
    """Number of x mod K with x^2 - t x + n = 0 (mod K), by exhaustive scan."""
    if K < 1:
        raise ValueError("count_congruence_roots: K must be positive")
    return sum(1 for x in range(K) if (x * x - t * x + n) % K == 0)


def divisors(n: IntLike) -> list[int]:
    return _as_factored(n).divisors()
