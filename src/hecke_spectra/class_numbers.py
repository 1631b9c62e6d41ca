"""Class numbers of imaginary quadratic orders, Hurwitz class numbers by two
independent routes, r3 lattice counts, and congruence-restricted four-square
counts.

Both tabulated quantities, h(D) and r3(n), come only from their shared
tables: `class_number` and `r3` read the table and, on a miss, grow it by
one power-of-two rule (`_table_size`) before reading it; there is no other
route.  The independent brute-force counts live in the tests.  The r3
table stops at MAX_R3_N, since its FFT build's memory grows with it.

The h table (`build_form_table`) is built in two vectorized integer steps
(Cohen, GTM 138, ch. 5, for reduced forms): first every reduced form,
primitive or not, is counted for all |D| <= limit at once, one numpy pass
per a; then a Moebius step over square divisors, one prime at a time,
removes the imprimitive ones, since a reduced form of D divided by
g = gcd(a, b, c) is a reduced primitive form of D/g^2.  Both steps are exact.

All arithmetic in this module is exact (ints and Fractions).  The one float
step is the r3 table: the cube of the square-count series is taken with
numpy's FFT, rounded to integers, and rejected unless every entry lies
within 1/4 of its rounding, so the table is still exact.  The class
number convention: h(D) counts reduced primitive positive-definite binary
quadratic forms (a,b,c) of discriminant D = b^2-4ac, i.e. |b| <= a <= c,
gcd(a,b,c) = 1, with b >= 0 whenever |b| = a or a = c.  The weighted count
h_w divides by the unit count w(-3)=3, w(-4)=2, w=1 otherwise; this is the
unique convention under which the f-sum and Cohen routes for the Hurwitz
class number agree.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arithmetic import divisors, factor, kronecker_chi, mobius, sigma


@dataclass(frozen=True)
class ClassNumberRecord:
    discriminant: int
    h: int
    w: int
    h_w: Fraction

    def __post_init__(self):
        expected_w = 3 if self.discriminant == -3 else (2 if self.discriminant == -4 else 1)
        if self.w != expected_w or self.h_w != Fraction(self.h, self.w):
            raise ValueError("inconsistent ClassNumberRecord")


MAX_ABS_DISC = 10 ** 7  # class numbers are supported for |D| <= MAX_ABS_DISC

_table_lock = threading.Lock()
_h_table: np.ndarray | None = None  # _h_table[m] = h(-m) for m <= len-1


def _check_disc(D: int) -> None:
    if D >= 0:
        raise ValueError(f"class_number: D = {D} must be negative")
    if D % 4 not in (0, 1):
        raise ValueError(f"class_number: D = {D} not 0 or 1 mod 4")
    if -D > MAX_ABS_DISC:
        raise ValueError("class_number: |D| <= 1e7 supported")


def build_form_table(limit: int) -> np.ndarray:
    """h(-m) for every m <= limit (0 where -m is not a discriminant), as
    int64, in two vectorized steps.

    Step 1 counts every reduced form (a, b, c) with 4ac - b^2 <= limit,
    primitive or not; call the count T(m).  View the table as rows of 4a
    entries.  For one a and one b in [0, a], the forms have m = 4ac - b^2,
    c = a, a+1, ...: a run down the column (-b^2) mod 4a.  It has weight 1
    at c = a (only b >= 0 is reduced there), and for c > a weight 2 when
    0 < b < a (both (a, b, c) and (a, -b, c)), else 1.  A cumulative sum
    down a difference array over the distinct columns lays every run of one
    a at once.

    Step 2 keeps the primitive forms.  Dividing a reduced form by
    g = gcd(a, b, c) gives a reduced primitive form of -m/g^2, and scaling
    back inverts this, so T(m) = sum over g^2 | m of h(m/g^2).  Removing one
    prime at a time, h[m] -= h[m/p^2] for p^2 | m, undoes the sum; within a
    prime every read sees the value from before that prime's step.

    Both steps are integer arithmetic, so the table is exact.  Step 1 runs
    in int32: c is fixed by (a, b, m), so T(m) <= (number of |b| <= a
    <= sqrt(m/3)) <= m, far below 2^31 at every size this module builds."""
    amax = math.isqrt(limit // 3)  # a reduced form has 3a^2 <= 4ac - b^2
    t = np.zeros(limit + 1 + 4 * amax, dtype=np.int32)  # room for whole rows
    for a in range(1, amax + 1):
        width = 4 * a
        rows = limit // width + 1
        b = np.arange(a + 1)
        column = -b * b % width
        cols, which = np.unique(column, return_inverse=True)
        first = a - (b * b + column) // width  # the row of c = a
        top = int(first.min())
        diff = np.zeros((rows - top, len(cols)), dtype=np.int32)
        at_a = 4 * a * a - b * b <= limit
        np.add.at(diff, (first[at_a] - top, which[at_a]), 1)
        doubled = (4 * a * (a + 1) - b * b <= limit) & (b > 0) & (b < a)
        np.add.at(diff, (first[doubled] - top + 1, which[doubled]), 1)
        # a run past m = limit ends in the room after t[limit]
        runs = np.cumsum(diff, axis=0, dtype=np.int32)
        t[top * width : rows * width].reshape(-1, width)[:, cols] += runs
    h = t[: limit + 1].astype(np.int64)
    is_prime = np.ones(math.isqrt(limit) + 1, dtype=bool)
    for p in range(2, len(is_prime)):
        if is_prime[p]:
            is_prime[p * p :: p] = False
            h[p * p :: p * p] -= h[1 : limit // (p * p) + 1]  # numpy buffers the overlap
    return h


def _table_size(limit: int) -> int:
    """The size a shared table is built at to cover limit: a power of two, at
    least 4096, so a sweep of growing limits rebuilds it only logarithmically
    often."""
    return max(4096, 1 << (limit - 1).bit_length())


def ensure_table(limit: int) -> np.ndarray:
    """Grow the shared class-number table to cover |D| <= limit."""
    global _h_table
    with _table_lock:
        if _h_table is None or len(_h_table) <= limit:
            _h_table = build_form_table(_table_size(limit))
        return _h_table


def class_number(D: int) -> ClassNumberRecord:
    _check_disc(D)
    table = _h_table
    if table is None or -D >= len(table):
        table = ensure_table(-D)
    h = int(table[-D])
    w = 3 if D == -3 else (2 if D == -4 else 1)
    return ClassNumberRecord(D, h, w, Fraction(h, w))


def h_w(D: int) -> Fraction:
    return class_number(D).h_w


def _is_fundamental(D: int) -> bool:
    if D % 4 == 1:
        return all(e == 1 for _, e in factor(-D).factors)
    if D % 4 == 0:
        m = D // 4
        if m % 4 not in (2, 3):
            return False
        return all(e == 1 for _, e in factor(-m).factors)
    return False


def hurwitz_H(n: int) -> Fraction:
    """Hurwitz class number H(n), i.e. discriminant -n.  Computed by the
    f-sum over suborders and independently by Cohen's fundamental-discriminant
    formula; the two must agree exactly."""
    if n <= 0 or n % 4 in (1, 2):
        raise ValueError(f"hurwitz_H: n = {n} is not 0 or 3 mod 4")
    # route 1: sum of weighted class numbers over f with f^2 | n
    route1 = Fraction(0)
    for f in range(1, math.isqrt(n) + 1):
        if n % (f * f):
            continue
        m = n // (f * f)
        if (-m) % 4 in (0, 1):
            route1 += h_w(-m)
    # route 2: Cohen's formula from the fundamental discriminant
    D = None
    f0 = None
    for f in range(1, math.isqrt(n) + 1):
        if n % (f * f):
            continue
        cand = -(n // (f * f))
        if cand % 4 in (0, 1) and _is_fundamental(cand):
            D, f0 = cand, f
    if D is None:
        raise ValueError(f"hurwitz_H: no fundamental discriminant under -{n}")
    route2 = h_w(D) * sum(
        mobius(d) * kronecker_chi(D, d) * sigma(1, f0 // d) for d in divisors(f0)
    )
    if route1 != route2:
        raise ArithmeticError(
            f"hurwitz_H({n}): suborder route {route1} != Cohen route {route2}"
        )
    return route1


# r3 is supported for n <= MAX_R3_N: the 2^22 table's FFT build peaks at
# about 571 MB resident, and the next power of two would need about 2.2 GB
MAX_R3_N = 1 << 22

_r3_lock = threading.Lock()
_r3_table: np.ndarray | None = None


def build_r3_table(limit: int) -> np.ndarray:
    """r3(m) for all m <= limit: the cube of the one-dimensional square
    counts, by one real FFT at a power-of-two length above 3*limit so that
    nothing wraps onto m <= limit."""
    r1 = np.zeros(limit + 1)
    r1[0] = 1.0
    squares = np.arange(1, math.isqrt(limit) + 1) ** 2
    r1[squares] = 2.0
    size = 1 << (3 * limit).bit_length()
    r3_float = np.fft.irfft(np.fft.rfft(r1, size) ** 3, size)[: limit + 1]
    r3_int = np.rint(r3_float)
    if np.max(np.abs(r3_float - r3_int)) >= 0.25:
        raise ArithmeticError(f"build_r3_table({limit}): FFT rounding error >= 1/4")
    return r3_int.astype(np.int64)


def ensure_r3_table(limit: int) -> np.ndarray:
    """Grow the shared r3 table to cover m <= limit."""
    global _r3_table
    with _r3_lock:
        if _r3_table is None or len(_r3_table) <= limit:
            _r3_table = build_r3_table(_table_size(limit))
        return _r3_table


def r3(n: int) -> int:
    """Number of (x,y,z) in Z^3 with x^2+y^2+z^2 = n."""
    if n < 0 or n > MAX_R3_N:
        raise ValueError(f"r3: 0 <= n <= {MAX_R3_N} required (r3 table range)")
    table = _r3_table
    if table is None or n >= len(table):
        table = ensure_r3_table(n)
    return int(table[n])


def r3_from_hurwitz(n: int) -> int:
    """Gauss's formula expressing r3 through Hurwitz class numbers."""
    if n <= 0 or 4 * n > MAX_ABS_DISC:
        raise ValueError(f"r3_from_hurwitz: 1 <= n and 4n <= {MAX_ABS_DISC} required")
    m = n % 8
    if m == 7:
        return 0
    if n % 4 == 0:
        return r3_from_hurwitz(n // 4)
    if m == 3:
        val = 24 * hurwitz_H(n)
    else:  # n = 1,2 mod 4
        val = 12 * hurwitz_H(4 * n)
    if val.denominator != 1:
        raise ArithmeticError(f"r3_from_hurwitz({n}): non-integer value {val}")
    return int(val)


def count_A(N: int, n: int, n0: int) -> int:
    """#{(x,y,z,t) : 4n = t^2+x^2+y^2+z^2, t = n0 mod 2N}."""
    if n % 2 == 0:
        raise ValueError("count_A: n must be odd")
    if not (0 < n0 < 2 * N) or n0 % 2 == 0:
        raise ValueError("count_A: need odd 0 < n0 < 2N")
    table = ensure_r3_table(4 * n)
    tmax = math.isqrt(4 * n)
    total = 0
    for t in range(-tmax, tmax + 1):
        if (t - n0) % (2 * N):
            continue
        total += int(table[4 * n - t * t])
    return total


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def admissible_n0(N: int, n: int) -> int | None:
    """Smallest odd 0 < n0 < 2N with (n0^2-4n | p) = -1 for every odd p | N."""
    if n % 2 == 0:
        raise ValueError("admissible_n0: n must be odd")
    odd_primes = [p for p, _ in factor(N).factors if p > 2]
    for n0 in range(1, 2 * N, 2):
        if all(_legendre(n0 * n0 - 4 * n, p) == -1 for p in odd_primes):
            return n0
    return None
