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
their inverses come from one routine, `_unit_inverses`: Montgomery's
simultaneous inversion (Math. Comp. 48, 1987), blocked and run over many
moduli at once.  The inverses are exact integers, so the route to them
never moves a sum.

`kloosterman_sum_fast` also takes an int array of c, with m and n ints or
int arrays broadcast to its shape, which is how the walk calls it: once per
block of c, with every pair of the block over every c its tasks need, laid
end to end.  The prime powers of all those c and the r* come from one
cached table.  A pass takes up to 2^16 entries, which bounds its arrays;
across its entries, each distinct (q, m r*, n r*) is summed once, a batch
per q, with every missing unit table of q <= 2^14 built in one batch.  The
product over q is taken in increasing p, so each entry equals the scalar
form bit for bit.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .arithmetic import carmichael_lambda, divisors, euler_phi, factor, mobius, sigma


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
    return _unit_inverses([c], half=False)[0]


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


# candidate units per chunk of _unit_inverses, which bounds its temporaries; a
# modulus past 2^15 takes a chunk alone, so every chunk has one storage width
_TABLE_BLOCK = 1 << 14


def _unit_inverses(moduli, half: bool = True) -> list:
    """(x, inv) for each modulus c: the units x mod c in (0, c/2) if half, else
    in (0, c), ascending, and their inverses in [1, c), stored as int16 for
    c <= 2^15 and int32 above.

    Montgomery's simultaneous inversion (Math. Comp. 48, 1987), blocked and
    run over many moduli at once.  The moduli go in chunks of at most
    _TABLE_BLOCK candidates, a modulus past 2^15 alone.  In a chunk, the
    candidates of each modulus fill K columns of B (non-units and padding set
    to 1, struck by one slice per modulus and prime); running products down
    the columns leave one product per column, one square-and-multiply ladder
    raises each to lambda(c) - 1 modulo its column's c (lambda the exponent
    of the unit group), and a pass back up the columns peels off each
    inverse.  So the arithmetic of a chunk is a fixed run of numpy calls over
    all its columns, not a run per modulus; B ~ sqrt(chunk size)/8 in
    [2, 16] balances the B calls of each pass against the ladder's work per
    column.  It is int32 when every modulus is <= 2^15 (products < 2^30),
    else int64 (c <= ~3e9); the inverses are exact integers either way."""
    out, chunk, size = [], [], 0
    for c in moduli:
        span = (c - 1) // 2 if half else c - 1  # candidates 1..span
        if chunk and (size + span > _TABLE_BLOCK or (c > 2 ** 15) != (chunk[0] > 2 ** 15)):
            out += _invert_chunk(chunk, half)
            chunk, size = [], 0
        chunk.append(c)
        size += span
    if chunk:
        out += _invert_chunk(chunk, half)
    return out


def _invert_chunk(moduli: list, half: bool) -> list:
    """_unit_inverses of one chunk of moduli, all <= 2^15 or one past it."""
    wide = moduli[0] > 2 ** 15
    dt = np.int64 if wide else np.int32
    facs = [factor(q) for q in moduli]
    spans = [(q - 1) // 2 if half else q - 1 for q in moduli]  # candidates 1..span
    B = min(16, max(2, round(math.sqrt(sum(spans)) / 8)))
    K = [-(-span // B) for span in spans]  # columns of B candidates per modulus
    starts = [0, *accumulate(k * B for k in K)]
    # the units: each modulus's candidates, less the multiples of its primes
    # and the padding past its span
    keep = np.zeros(starts[-1], dtype=bool)
    for f, span, a in zip(facs, spans, starts):
        keep[a:a + span] = True
        for p in f.primes:
            keep[a + p - 1:a + span:p] = False
    x = np.arange(1, starts[-1] + 1, dtype=dt) - np.repeat(np.array(starts[:-1], dtype=dt), np.array(K) * B)
    x, keep = x.reshape(-1, B), keep.reshape(-1, B)  # row k: the candidates of column k
    u = np.ascontiguousarray(np.where(keep, x, 1).T)
    mod = np.repeat(np.array(moduli, dtype=dt), K)  # the modulus of each column
    # running products down each column; the pass back up overwrites them
    # with the inverses
    run = np.empty_like(u)
    run[0] = u[0]
    for i in range(1, B):
        run[i] = run[i - 1] * u[i] % mod
    lams = [carmichael_lambda(f) - 1 for f in facs]
    w, base = np.ones_like(mod), run[B - 1]
    if min(lams) == max(lams):
        # one exponent (a lone modulus, say): a scalar ladder skips the
        # multiply at zero bits, which takes a lone table from ~135 to ~85 us
        e = lams[0]
        while e:
            if e & 1:
                w = w * base % mod
            base = base * base % mod
            e >>= 1
    else:
        e = np.repeat(lams, K)  # each column's exponent
        while e.any():
            w = np.where(e & 1, w * base % mod, w)
            base = base * base % mod
            e >>= 1
    for i in range(B - 1, 0, -1):
        run[i] = w * run[i - 1] % mod
        w = w * u[i] % mod
    run[0] = w
    store = np.int32 if wide else np.int16
    x, inv = x[keep].astype(store), run.T[keep].astype(store)
    # phi(c) units mod c (none for c = 1), half of them below c/2 (x <-> c - x)
    ends = list(accumulate(0 if q == 1 else euler_phi(f) // (2 if half else 1)
                           for q, f in zip(moduli, facs)))
    return [(x[a:b], inv[a:b]) for a, b in zip([0, *ends], ends)]


_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class _HalfUnits:
    """The half tables of the prime powers 2 < q <= _CACHED_Q, the only keys
    it is given: units x in (0, q/2) mod q, ascending, with their inverses
    in [1, q), used with the x <-> q-x pairing, which makes the sum
    2*sum(cos) and exactly real.  Stored as int16, which keeps them small;
    callers widen them before any product.  The keys are a fixed set of
    1,960, so every table is kept and none evicted (about 29 MB in all);
    larger q are built afresh by `_prime_power_sums`, since a walk to
    c = 50803 otherwise kept 291 MB of them, each used about once.
    `tables` builds every table it lacks in one `_unit_inverses` call.
    cache_info() counts as functools.lru_cache does, a hit or miss per q."""

    def __init__(self):
        self.hits = self.misses = 0
        self._tables = {}
        self._lock = threading.Lock()

    def __call__(self, q: int):
        return self.tables([q])[0]

    def tables(self, moduli) -> list:
        got = {q: self._tables[q] for q in moduli if q in self._tables}
        new = [q for q in dict.fromkeys(moduli) if q not in got]
        got.update(zip(new, _unit_inverses(new)))
        with self._lock:
            self.hits += len(moduli) - len(new)
            self.misses += len(new)
            self._tables.update((q, got[q]) for q in new)
        return [got[q] for q in moduli]

    def cache_info(self):
        return _CacheInfo(self.hits, self.misses, None, len(self._tables))


_half_units = _HalfUnits()
_CACHED_Q = 1 << 14  # the largest prime power whose half table _half_units keeps


def _prime_power_sums(a, b, q: int, table=None):
    """S(a,b;q) for a prime power q and 0 <= a, b < q, by paired summation
    over q's half table (read from the cache, or built, when not given).
    a and b are ints (a float64 scalar is returned) or equal-length int
    arrays (one sum per entry, each a row sum along the last axis, which
    equals the 1-D np.sum of that row bit for bit)."""
    if q == 2:
        return np.where((a + b) % 2 == 0, 1.0, -1.0)
    if table is None:
        table = _half_units(q) if q <= _CACHED_Q else _unit_inverses([q])[0]
    x, inv = table
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
_PASS_C = 1 << 16  # entries per pass of _kloosterman_sums, which bounds its arrays


def _kloosterman_sums(m, n, c) -> np.ndarray:
    """kloosterman_sum_fast of an int array c, with m and n (within int64)
    broadcast to its shape.  Entries below _TWIST_MAX go in passes of at most
    _PASS_C; each value depends only on its own (m, n, c), so the cut moves
    none.  Larger c take one scalar call each, which needs no table."""
    c = np.asarray(c, dtype=np.int64)
    if c.size and c.min() < 1:
        raise ValueError("kloosterman_sum_fast: c must be positive")
    m, n = (np.broadcast_to(np.asarray(v, dtype=np.int64), c.shape).ravel() for v in (m, n))
    flat = c.ravel()
    out = np.ones(flat.shape)
    big = np.flatnonzero(flat >= _TWIST_MAX)
    out[big] = [kloosterman_sum_fast(int(m[j]), int(n[j]), int(flat[j])) for j in big]
    small = np.flatnonzero(flat < _TWIST_MAX)
    for lo in range(0, small.size, _PASS_C):
        j = small[lo:lo + _PASS_C]
        out[j] = _twisted_products(flat[j], m[j], n[j])
    return out.reshape(c.shape)


def _prime_power_values(c, m, n):
    """(live, values) for int64 arrays c, m, n, 1 <= c < _TWIST_MAX: live
    marks the rows of the twist table over c that hold a prime power q || c,
    and values holds S(m r*, n r*; q) at each live entry, in that layout.
    Each distinct (q, a, b) is summed once, one batch per q, with the half
    tables of every q <= _CACHED_Q read from `_half_units` in one call."""
    q_tab, rbar_tab = _twists(int(c.max()).bit_length())
    q, rbar = q_tab[:, c], rbar_tab[:, c]
    live = q > 1
    q, rbar = q[live], rbar[live]
    a = np.broadcast_to(m, live.shape)[live] % q * rbar % q
    b = np.broadcast_to(n, live.shape)[live] % q * rbar % q
    # each distinct (q, a, b) once: all are below 2^16, so sorting one key
    # sorts by (q, a, b), and each q's rows form one batch
    key = q << 32 | a << 16 | b
    order = np.argsort(key)
    key = key[order]
    new = np.ones(key.size, dtype=bool)
    new[1:] = key[1:] != key[:-1]
    key = key[new]
    q, a, b = key >> 32, key >> 16 & 0xFFFF, key & 0xFFFF
    starts = np.flatnonzero(np.diff(q, prepend=0)).tolist()
    heads = q[starts].tolist()
    cached = [x for x in heads if 2 < x <= _CACHED_Q]
    tables = dict(zip(cached, _half_units.tables(cached)))
    sums = np.empty(key.size)
    for lo, hi, x in zip(starts, [*starts[1:], key.size], heads):
        sums[lo:hi] = _prime_power_sums(a[lo:hi], b[lo:hi], x, tables.get(x))
    values = np.empty(order.size)
    values[order] = sums[np.cumsum(new) - 1]
    return live, values


def _twisted_products(c, m, n) -> np.ndarray:
    """S(m[j], n[j]; c[j]) for int64 arrays c, m, n, 1 <= c < _TWIST_MAX:
    each c's prime-power values multiplied in increasing p, as the scalar
    form does (the 1.0 past a c's last prime power is an exact factor)."""
    if not c.size:
        return np.ones(0)
    live, values = _prime_power_values(c, m, n)
    factors = np.ones(live.shape)
    factors[live] = values
    product = np.ones(c.shape)
    for row in factors:
        product *= row
    return product


def kloosterman_sum_fast(m, n, c):
    """S(m,n;c) by twisted multiplicativity: the product over q || c of
    S(m r*, n r*; q), r = c/q and r* its inverse mod q, in increasing p; no
    per-value certification (the harness-facing kloosterman_sum is the
    certified evaluator).

    c is an int (a float is returned) or an int ndarray, with m and n ints
    or int arrays broadcast to its shape (an ndarray of c's shape is
    returned, each entry equal bit for bit to the float of the scalar call
    on its m, n and c).  A scalar c reads its prime powers from `factor` and
    memoizes each prime-power sum; the array form shares each distinct
    prime-power sum across all its entries below _TWIST_MAX."""
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
