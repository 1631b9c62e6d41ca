import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke_spectra.arithmetic import factor
from hecke_spectra.kloosterman import (
    _half_units,
    _units_and_inverses,
    kloosterman_sum,
    kloosterman_sum_fast,
    ramanujan_sum,
    weil_bound,
)


def brute_kloosterman(m, n, c):
    total = 0.0 + 0.0j
    for x in range(c):
        if math.gcd(x, c) != 1:
            continue
        xinv = pow(x, -1, c)
        total += cmath.exp(2j * math.pi * (m * x + n * xinv) / c)
    return total


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-20, max_value=20),
       st.integers(min_value=-20, max_value=20),
       st.integers(min_value=1, max_value=120))
def test_against_brute_force(m, n, c):
    want = brute_kloosterman(m, n, c)
    got = kloosterman_sum(m, n, c)
    assert abs(got.value - want.real) < 1e-9
    assert abs(want.imag) < 1e-9


def test_fast_matches_certified():
    rng = random.Random(7)
    for _ in range(300):
        c = rng.randrange(1, 4000)
        m = rng.randrange(-100, 100)
        n = rng.randrange(-100, 100)
        assert abs(kloosterman_sum_fast(m, n, c) - kloosterman_sum(m, n, c).value) < 1e-8


def test_unit_tables():
    # the tables every evaluator reads: the units in (0, c/2) (and all units
    # mod c), ascending, each with its inverse in [1, c); the half tables are
    # stored narrow, so the product is taken in int64
    for c in list(range(3, 3001)) + list(range(13000, 13101)):
        x, inv = _half_units(c)
        assert x.tolist() == [a for a in range(1, c) if 2 * a < c and math.gcd(a, c) == 1], c
        assert ((x.astype(np.int64) * inv) % c == 1).all(), c
        assert ((inv >= 1) & (inv < c)).all(), c
        if c <= 600:
            x, inv = _units_and_inverses(c)
            assert x.tolist() == [a for a in range(1, c) if math.gcd(a, c) == 1], c
            assert ((x * inv) % c == 1).all() and ((inv >= 1) & (inv < c)).all(), c


def test_fast_matches_brute_on_prime_powers_and_composites():
    for c in (2 ** 12, 3 ** 7, 5 ** 5, 2310, 4620, 13860):
        for m, n in [(1, 1), (2, 3), (7, 5), (-3, 11), (0, 5), (c - 1, 13)]:
            want = brute_kloosterman(m, n, c).real
            assert abs(kloosterman_sum_fast(m, n, c) - want) < 1e-8, (m, n, c)
            assert abs(kloosterman_sum(m, n, c).value - want) < 1e-8, (m, n, c)


# negative, zero, m = n, a lattice value of delta_new (2 * 3125^2), and m, n
# divisible by the primes up to 19 and by the squares of those up to 7
_CRT_PAIRS = [(-5, 7), (0, 11), (13, 13), (19531250, 3), (-44100, 30030),
              (10 ** 7 + 19, -9699690)]


def test_fast_matches_certified_at_every_c():
    # a wrong twist in the product over prime powers shows at some composite
    # c: every c <= 1200, the pairs above and, per c, m and n divisible by
    # the smallest prime p of c and by p^2
    for c in [*range(1, 1201), 2 ** 12, 3 ** 7, 5 ** 5, 30030, 13835, 13860]:
        p = factor(c).primes[0] if c > 1 else 1
        for m, n in [*_CRT_PAIRS, (p, 1), (7, p * p), (c // p, 5 * p)]:
            want = kloosterman_sum(m, n, c).value
            assert abs(kloosterman_sum_fast(m, n, c) - want) < 1e-9, (m, n, c)


def test_array_form_equals_scalar_form_bit_for_bit():
    # the array form batches the prime-power sums over all c but must return
    # exactly the floats of one scalar call per c
    # past _TWIST_MAX, c take the scalar route inside the same array
    cs = np.array([*range(1, 1201), 2 ** 12, 3 ** 7, 5 ** 5, 30030, 13835, 13860,
                   2 ** 16 - 1, 2 ** 16, 2 * 65537, 3 ** 11])
    for m, n in _CRT_PAIRS:
        scalar = np.array([kloosterman_sum_fast(m, n, int(c)) for c in cs])
        assert np.array_equal(kloosterman_sum_fast(m, n, cs), scalar), (m, n)
    assert kloosterman_sum_fast(1, 1, np.array([], dtype=np.int64)).shape == (0,)
    # no c with a prime power: S(m, n; 1) = 1 for every entry
    for ones in (np.array([1]), np.ones((2, 3), dtype=np.int64)):
        assert np.array_equal(kloosterman_sum_fast(3, 5, ones), np.ones(ones.shape))
    assert kloosterman_sum_fast(3, 5, 1) == 1.0
    with pytest.raises(ValueError):
        kloosterman_sum_fast(1, 1, np.array([3, 0]))


def test_symmetry_in_m_n():
    for (m, n, c) in [(2, 5, 31), (1, 7, 64), (3, 11, 100), (4, 9, 77)]:
        assert abs(kloosterman_sum(m, n, c).value - kloosterman_sum(n, m, c).value) < 1e-10


def test_ramanujan_specialization():
    for c in range(1, 80):
        for n in (0, 1, 6, 12):
            s = kloosterman_sum(0, n, c)
            assert abs(s.value - ramanujan_sum(n, c)) < 1e-9


def test_prime_case_is_nontrivial():
    # S(1,1;p) = -1 - 2 sum cos(...) is irrational for p > 3; just check
    # it is real, within Weil, and not the degenerate phi(p)
    for p in (101, 211, 499):
        s = kloosterman_sum(1, 1, p)
        assert abs(s.value) <= 2.0 * math.sqrt(p) + 1e-9
        assert abs(s.value) < p - 1


def test_weil_bound_random_triples():
    rng = random.Random(1234)
    for _ in range(500):
        c = rng.randrange(1, 3000)
        m = rng.randrange(-10 ** 6, 10 ** 6)
        n = rng.randrange(-10 ** 6, 10 ** 6)
        s = kloosterman_sum(m, n, c)
        assert abs(s.value) <= weil_bound(m, n, c) + 1e-8
        assert s.imaginary_residual <= 1e-9 * max(1.0, abs(s.value)) + 1e-10


def test_rejects_bad_c():
    with pytest.raises(ValueError):
        kloosterman_sum(1, 1, 0)
