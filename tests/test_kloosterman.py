import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke_spectra import kloosterman
from hecke_spectra.arithmetic import factor
from hecke_spectra.kloosterman import (
    _TWIST_MAX,
    _HalfUnits,
    _unit_inverses,
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
        x, inv = _unit_inverses([c])[0]
        assert x.tolist() == [a for a in range(1, c) if 2 * a < c and math.gcd(a, c) == 1], c
        assert ((x.astype(np.int64) * inv) % c == 1).all(), c
        assert ((inv >= 1) & (inv < c)).all(), c
        if c <= 600:
            x, inv = _units_and_inverses(c)
            assert x.tolist() == [a for a in range(1, c) if math.gcd(a, c) == 1], c
            assert ((x * inv) % c == 1).all() and ((inv >= 1) & (inv < c)).all(), c


def _sieved_units(c, stop):
    """The units mod c in [1, stop), by striking the multiples of each prime of c."""
    keep = np.ones(stop, dtype=bool)
    keep[:1] = False
    for p in factor(c).primes:
        keep[p::p] = False
    return np.flatnonzero(keep)


def _assert_tables(moduli, tables, half):
    assert len(tables) == len(moduli)
    for c, (x, inv) in zip(moduli, tables):
        dtype = np.int16 if c <= 2 ** 15 else np.int32
        assert x.dtype == inv.dtype == dtype, c
        assert np.array_equal(x, _sieved_units(c, (c + 1) // 2 if half else c)), c
        assert ((x.astype(np.int64) * inv) % c == 1).all(), c
        assert ((inv >= 1) & (inv < c)).all(), c


_PRIME_POWERS = [q for q in range(3, 2 ** 14 + 1) if len(factor(q).factors) == 1]


@pytest.fixture(scope="module")
def cached_tables():
    """Every prime-power table q <= 2^14 from one call, with the traced
    memory after the call and at its peak."""
    tracemalloc.start()
    try:
        tables = _unit_inverses(_PRIME_POWERS)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return tables, current, peak


def test_batched_tables_equal_the_per_q_sieve(cached_tables):
    # every prime power q <= 2^14 (the tables the walk caches) in one batch,
    # and every c of test_unit_tables in another
    assert len(_PRIME_POWERS) == 1960  # with q = 2, the 1,961 cached tables
    _assert_tables(_PRIME_POWERS, cached_tables[0], half=True)
    cs = list(range(3, 3001)) + list(range(13000, 13101))
    _assert_tables(cs, _unit_inverses(cs), half=True)
    _assert_tables(cs[:600], _unit_inverses(cs[:600], half=False), half=False)


def test_building_every_cached_table_keeps_memory_bounded(cached_tables):
    # the batch is built chunk by chunk, so beyond the tables it returns
    # (about 29 MB) it holds only one chunk's temporaries (about 0.3 MB)
    _, current, peak = cached_tables
    assert peak - current < 2 * 2 ** 20


def test_batched_tables_across_chunk_limits(monkeypatch):
    # spans (c - 1)/2 of 8192 + 8191 fill one chunk of 2^14 exactly; one more
    # candidate spills the second modulus into the next chunk; a modulus
    # past 2^15 (stored wide) goes alone, even beside a modulus of span 0,
    # so no chunk mixes storage widths
    assert kloosterman._TABLE_BLOCK == 2 ** 14
    for moduli in ([16385, 16383, 3, 5], [16385, 16385, 7], [1, 2, 3, 2 ** 15, 2 ** 15 + 3, 3],
                   [40009, 25, 65521, 2 ** 16 + 1], [40009, 2], [2, 32769], [1, 40009, 1]):
        for half in (True, False):
            tables = _unit_inverses(moduli, half)
            _assert_tables(moduli, tables, half)
            for c, (x, inv) in zip(moduli, tables):
                alone = _unit_inverses([c], half)[0]
                assert np.array_equal(x, alone[0]) and np.array_equal(inv, alone[1]), c
    # tiny chunks: every table of c < 600 straddles a chunk limit
    monkeypatch.setattr(kloosterman, "_TABLE_BLOCK", 37)
    cs = list(range(1, 600))
    _assert_tables(cs, _unit_inverses(cs), half=True)


def test_half_unit_cache_counts_like_lru_cache():
    cache = _HalfUnits()
    assert cache.tables([3, 5]) == [cache(3), cache(5)]
    assert cache.cache_info() == (2, 2, None, 2)  # hits, misses, maxsize, currsize
    x, inv = cache.tables([7, 5, 7])[0]
    assert x.tolist() == [1, 2, 3] and inv.tolist() == [1, 4, 5]
    assert cache.cache_info() == (4, 3, None, 3)  # 7 built once, for both lookups


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


def test_multi_pair_form_equals_one_call_per_pair(monkeypatch):
    # the pairs of a delta_new(., 6, 1, n) l-lattice, each over its step's c;
    # _CRT_PAIRS; repeated pairs; empty c arrays; c past _TWIST_MAX; all
    # laid end to end in one call, as the walk makes it
    from hecke_spectra.petersson import _new_cell

    tasks = _new_cell(24, 6, 1, 5)[1]
    ms = [t.m_eff for t in tasks] + [m for m, _ in _CRT_PAIRS] + [1, 1, 7, 13]
    ns = [t.n for t in tasks] + [n for _, n in _CRT_PAIRS] + [5, 5, 3, 13]
    cs = [np.arange(t.step, 500, t.step) for t in tasks]
    cs += [np.arange(1, 900) for _ in _CRT_PAIRS]
    cs += [np.arange(1, 700), np.arange(1, 700), np.array([], dtype=np.int64),
           np.array([_TWIST_MAX - 1, _TWIST_MAX, 2 * 65537, 5, 3 ** 11])]
    want = [kloosterman_sum_fast(m, n, c) for m, n, c in zip(ms, ns, cs)]
    assert len({*zip(ms, ns)}) < len(ms)  # pairs repeat, in the lattice too
    sizes = [c.size for c in cs]
    m, n, c = np.repeat(ms, sizes), np.repeat(ns, sizes), np.concatenate(cs)
    assert c.size <= kloosterman._PASS_C  # so one pass takes them all

    sums = []
    real = kloosterman._prime_power_sums

    def recording(a, b, q, table=None):
        sums.append((q, np.atleast_1d(a).tolist(), np.atleast_1d(b).tolist()))
        return real(a, b, q, table)

    monkeypatch.setattr(kloosterman, "_prime_power_sums", recording)
    got = np.split(kloosterman_sum_fast(m, n, c), np.cumsum(sizes)[:-1])
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    # one pass: one batch per q, and each (q, a, b) in it once
    qs = [q for q, _, _ in sums]
    assert len(qs) == len(set(qs))
    assert all(len(set(zip(a, b))) == len(a) for _, a, b in sums)
    # passes cut inside pairs give the same floats
    monkeypatch.setattr(kloosterman, "_PASS_C", 2000)
    assert np.array_equal(kloosterman_sum_fast(m, n, c), np.concatenate(want))
    # m and n broadcast to the shape of a 2-D c
    ms2, cs2 = np.array([[1], [7], [-44100]]), np.array([[4, 6, 30030, 1]] * 3)
    got = kloosterman_sum_fast(ms2, 5, cs2)
    assert got.shape == (3, 4)
    assert np.array_equal(got, [[kloosterman_sum_fast(int(m), 5, int(c)) for c in cs2[0]] for m in ms2[:, 0]])
