import math

from hypothesis import given, settings
from hypothesis import strategies as st

from hecke_spectra.arithmetic import (
    carmichael_lambda,
    count_congruence_roots,
    divisors,
    euler_phi,
    factor,
    kronecker_chi,
    mobius,
    mod_inverse,
    nu_index,
    sigma,
)

pos = st.integers(min_value=1, max_value=50000)


def test_factor_reassembles():
    for n in range(1, 2000):
        f = factor(n)
        prod = 1
        for p, e in f.factors:
            prod *= p ** e
        assert prod == n


@given(pos, pos)
def test_phi_multiplicative(a, b):
    if math.gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


@given(pos, pos)
def test_sigma_multiplicative(a, b):
    if math.gcd(a, b) == 1:
        assert sigma(1, a * b) == sigma(1, a) * sigma(1, b)
        assert sigma(0, a * b) == sigma(0, a) * sigma(0, b)


@given(pos)
def test_phi_divisor_sum(n):
    # sum_{d|n} phi(d) = n
    assert sum(euler_phi(d) for d in divisors(n)) == n


def test_carmichael_lambda_brute():
    # the least L >= 1 with x^L = 1 mod n for every unit x, and L | phi(n)
    for n in range(1, 400):
        units = [x for x in range(1, n + 1) if math.gcd(x, n) == 1]
        L = next(L for L in range(1, n + 1) if all(pow(x, L, n) == 1 % n for x in units))
        assert carmichael_lambda(n) == L, n
        assert euler_phi(n) % L == 0, n


@given(st.integers(min_value=1, max_value=3000))
def test_mobius_divisor_sum(n):
    assert sum(mobius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_nu_index_values():
    # [SL2(Z) : Gamma_0(N)] = N prod_{p|N} (1 + 1/p)
    assert nu_index(1) == 1
    assert nu_index(2) == 3
    assert nu_index(6) == 12
    assert nu_index(11) == 12
    assert nu_index(12) == 24


@given(st.integers(min_value=1, max_value=2000), st.integers(min_value=2, max_value=500))
def test_mod_inverse(x, c):
    if math.gcd(x, c) == 1:
        assert x * mod_inverse(x, c) % c == 1


def test_kronecker_against_euler_criterion():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(1, p):
            euler = 1 if pow(a, (p - 1) // 2, p) == 1 else -1
            for D in range(-40, 41):
                if D % 4 in (0, 1) and D % p == a % p:
                    assert kronecker_chi(D, p) == euler


def test_congruence_roots_crt():
    # x^2 - t x + n mod K factors over prime powers
    cases = [(1, 5, 12), (3, 2, 30), (0, 7, 36), (5, 11, 60)]
    for t, n, K in cases:
        total = 1
        for p, e in factor(K).factors:
            total *= count_congruence_roots(t, n, p ** e)
        assert count_congruence_roots(t, n, K) == total


@settings(max_examples=50)
@given(st.integers(min_value=-30, max_value=30),
       st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=200))
def test_congruence_roots_brute(t, n, K):
    expect = sum((x * x - t * x + n) % K == 0 for x in range(K))
    assert count_congruence_roots(t, n, K) == expect
