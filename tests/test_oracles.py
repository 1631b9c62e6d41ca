import math

import pytest

from hecke_spectra import oracles
from hecke_spectra.arithmetic import divisors, sigma
from hecke_spectra.eichler_selberg import trace_new
from hecke_spectra.oracles import (
    delta_tau,
    dim_level_one,
    genus_X0,
    hecke_matrix_level_one,
    level_one_eigenform,
    miller_basis,
)


def test_tau_known_values():
    tau = delta_tau(30)
    known = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048, 7: -16744,
             8: 84480, 9: -113643, 10: -115920, 11: 534612, 12: -370944}
    for n, v in known.items():
        assert tau.a(n) == v


def test_tau_multiplicative():
    tau = delta_tau(600)
    for (a, b) in [(2, 3), (3, 5), (4, 9), (8, 27), (5, 49), (11, 13)]:
        if math.gcd(a, b) == 1:
            assert tau.a(a * b) == tau.a(a) * tau.a(b)


def test_tau_hecke_recursion_at_2():
    tau = delta_tau(512)
    for e in range(1, 8):
        assert tau.a(2 ** (e + 1)) == tau.a(2) * tau.a(2 ** e) - 2 ** 11 * tau.a(2 ** (e - 1))


def test_tau_691_congruence():
    tau = delta_tau(200)
    for n in range(1, 201):
        assert (tau.a(n) - sigma(11, n)) % 691 == 0


def test_expansions_are_prefixes_of_one_longest_build(monkeypatch):
    # Delta, E4 and E6 are built once to the largest n_max asked for; a
    # smaller n_max is a prefix of that build and equals a fresh build
    builds = []
    eta, sigma_series = oracles._eta_quotientless, oracles._sigma_series
    monkeypatch.setattr(oracles, "_eta_quotientless", lambda n: builds.append(n) or eta(n))
    monkeypatch.setattr(oracles, "_sigma_series", lambda t, n: builds.append(n) or sigma_series(t, n))
    longest = delta_tau(701).coefficients
    e4, e6 = oracles._eisenstein(4, 701), oracles._eisenstein(6, 701)
    built = len(builds)
    sizes = (700, 37, 1)
    cached = {n: (delta_tau(n).coefficients, oracles._eisenstein(4, n), oracles._eisenstein(6, n)) for n in sizes}
    assert len(builds) == built  # prefixes, not new builds
    for n in sizes:
        fresh = (oracles._tau.__wrapped__(n), *(oracles._eisenstein.__wrapped__(k, n) for k in (4, 6)))
        assert cached[n] == (longest[:n], e4[: n + 1], e6[: n + 1]) == fresh
    with pytest.raises(ValueError):
        delta_tau(0)


def test_eigenform_multiplicativity():
    for k in (16, 18, 20, 22, 26):
        f = level_one_eigenform(k, 200)
        assert f.a(1) == 1
        for (a, b) in [(2, 3), (3, 4), (5, 7), (4, 25), (8, 9)]:
            assert f.a(a * b) == f.a(a) * f.a(b)


def test_eigenform_hecke_recursion():
    for k in (16, 20, 26):
        f = level_one_eigenform(k, 128)
        for e in range(1, 6):
            assert f.a(2 ** (e + 1)) == f.a(2) * f.a(2 ** e) - 2 ** (k - 1) * f.a(2 ** (e - 1))


def test_miller_basis_is_reduced():
    for k in (12, 24, 38, 48, 96):
        d = dim_level_one(k)
        basis = miller_basis(k, 3 * d)
        assert len(basis) == d
        for j, g in enumerate(basis, 1):
            assert [g.a(i) for i in range(1, d + 1)] == [int(i == j) for i in range(1, d + 1)]
    assert miller_basis(26, 40)[0] is level_one_eigenform(26, 40)
    with pytest.raises(ValueError):
        level_one_eigenform(24, 10)


def test_miller_basis_traces_match_trace_formula():
    # Tr T_n = sum_i a_{T_n g_i}(i), exact in integers, with
    # a_{T_n g}(m) = sum_{e | (n, m)} e^{k-1} a_g(nm/e^2)
    for k in range(24, 97, 12):
        basis = miller_basis(k, 12 * dim_level_one(k))
        for n in range(1, 13):
            tr = sum(
                e ** (k - 1) * g.a(n * i // (e * e))
                for i, g in enumerate(basis, 1)
                for e in divisors(math.gcd(n, i))
            )
            want = tr / n ** ((k - 1) / 2.0)
            assert abs(trace_new(n, k, 1).total - want) <= 1e-12 * abs(want), (k, n)


def test_hecke_matrix_agrees_with_traces():
    # the trace of the T_p matrix is Tr T_p, its entries are integers
    for (k, p) in [(24, 2), (36, 3), (60, 7)]:
        m = hecke_matrix_level_one(k, p)
        assert len(m) == dim_level_one(k)
        assert all(isinstance(x, int) for row in m for x in row)
        want = sum(m[i][i] for i in range(len(m))) / p ** ((k - 1) / 2.0)
        assert abs(trace_new(p, k, 1).total - want) <= 1e-12 * abs(want), (k, p)
    with pytest.raises(ValueError):
        hecke_matrix_level_one(24, 4)


def test_dim_level_one():
    assert dim_level_one(12) == 1
    assert dim_level_one(16) == 1
    assert dim_level_one(24) == 2
    assert dim_level_one(26) == 1
    assert dim_level_one(68) == 5


def test_genus_values():
    known = {1: 0, 2: 0, 3: 0, 5: 0, 6: 0, 10: 0, 11: 1, 14: 1, 15: 1,
             17: 1, 22: 2, 23: 2, 26: 2, 35: 3, 37: 2}
    for N, g in known.items():
        assert genus_X0(N) == g
