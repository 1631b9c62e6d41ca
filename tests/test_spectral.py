import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hecke_spectra.eichler_selberg import trace_new
from hecke_spectra.spectral import (
    DiscreteMeasure,
    _chebyshev_u,
    _newton_roots,
    _power_sums_from_chebyshev,
    check_discrepancy_cell,
    chebyshev_moment,
    discrepancy,
    discrepancy_lower_bound_moments,
    empirical_mu_star,
    nu_moment,
    plancherel_cdf,
    plancherel_measure,
    recovery_route,
    semicircle_measure,
    trace_discrepancy_bound,
)


def test_plancherel_cdf_endpoints_and_center():
    for p in (2, 3, 5, 7, np.int64(3)):
        assert abs(plancherel_cdf(p, -2.0)) < 1e-9
        assert abs(plancherel_cdf(p, 2.0) - 1.0) < 1e-9
        assert abs(plancherel_cdf(p, 0.0) - 0.5) < 1e-9
    assert check_discrepancy_cell(24, 1, np.int64(3)) == 2
    # a non-integral p is refused like a composite one
    for p in (4, 2.0):
        with pytest.raises(ValueError, match="p must be prime"):
            plancherel_cdf(p, 0.0)
        with pytest.raises(ValueError, match="p must be prime"):
            plancherel_measure(p)
        with pytest.raises(ValueError, match="p must be prime"):
            check_discrepancy_cell(24, 1, p)


def test_plancherel_cdf_against_quadrature():
    from scipy.integrate import quad

    for p in (2, 3, 101):
        s = (math.sqrt(p) + 1.0 / math.sqrt(p)) ** 2
        rho = lambda x: (p + 1) / math.pi * math.sqrt(max(1 - x * x / 4, 0)) / (s - x * x)
        # the interior plus two points near the square-root endpoints
        for x in [-1.999, *np.linspace(-1.9, 1.9, 15), 1.999]:
            want, _ = quad(rho, -2.0, float(x), points=[-2.0], limit=200)
            assert abs(plancherel_cdf(p, float(x)) - want) < 1e-9, (p, x)


def test_plancherel_clamps_with_warning():
    with pytest.warns(UserWarning):
        v = plancherel_cdf(2, 2.5)
    assert v == 1.0


def test_plancherel_chebyshev_moments():
    mu = plancherel_measure(2)
    assert mu.p == 2 and semicircle_measure().p is None
    for m in range(0, 12):
        want = 2.0 ** (-m / 2.0) if m % 2 == 0 else 0.0
        assert abs(chebyshev_moment(mu, m) - want) < 1e-12


def test_plancherel_chebyshev_moments_from_cdf():
    # by parts: int U_m(x/2) dF_p = (m+1) - int F_p(x) (d/dx) U_m(x/2) dx, since
    # U_m(1) = m+1 and F_p(-2) = 0; Gauss-Legendre in theta, x = -2 cos(theta)
    nodes, wts = np.polynomial.legendre.leggauss(200)
    theta = (nodes + 1.0) * math.pi / 2.0
    xs = -2.0 * np.cos(theta)
    dx = 2.0 * np.sin(theta) * wts * math.pi / 2.0
    x = np.polynomial.Polynomial([0.0, 1.0])
    for p in (2, 3, 5):
        cdf = np.array([plancherel_cdf(p, float(v)) for v in xs])
        u_prev, u = 0.0 * x, 0.0 * x + 1.0  # U_{-1}, U_0 at x/2
        for m in range(0, 11):
            moment = (m + 1) - float(np.sum(cdf * u.deriv()(xs) * dx))
            want = p ** (-m / 2.0) if m % 2 == 0 else 0.0
            assert abs(moment - want) < 1e-10, (p, m, moment)
            u_prev, u = u, x * u - u_prev


def test_plancherel_measure_built_once_per_p():
    # each build checks monotonicity at 10^4 points, and perfbench hooks this
    # name, so the measure stays cached
    assert plancherel_measure(2) is plancherel_measure(2)


def test_semicircle_moments():
    sc = semicircle_measure()
    assert chebyshev_moment(sc, 0) == 1.0
    for m in range(1, 8):
        assert chebyshev_moment(sc, m) == 0.0


def test_discrete_measure_validation():
    with pytest.raises(ValueError, match="sorted"):
        DiscreteMeasure((1.0, -1.0))
    with pytest.raises(ValueError, match="outside"):
        DiscreteMeasure((2.5,))
    with pytest.raises(ValueError, match="no atoms"):
        DiscreteMeasure(())


def test_empirical_atom_weight_12():
    mu = empirical_mu_star(12, 1, 2)
    assert len(mu.atoms) == 1
    assert abs(mu.atoms[0] - (-24.0 / 2 ** 5.5)) < 1e-9


def test_empirical_roundtrip_moments():
    for (k, N, p) in [(40, 1, 2), (12, 11, 3), (24, 5, 2)]:
        d = round(trace_new(1, k, N).total)
        mu = empirical_mu_star(k, N, p)
        assert len(mu.atoms) == d
        for m in range(d + 1):
            want = trace_new(p ** m, k, N).total / d
            assert abs(chebyshev_moment(mu, m) - want) < 1e-6, (k, N, p, m)


def test_hecke_route_matches_newton_route():
    # at N = 1 the Hecke-matrix eigenvalues against the trace route they replace
    for (k, N, p) in [(96, 1, 3), (120, 1, 2), (60, 1, 7)]:
        d = check_discrepancy_cell(k, N, p)
        assert recovery_route(N, d) == {"route": "hecke_matrix"}
        newton = sorted(r.real for r in _newton_roots(k, N, p, d))
        atoms = empirical_mu_star(k, N, p).atoms
        assert len(atoms) == d
        assert max(abs(a - b) for a, b in zip(atoms, newton)) < 1e-9, (k, N, p)
    assert recovery_route(1, 1)["route"] == "newton"
    assert recovery_route(11, 2) == {"route": "newton", "newton_digits": 40}


def test_empirical_requires_coprime():
    with pytest.raises(ValueError):
        empirical_mu_star(12, 11, 11)


def test_empirical_rejects_dim_past_class_number_limit():
    # dim S_276(1) = 23 <= 40, but the trace at 2^23 needs |D| <= 4*2^23 > 1e7
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="1e7"):
        empirical_mu_star(276, 1, 2)
    assert time.perf_counter() - t0 < 1.0


def test_nu_moment_zeroth():
    # m = 0 at large weight: the diagonal survives, the c-sums are negligible
    v = nu_moment(40, 1, 2, 0)
    assert abs(v - 1.0) < 1e-8


def test_discrepancy_atom_vs_semicircle():
    # the closed singleton {0} carries full mass against none
    one = DiscreteMeasure((0.0,))
    assert abs(discrepancy(one, semicircle_measure()) - 1.0) < 1e-12


def test_discrepancy_brute_force_scan():
    # compare against a dense two-endpoint grid scan
    rng = np.random.default_rng(5)
    atoms = np.sort(rng.uniform(-2, 2, 6))
    mu = DiscreteMeasure(tuple(atoms))
    sc = semicircle_measure()
    got = discrepancy(mu, sc)

    eps = 1e-9
    pts = sorted(set([-2.0, 2.0] + [a - eps for a in atoms] + [a + eps for a in atoms]))

    def mass_d(a, b):
        lo = np.searchsorted(atoms, a, side="left")
        hi = np.searchsorted(atoms, b, side="right")
        return (hi - lo) / len(atoms)

    brute = 0.0
    for i, a in enumerate(pts):
        for b in pts[i:]:
            brute = max(brute, abs(mass_d(a, b) - (sc.cdf(b) - sc.cdf(a))))
    assert abs(got - brute) < 1e-6


def test_moment_lower_bound_sanity():
    # measures realizing a moment gap Delta_m must differ by at least the bound
    assert abs(discrepancy_lower_bound_moments([0.8], 1) - 0.8 / 8.0) < 1e-12
    lb = discrepancy_lower_bound_moments([0.0, 0.5], 2)
    # atom at 0 vs plancherel(2): the actual discrepancy dominates the bound
    one = DiscreteMeasure((0.0,))
    gap = chebyshev_moment(one, 2) - chebyshev_moment(plancherel_measure(2), 2)
    bound = discrepancy_lower_bound_moments([0.0, gap], 2)
    assert bound <= discrepancy(one, plancherel_measure(2)) + 1e-9


def test_chebyshev_u_matches_sine_ratio():
    # U_m(cos t) = sin((m+1)t)/sin(t) inside, and U_m(+-1) = (+-1)^m (m+1) exactly
    theta = np.linspace(0.0, math.pi, 1001)[1:-1]
    for m in (0, 1, 2, 5, 14, 40, 100, 200):
        u = _chebyshev_u(m, 2.0 * np.cos(theta))
        want = np.sin((m + 1) * theta) / np.sin(theta)
        assert np.max(np.abs(u - want)) < 1e-12 * (m + 1) ** 2, m
        assert _chebyshev_u(m, np.array([-2.0, 2.0])).tolist() == [(-1) ** m * (m + 1.0), m + 1.0]


def test_power_sums_match_direct_powers():
    # the closed-form expansion in the U basis against sum a^j of random atoms,
    # the moments taken exactly enough that only the expansion is tested
    import mpmath as mp

    rng = np.random.default_rng(11)
    with mp.workdps(60):
        for d in (1, 2, 3, 7, 16, 25, 40):
            atoms = [mp.mpf(float(a)) for a in rng.uniform(-2.0, 2.0, d)]
            c = []
            u_prev, u = [mp.mpf(0)] * d, [mp.mpf(1)] * d
            for _ in range(d + 1):
                c.append(mp.fsum(u))
                u_prev, u = u, [a * v - w for a, v, w in zip(atoms, u, u_prev)]
            s = _power_sums_from_chebyshev(c)
            assert len(s) == d + 1
            for j in range(d + 1):
                assert abs(s[j] - mp.fsum(a ** j for a in atoms)) < mp.mpf(10) ** -40, (d, j)


def test_trace_discrepancy_bound_values():
    tdb = trace_discrepancy_bound(2, 12, 1)
    assert abs(tdb - 24.0 / 2 ** 5.5 / 2.0) < 1e-9
    assert trace_discrepancy_bound(2, 4, 1) is None
    with pytest.raises(ValueError):
        trace_discrepancy_bound(6, 12, 1)  # not a prime power


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=8))
def test_discrepancy_bounded_by_one(xs):
    atoms = tuple(sorted(xs))
    mu = DiscreteMeasure(atoms)
    d = discrepancy(mu, semicircle_measure())
    assert 0.0 <= d <= 1.0 + 1e-12


def test_cdfs_take_arrays_equal_to_their_floats():
    from hecke_spectra.spectral import semicircle_cdf

    grid = np.linspace(-2.0, 2.0, 10 ** 4)
    for cdf in [lambda x: plancherel_cdf(p, x) for p in (2, 3, 101)] + [semicircle_cdf]:
        vals = cdf(grid)
        assert vals.shape == grid.shape
        assert vals.tolist() == [cdf(x) for x in grid.tolist()]


def test_plancherel_measure_checks_its_prime_once(monkeypatch):
    from hecke_spectra import spectral

    calls = []
    require_prime = spectral._require_prime
    def counting(p, who):
        calls.append(p)
        return require_prime(p, who)

    monkeypatch.setattr(spectral, "_require_prime", counting)
    plancherel_measure.__wrapped__(5)  # a fresh build, past the cache
    assert calls == [5]


def test_moment_lower_bound_denominator_covers_fine_grid_variation():
    # the certified denominator against 2(m+1) plus the variation on a grid
    # 100 times finer, from U_m(cos t) = sin((m+1)t)/sin(t)
    theta = np.arccos(np.linspace(-2.0, 2.0, 2_000_001)[1:-1] / 2.0)
    for m in (14, 40, 200):
        u = np.concatenate([[(-1) ** m * (m + 1.0)], np.sin((m + 1) * theta) / np.sin(theta), [m + 1.0]])
        fine_tv = float(np.sum(np.abs(np.diff(u))))
        denominator = 1.0 / discrepancy_lower_bound_moments([0.0] * (m - 1) + [1.0], m)
        assert denominator >= 2.0 * (m + 1) + fine_tv, m
