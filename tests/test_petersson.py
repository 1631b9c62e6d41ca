import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import jv

from hecke_spectra import petersson
from hecke_spectra.kloosterman import kloosterman_sum_fast
from hecke_spectra.oracles import delta_tau, level_one_eigenform
from hecke_spectra.petersson import (
    delta_full,
    delta_new,
    maint_main_terms,
    maint_residual,
    orbital_integral_A,
    petersson_cells,
    window_n,
)


def test_rank_one_tau_ratios():
    # dim S_12(1) = 1, so Delta(m,n) is a rank-one product of tau values
    tau = delta_tau(30)
    base = delta_full(12, 1, 1, 1)
    for n in range(2, 21):
        r = delta_full(12, 1, 1, n)
        want = tau.a(n) / n ** 5.5
        assert abs(r.value / base.value - want) < 1e-9, n


def test_rank_one_other_weights():
    for k in (16, 18, 20, 22, 26):
        f = level_one_eigenform(k, 10)
        base = delta_full(k, 1, 1, 1)
        for n in (2, 3, 5, 7):
            r = delta_full(k, 1, 1, n)
            want = f.a(n) / n ** ((k - 1) / 2.0)
            assert abs(r.value / base.value - want) < 1e-9


def test_empty_space_vanishing():
    cells = [(k, 1, 1, n) for k in (4, 6, 8, 10, 14) for n in (1, 2, 7, 13, 20)]
    for (k, _, _, n), r in zip(cells, petersson_cells("full", cells)):
        assert abs(r.value) <= r.truncation_bound + 1e-8, (k, n)


def test_off_diagonal_symmetry():
    for (m, n) in [(2, 3), (1, 6), (4, 5)]:
        a = delta_full(12, 1, m, n)
        b = delta_full(12, 1, n, m)
        assert abs(a.value - b.value) < 1e-9


def test_truncation_consistency():
    # doubling c_max must not move the value beyond the claimed tail
    from hecke_spectra.special_functions import bessel_j
    from hecke_spectra.kloosterman import kloosterman_sum_fast

    k, N, m, n = 12, 1, 1, 2
    r = delta_full(k, N, m, n)
    x0 = 4.0 * math.pi * math.sqrt(m * n)
    extra = sum(
        kloosterman_sum_fast(m, n, c) / c * bessel_j(k - 1, x0 / c).value
        for c in range(r.c_max + 1, 2 * r.c_max + 1)
    )
    assert 2.0 * math.pi * abs(extra) <= r.truncation_bound + 1e-12


def test_truncation_consistency_at_large_nu():
    # the l = 2401 task of the window cell (296, 7, 1, 575) as a full-level
    # cell: Kapteyn's bound stops its walk before c = 3881, where the series
    # head stopped it, and the terms in between lie within the certified tail
    k, N, m, n = 296, 1, 7 ** 8, 575
    r = delta_full(k, N, m, n)
    assert r.c_max < 3881
    cs = np.arange(r.c_max + 1, 3882)
    x0 = 4.0 * math.pi * math.sqrt(m * n)
    extra = np.sum(kloosterman_sum_fast(m, n, cs) / cs * petersson.jv(k - 1, x0 / cs))
    assert 2.0 * math.pi * abs(extra) <= r.truncation_bound


def test_kapteyn_bound_against_scipy():
    # |J_nu(nu z / r)| <= exp(nu phi(z)) r^(-nu s) for r >= 1; r = 1 is
    # Kapteyn's inequality itself, r > 1 the decay that _exp_tail sums over c
    z = np.concatenate([np.linspace(0.002, 1.0, 500), 1.0 - np.logspace(-12, -1, 45)])
    excess = []  # log |J| - log bound wherever J does not underflow
    for nu in (1, 3, 11, 101, 303, 999, 3999):
        log_bound, decay = np.array([petersson._kapteyn(nu, zi) for zi in z]).T
        for r in (1.0, 1.001, 1.01, 1.1, 1.5, 3.0):
            j = np.abs(jv(nu, nu * z / r))
            seen = j > 0.0
            excess.append(np.log(j[seen]) - (log_bound - decay * math.log(r))[seen])
    assert np.max(np.concatenate(excess)) < 0.0


def test_shared_walk_matches_one_call_per_cell():
    # one c-walk over many cells must give each cell exactly what its own
    # walk gives: same terms, same c order, same certificates
    for kind, fn, cells in [
        ("full", delta_full, [(k, 1, 1, n) for k in (4, 12) for n in (1, 2, 5)]),
        # (m, n) repeats across k, so cells share each S(m, n; c)
        ("full", delta_full, [(k, 1, 1, n) for k in (4, 8, 12) for n in (1, 2)]),
        ("new", delta_new, [(k, 7, 1, n) for k in (48, 64) for n in (1, 2)]),
    ]:
        # dataclass equality: value, truncation_bound, c_max and l_max exactly
        assert petersson_cells(kind, cells) == [fn(*cell) for cell in cells], kind


def test_walk_evaluates_each_kloosterman_sum_once(monkeypatch):
    calls, passes = [], []

    def counting(m, n, c):
        passes.append(len({*zip(m.tolist(), n.tolist())}))
        calls.extend(zip(m.tolist(), n.tolist(), c.tolist()))
        return kloosterman_sum_fast(m, n, c)

    monkeypatch.setattr(petersson, "kloosterman_sum_fast", counting)
    cells = [(k, N, 1, n) for k in (4, 8, 12) for N in (1, 3) for n in (1, 2)]
    results = petersson_cells("full", cells)
    # each full-level cell sums S(m, n; c) over c = 0 mod N up to its c_max
    wanted = {(m, n, c) for (_, N, m, n), r in zip(cells, results) for c in range(N, r.c_max + 1, N)}
    assert len(calls) == len(wanted) and set(calls) == wanted
    # one block of c, so one call for both pairs (1, 1) and (1, 2)
    assert max(r.c_max for r in results) <= petersson._C_BLOCK and passes == [2]


def _per_c_walk(tasks):
    """The walk one c at a time, with scalar Kloosterman and Bessel calls:
    each task adds S(m_eff, n; c)/c J_nu(x0/c) to its acc in increasing c."""
    for t in tasks:
        t.x0 = 4.0 * math.pi * math.sqrt(t.m_eff * t.n)
        target = 1e-12 / max(abs(t.weight), 1e-6)
        t.c_stop, t.tail = petersson._c_stop(t.nu, t.x0, t.step, math.gcd(t.m_eff, t.n), target)
    for c in range(1, max(t.c_stop for t in tasks) + 1):
        for t in tasks:
            if c % t.step == 0 and c <= t.c_stop:
                t.acc += kloosterman_sum_fast(t.m_eff, t.n, c) / c * float(petersson.jv(t.nu, t.x0 / c))


def test_walk_matches_a_walk_one_c_at_a_time(monkeypatch):
    # every task's terms come out of the batched walk as the same floats,
    # added in the same order: steps N = 1, 2, 3, 6, repeated (m, n), and
    # the walk cut into blocks of c
    monkeypatch.setattr(petersson, "_L_MAX", 100)
    runs = [("new", [(24, 6, 1, 5), (12, 6, 1, 7)]),
            ("full", [(12, 3, 1, 2), (16, 3, 1, 2), (12, 1, 1, 2)])]
    batched = [petersson_cells(kind, cells) for kind, cells in runs]
    # blocks of 500 c (c_max is 4526): tasks whose c_stop ends inside a block, or before it
    monkeypatch.setattr(petersson, "_C_BLOCK", 500)
    assert [petersson_cells(kind, cells) for kind, cells in runs] == batched
    monkeypatch.setattr(petersson, "_run_c_sums", _per_c_walk)
    assert [petersson_cells(kind, cells) for kind, cells in runs] == batched


def test_petersson_cells_rejects_unknown_kind():
    with pytest.raises(ValueError):
        petersson_cells("newform", [(12, 1, 1, 1)])


def test_delta_new_level_one_reduces_to_full():
    for n in (1, 2, 5):
        a = delta_new(12, 1, 1, n)
        b = delta_full(12, 1, 1, n)
        assert abs(a.value - b.value) < 1e-10


def test_delta_new_symmetric_in_m_n():
    a, b = petersson_cells("new", [(12, 5, 2, 3), (12, 5, 3, 2)])
    assert abs(a.value - b.value) < 1e-9


# (k, N, m, n) -> (repr(value), c_max, l_max): a guard on the value tasks
_PINNED = {
    (12, 5, 2, 3): ("0.16224241704923253", 13835, 3125),
    (12, 7, 1, 2): ("0.19124645042252325", 6905, 2401),
    (304, 7, 1, 606): ("-0.08762731172975037", 2981, 2401),
}


@pytest.fixture(scope="module")
def newform_cells():
    """delta_new at the pinned cells and (300, 7, 1, window_n), from one walk."""
    cells = [*_PINNED, (300, 7, 1, window_n(300, 7))]
    return dict(zip(cells, petersson_cells("new", cells)))


def test_delta_new_pinned_values(newform_cells):
    for cell, want in _PINNED.items():
        r = newform_cells[cell]
        assert (repr(r.value), r.c_max, r.l_max) == want, cell


def test_delta_new_bound_finite_and_small(newform_cells):
    # the Deligne l-tail keeps the certificate below the values it certifies
    cells = [(48, 5, 1, 2), (48, 7, 1, 1), (48, 7, 1, 2)]
    for r in [*petersson_cells("new", cells), *newform_cells.values()]:
        assert math.isfinite(r.truncation_bound) and r.truncation_bound < 0.05, r
    assert newform_cells[304, 7, 1, 606].truncation_bound <= 1e-3


def test_delta_new_bound_covers_a_shorter_l_sum(monkeypatch, newform_cells):
    # cutting the l-sum at 10^3 moves the value by less than the bound claims
    cells = [(12, 5, 2, 3), (12, 7, 1, 2), (300, 7, 1, window_n(300, 7))]
    monkeypatch.setattr(petersson, "_L_MAX", 10 ** 3)
    for cell, cut in zip(cells, petersson_cells("new", cells)):
        assert cut.l_max < 10 ** 3 <= newform_cells[cell].l_max
        assert cut.truncation_bound >= abs(cut.value - newform_cells[cell].value), cell


def test_l_tail_mass_matches_the_lattice_sum():
    # sum of tau(l^2)/l over 10^4 < l <= 10^30, l | L^infinity, summed directly
    for primes in [(7,), (2, 3)]:
        closed = petersson._l_tail_mass(primes, petersson._prime_lattice(primes, petersson._L_MAX))
        direct = Fraction(0)
        for l in petersson._prime_lattice(primes, 10 ** 30):
            if l > petersson._L_MAX:
                tau = 1
                for p in primes:
                    e = 0
                    while l % p ** (e + 1) == 0:
                        e += 1
                    tau *= 2 * e + 1
                direct += Fraction(tau, l)
        assert direct <= closed <= direct + Fraction(1, 10 ** 20), primes


def test_maint_residual_small_in_window():
    k, N = 500, 1
    n = round((k / (4.0 * math.pi)) ** 2)
    res = maint_residual(k, N, 1, n)
    main = maint_main_terms(k, N, 1, n)
    assert abs(res) <= max(0.5 * abs(main), 5.0 / math.sqrt(k))


def test_maint_rejects_outside_window(monkeypatch):
    def no_walk(tasks):
        raise AssertionError("c-walk started for a cell outside the window")

    monkeypatch.setattr(petersson, "_run_c_sums", no_walk)
    with pytest.raises(ValueError, match="outside the transition window"):
        maint_residual(500, 1, 1, 10)


def test_window_n_in_window_and_prime_to_level():
    for k in (48, 500, 1000):
        for N in (1, 2, 3, 5, 6, 7):
            n = window_n(k, N)
            assert math.gcd(n, N) == 1
            assert abs(4.0 * math.pi * math.sqrt(n) - k) < 2.0 * k ** (1.0 / 3.0)


def test_window_n_raises_when_window_empty():
    # no n at all lies in the window of k = 4; at k = 14 its only n is even
    for k, N in [(4, 1), (14, 2)]:
        with pytest.raises(ValueError, match="holds no n"):
            window_n(k, N)


def test_orbital_integral_matches_closed_form():
    for (t, k) in [(0.5, 12), (1.0, 24), (2.0, 12)]:
        quad, closed = orbital_integral_A(t, k)
        assert abs(quad - closed) <= 1e-6 * abs(closed)


def test_orbital_inner_integral_matches_direct_quadrature():
    # the residue formula against composite Gauss-Legendre in y over
    # [-2000, 2000] (8 points per panel, about 8 panels per wavelength)
    t, k = 1.0, 12
    nodes, wts = np.polynomial.legendre.leggauss(8)
    panels = 30000
    h = 4000.0 / panels
    y = (-2000.0 + h * (np.arange(panels)[:, None] + 0.5 + 0.5 * nodes[None, :])).ravel()
    w = np.tile(h / 2.0 * wts, panels)
    xs = np.array([-3.0, 0.0, 0.7, 5.0])
    exact = petersson._inner_integral(t, k, xs)
    for x, want in zip(xs, exact):
        a, b = t * (x + 1j), t + 1.0 / t - 1j * t * x
        direct = np.sum(w * (a * y + b) ** -k * np.exp(0.5j * k * y))
        assert abs(direct - want) <= 1e-9 * abs(want), x


def test_orbital_rule_is_leggauss_8():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(petersson._GL8_NODES, nodes)
    assert np.array_equal(petersson._GL8_WEIGHTS, weights)


def test_orbital_domain_checks():
    with pytest.raises(ValueError):
        orbital_integral_A(1.0, 13)
    with pytest.raises(ValueError):
        orbital_integral_A(0.1, 12)


def test_rejects_bad_weight():
    with pytest.raises(ValueError):
        delta_full(2, 1, 1, 1)
    with pytest.raises(ValueError):
        delta_full(11, 1, 1, 1)
