import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hecke_spectra import class_numbers
from hecke_spectra.arithmetic import kronecker_chi
from hecke_spectra.class_numbers import (
    admissible_n0,
    build_r3_table,
    class_number,
    count_A,
    ensure_table,
    h_w,
    hurwitz_H,
    r3,
    r3_from_hurwitz,
)


def brute_class_number(D):
    """Count reduced positive forms (a,b,c) with b^2-4ac = D directly."""
    count = 0
    b = D % 2
    while b * b <= -D // 3:
        q = (b * b - D) // 4
        a = max(b, 1)
        while a * a <= q:
            if q % a == 0:
                c = q // a
                # primitive reduced: |b| <= a <= c, gcd 1, and b >= 0 when
                # a == c or |b| == a
                if b <= a and math.gcd(math.gcd(a, b), c) == 1:
                    count += 1
                    if 0 < b < a < c:
                        count += 1  # (a,-b,c) is a distinct reduced form
            a += 1
        b += 2
    return count


def test_class_number_brute_force():
    for D in range(-3, -600, -1):
        if D % 4 not in (0, 1):
            continue
        assert class_number(D).h == brute_class_number(D), D


def test_known_class_numbers():
    known = {-3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3,
             -47: 5, -71: 7, -84: 4, -95: 8, -163: 1, -427: 2}
    for D, h in known.items():
        assert class_number(D).h == h


def test_h_w_unit_corrections():
    assert h_w(-3) == Fraction(1, 3)
    assert h_w(-4) == Fraction(1, 2)
    assert h_w(-7) == 1
    assert h_w(-12) == 1  # h(-12) = 1, trivial units


def test_hurwitz_small_values():
    assert hurwitz_H(3) == Fraction(1, 3)
    assert hurwitz_H(4) == Fraction(1, 2)
    assert hurwitz_H(7) == 1
    assert hurwitz_H(8) == 1
    assert hurwitz_H(11) == 1
    assert hurwitz_H(12) == Fraction(4, 3)
    assert hurwitz_H(16) == Fraction(3, 2)
    assert hurwitz_H(23) == 3


def test_hurwitz_rejects_non_discriminant():
    with pytest.raises(ValueError):
        hurwitz_H(5)


def brute_r3(n):
    m = math.isqrt(n)
    return sum(
        1
        for x in range(-m, m + 1)
        for y in range(-m, m + 1)
        for z in range(-m, m + 1)
        if x * x + y * y + z * z == n
    )


def test_r3_brute_force():
    for n in range(0, 150):
        assert r3(n) == brute_r3(n)


def test_gauss_identity():
    # r3(n) expressed through Hurwitz class numbers, exact integers
    for n in range(1, 2000):
        assert r3(n) == r3_from_hurwitz(n)


@pytest.mark.parametrize("limit", [0, 1, 3, 150])
def test_r3_table_brute_force(limit):
    table = build_r3_table(limit)
    assert len(table) == limit + 1
    assert [int(v) for v in table] == [brute_r3(n) for n in range(limit + 1)]


@pytest.mark.parametrize("limit", [4132, 40132])
def test_r3_table_gauss_sample(limit):
    table = build_r3_table(limit)
    assert len(table) == limit + 1
    ensure_table(4 * limit)  # class numbers for r3_from_hurwitz by lookup
    for n in np.unique(np.linspace(1, limit, 300).astype(int)):
        assert int(table[n]) == r3_from_hurwitz(int(n)), n


def _counting_r3_builds(monkeypatch):
    """Start from no r3 table and record the limit of every build."""
    builds = []

    def counting_build(limit):
        builds.append(limit)
        return build_r3_table(limit)

    monkeypatch.setattr(class_numbers, "_r3_table", None)
    monkeypatch.setattr(class_numbers, "build_r3_table", counting_build)
    return builds


def test_r3_table_grows_geometrically(monkeypatch):
    builds = _counting_r3_builds(monkeypatch)
    for n in range(1, 2001, 2):
        count_A(2, n, 1)
    # limits 4096 and 8192 cover every 4n <= 8000
    assert builds == [4096, 8192]


def test_r3_cold_start_reads_its_table(monkeypatch):
    builds = _counting_r3_builds(monkeypatch)
    assert r3(5001) == brute_r3(5001)
    assert builds == [8192]


def test_class_number_cold_start_reads_its_table(monkeypatch):
    monkeypatch.setattr(class_numbers, "_h_table", None)
    assert class_number(-4003).h == brute_class_number(-4003)
    assert len(class_numbers._h_table) == 4097


def test_r3_refuses_past_its_table_range(monkeypatch):
    builds = _counting_r3_builds(monkeypatch)
    with pytest.raises(ValueError, match="r3 table range"):
        r3(class_numbers.MAX_R3_N + 1)
    assert builds == [] and class_numbers._r3_table is None


def _modules_after(code, packages=("scipy",)):
    """The modules of the given packages in sys.modules after running code in
    a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    dotted = tuple(p + "." for p in packages)
    code += f"print(sorted(m for m in sys.modules if m in {packages!r} or m.startswith({dotted!r})))\n"
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout.strip()


def test_trace_layer_imports_no_scipy():
    assert _modules_after(
        "import hecke_spectra.harness, hecke_spectra.eichler_selberg, hecke_spectra.class_numbers\n"
        "import hecke_spectra.spectral\n"
    ) == "[]"


def test_package_and_petersson_walk_load_no_scipy():
    # every module of the package, a full-level and a newform c-walk, and
    # the orbital quadrature; nor numpy.ma, which np.unique imports on its
    # first call (numpy 2.4), nor numpy.polynomial, which leggauss needs
    assert _modules_after(
        "import importlib, pkgutil, hecke_spectra\n"
        "for mod in pkgutil.iter_modules(hecke_spectra.__path__):\n"
        "    importlib.import_module('hecke_spectra.' + mod.name)\n"
        "from hecke_spectra.petersson import delta_full, delta_new, orbital_integral_A\n"
        "delta_full(12, 1, 1, 2)\n"
        "delta_new(24, 7, 1, 2)\n"
        "orbital_integral_A(1.0, 12)\n",
        ("scipy", "numpy.ma", "numpy.polynomial"),
    ) == "[]"


def test_hecke_matrix_route_loads_no_mpmath():
    # only the Newton route (N > 1, or dimension 1) needs mpmath
    assert _modules_after(
        "import importlib, pkgutil, hecke_spectra\n"
        "for mod in pkgutil.iter_modules(hecke_spectra.__path__):\n"
        "    importlib.import_module('hecke_spectra.' + mod.name)\n"
        "from hecke_spectra.spectral import empirical_mu_star\n"
        "empirical_mu_star(24, 1, 2)\n",
        ("mpmath",),
    ) == "[]"


def brute_count_A(N, n, n0):
    total = 0
    m = math.isqrt(4 * n)
    for t in range(-m, m + 1):
        if (t - n0) % (2 * N):
            continue
        total += brute_r3(4 * n - t * t)
    return total


def test_count_A_brute_force():
    for (N, n) in [(2, 15), (3, 25), (5, 9), (6, 35)]:
        n0 = admissible_n0(N, n)
        if n0 is None:
            continue
        assert count_A(N, n, n0) == brute_count_A(N, n, n0)


def test_admissible_n0_properties():
    for (N, n) in [(2, 15), (3, 7), (5, 11), (6, 25), (15, 7)]:
        n0 = admissible_n0(N, n)
        if n0 is not None:
            assert n0 % 2 == 1 and 0 < n0 < 2 * N


@pytest.mark.parametrize("limit", [1000, 4097])
def test_form_table_brute_force(limit):
    # every entry, D = -limit included; 0 where -m is not a discriminant
    table = class_numbers.build_form_table(limit)
    assert table.dtype == np.int64 and len(table) == limit + 1
    want = [brute_class_number(-m) if m % 4 in (0, 3) else 0 for m in range(limit + 1)]
    assert table.tolist() == want


@pytest.mark.parametrize("D", [-65535, -65528, -65524, -49999, -40004, -32771])
def test_form_table_dirichlet_class_number_formula(D):
    # fundamental D < -4: h(D) = -(1/|D|) sum_{r=1}^{|D|} chi_D(r) r, checked
    # exactly in integers at the size of table that spectral-window builds
    table = class_numbers.build_form_table(1 << 16)
    chi_sum = sum(kronecker_chi(D, r) * r for r in range(1, -D + 1))
    assert -chi_sum == int(table[-D]) * -D
