"""Acceptance suite: end-to-end checks of the closed forms against golden
values, independent oracles, and the documented CLI contract.

Each test prints a one-line `criterion-N <name>: ... PASS|FAIL` summary
before asserting, so a verbose run doubles as an acceptance report.
"""
import math
import random

import numpy as np
import pytest

from laplace_multipole.cli import main as cli_main
from laplace_multipole.core import (
    ReducedIndex,
    SphereGeometry,
    fourier_matrix_element,
    g_reduced,
    g_tilde,
    matrix_element,
    matrix_element_zaxis,
    mu_coefficient,
    overlap_polynomial,
    triple_bessel_nonoverlap,
)
from laplace_multipole.oracles import (
    QuadratureSpec,
    defining_integral_quadrature,
    hankel_forward,
    hankel_triple_bessel,
)
from laplace_multipole.specfun import EulerAngles, MultipoleIndex, wigner_D


def _report(criterion, name, err, tol):
    ok = err <= tol
    print(f"criterion-{criterion} {name}: max-err={err:.3e} tol={tol:.1e} "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion-{criterion} {name}: {err:.3e} > {tol:.1e}"


# ---------------------------------------------------------------------------
# 1. golden polynomials
# ---------------------------------------------------------------------------

def test_criterion_1_golden_polynomials():
    worst = 0.0
    for a in (1.0, 2.5):
        for i in range(50):
            R = 2 * a * i / 49.0
            want = -((R - 2 * a) ** 2) * (4 * a + R) / (16 * math.sqrt(3))
            got = g_reduced(ReducedIndex(1, 1, 0), R, a).value
            worst = max(worst, abs(got - want) / max(abs(want), 1e-2))
            want = -7 * (R ** 3 - 4 * a * a * R) ** 2 / (256 * math.sqrt(3))
            got = g_reduced(ReducedIndex(2, 3, 3), R, a).value
            worst = max(worst, abs(got - want) / max(abs(want), 1e-2))
    _report(1, "golden-polynomials", worst, 1e-10)


# ---------------------------------------------------------------------------
# 2. pole cancellation across the admissible index range
# ---------------------------------------------------------------------------

def test_criterion_2_pole_cancellation():
    worst = 0.0
    for idx in ReducedIndex.admissible(6):
        worst = max(worst, overlap_polynomial(idx, 1.0).residue)
    _report(2, "pole-cancellation", worst, 1e-8)


# ---------------------------------------------------------------------------
# 3. Hankel-transform oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_3_hankel_oracle_equivalence():
    spec = QuadratureSpec()
    a = 1.0
    worst = 0.0
    for idx in ReducedIndex.admissible(4):
        scale = mu_coefficient(idx) * a ** (idx.l + idx.lp + 2)
        for ratio in (0.3, 1.0, 1.7, 2.5, 6.0):
            R = ratio * a
            closed = g_reduced(idx, R, a).value
            oracle = scale * hankel_triple_bessel(idx, R, a, spec)
            worst = max(worst,
                        abs(closed - oracle) / max(abs(closed), 1e-8))
    _report(3, "hankel-oracle", worst, 1e-6)


# ---------------------------------------------------------------------------
# 4. defining-integral oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_4_defining_integral_equivalence():
    spec = QuadratureSpec()
    a = 1.0
    worst = 0.0
    for l in range(3):
        for lp in range(3):
            for m in range(-min(l, lp), min(l, lp) + 1):
                for ratio in (1.0, 1.9, 3.0):
                    geom = SphereGeometry(ratio * a, 0.0, 0.0, a)
                    closed = matrix_element(MultipoleIndex(l, m),
                                            MultipoleIndex(lp, m), geom)
                    oracle = defining_integral_quadrature(
                        MultipoleIndex(l, m), MultipoleIndex(lp, m),
                        geom, spec)
                    worst = max(worst,
                                abs(closed - oracle) / max(abs(closed), 1e-4))
    _report(4, "defining-integral-oracle", worst, 1e-4)


# ---------------------------------------------------------------------------
# 5. regime consistency
# ---------------------------------------------------------------------------

def test_criterion_5_regime_consistency():
    a = 1.0
    worst = 0.0
    # two-sided continuity at contact: overlap polynomial extrapolated to
    # R = 2a against the non-overlap power law
    for idx in ReducedIndex.admissible(3):
        poly = overlap_polynomial(idx, a)
        inner = poly.evaluate(2 * a)
        outer = g_reduced(idx, 2 * a, a).value
        # channels with j != l+l' vanish identically outside contact, so
        # measure those against the size of the polynomial itself
        size = max(abs(c) for c in poly.coefficients) * poly.scale
        worst = max(worst, abs(inner - outer) / max(abs(outer), size, 1e-10))
    # exact zeros: j != l + l' outside contact, odd parity everywhere
    for (idx, R) in [(ReducedIndex(1, 1, 0), 3.0), (ReducedIndex(2, 2, 2), 2.5),
                     (ReducedIndex(1, 3, 2), 6.0)]:
        assert g_reduced(idx, R, a).value == 0.0
        assert triple_bessel_nonoverlap(idx, R, a) == 0.0
    for (l, lp, j) in [(1, 1, 1), (2, 2, 1), (1, 2, 2)]:
        for R in (0.5, 1.0, 2.0, 4.0):
            assert g_reduced(ReducedIndex(l, lp, j), R, a).value == 0.0
    _report(5, "regime-consistency", worst, 1e-8)


# ---------------------------------------------------------------------------
# 6. rotation covariance
# ---------------------------------------------------------------------------

def test_criterion_6_rotation_covariance():
    rng = random.Random(2024)
    a = 1.0
    worst = 0.0
    for _ in range(20):
        alpha = rng.uniform(0.0, 2 * math.pi)
        beta = rng.uniform(0.05, math.pi - 0.05)
        gamma = rng.uniform(0.0, 2 * math.pi)
        ang = EulerAngles(alpha, beta, gamma)
        for ratio in (1.2, 3.0):
            R = ratio * a
            geom = SphereGeometry(R, beta, alpha, a)
            for l in range(4):
                for lp in range(4):
                    base = {m1: matrix_element_zaxis(
                        MultipoleIndex(l, m1), MultipoleIndex(lp, m1), R, a)
                        for m1 in range(-min(l, lp), min(l, lp) + 1)}
                    for m in range(-l, l + 1):
                        for mp in range(-lp, lp + 1):
                            got = matrix_element(MultipoleIndex(l, m),
                                                 MultipoleIndex(lp, mp), geom)
                            ref = sum(
                                wigner_D(l, m, m1, ang)
                                * wigner_D(lp, mp, m1, ang).conjugate() * b
                                for m1, b in base.items())
                            worst = max(worst, abs(got - ref))
    _report(6, "rotation-covariance", worst, 1e-10)


# ---------------------------------------------------------------------------
# 7. Fourier consistency
# ---------------------------------------------------------------------------

def test_criterion_7_fourier_consistency():
    spec = QuadratureSpec()
    a = 1.0
    worst = 0.0
    for (l, lp, j) in [(1, 1, 2), (2, 2, 4), (1, 2, 3)]:
        idx = ReducedIndex(l, lp, j)
        for ka in (0.4, 0.7, 1.5):
            k = ka / a
            fw = hankel_forward(idx, k, a,
                                lambda R, i=idx: g_reduced(i, R, a).value,
                                spec)
            ref = g_tilde(idx, k, a)
            worst = max(worst, abs(fw - ref) / abs(ref))
    # m-diagonality along the z axis is exact: the harmonics of the wave
    # direction vanish identically for m != 0
    kvec = (0.0, 0.0, 0.9)
    for (l, m, lp, mp) in [(1, 1, 1, 0), (2, -1, 2, 1), (1, 0, 2, 2)]:
        assert fourier_matrix_element(MultipoleIndex(l, m),
                                      MultipoleIndex(lp, mp), kvec, a) == 0.0
    _report(7, "fourier-consistency", worst, 1e-6)


# ---------------------------------------------------------------------------
# 8. polynomial degree in the overlap regime
# ---------------------------------------------------------------------------

def test_criterion_8_overlap_degree():
    bad = []
    for idx in ReducedIndex.admissible(4):
        poly = overlap_polynomial(idx, 1.0)
        if poly.degree != idx.l + idx.lp + 1 or poly.coefficients[-1] == 0:
            bad.append((idx.l, idx.lp, idx.j, poly.degree))
    ok = not bad
    print(f"criterion-8 overlap-degree: mismatches={bad or 'none'} "
          f"{'PASS' if ok else 'FAIL'}")
    assert ok, f"degree mismatches: {bad}"


# ---------------------------------------------------------------------------
# 9. CLI determinism and exit codes
# ---------------------------------------------------------------------------

def test_criterion_9_cli_determinism(tmp_path, capsys):
    table = ["table", "--lmax", "1", "--R-start", "0.4", "--R-stop", "3.0",
             "--R-count", "4", "--radius", "1", "--out"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(table + [str(p1)]) == 0
    assert cli_main(table + [str(p2)]) == 0
    capsys.readouterr()
    tables_equal = p1.read_bytes() == p2.read_bytes()

    verify = ["verify", "--lmax", "0", "--seed", "11"]
    assert cli_main(verify) == 0
    out1 = capsys.readouterr().out
    assert cli_main(verify) == 0
    out2 = capsys.readouterr().out
    verify_equal = out1 == out2

    codes_ok = (
        cli_main(["reduced", "--l", "1", "--lp", "1", "--j", "5",
                  "--R", "1", "--radius", "1"]) == 2
        and cli_main(["fourier", "--l", "0", "--m", "0", "--lp", "0",
                      "--mp", "0", "--k", "0,0,0", "--radius", "1"]) == 2
        and cli_main(["table", "--lmax", "0", "--R-start", "1",
                      "--R-stop", "2", "--R-count", "2", "--radius", "1",
                      "--out", "/nonexistent-dir/x.csv"]) == 1
    )
    capsys.readouterr()
    ok = tables_equal and verify_equal and codes_ok
    with capsys.disabled():
        print(f"criterion-9 cli-determinism: table-identical={tables_equal} "
              f"verify-identical={verify_equal} exit-codes={codes_ok} "
              f"{'PASS' if ok else 'FAIL'}")
    assert ok


# ---------------------------------------------------------------------------
# 10. two conducting spheres
# ---------------------------------------------------------------------------

def _kelvin_capacitance(ratio, terms=200_000):
    """Capacitance of two unit spheres at potential 1, centres ratio apart,
    in units of 4 pi eps0 a, by Kelvin's image series: an image charge q at
    x from one centre gives -q/(ratio - x) at 1/(ratio - x) in the other."""
    q, x, total = 1.0, 0.0, 0.0
    for _ in range(terms):
        total += q
        q, x = -q / (ratio - x), 1.0 / (ratio - x)
    return 2 * total


def test_criterion_10_two_sphere_capacitance():
    # Galerkin system for the surface charge Y_lm coefficients c (sphere at
    # the origin) and d (sphere at R e_z) at unit potential; entries divided
    # by a^(l+l'), so the self blocks are G(0) / a^(l+l') = a / (2l+1)
    a, lmax = 2.5, 8
    idx = [MultipoleIndex(l, m) for l in range(lmax + 1)
           for m in range(-l, l + 1)]

    def block(R, theta):
        geom = SphereGeometry(R, theta, 0.0, a)
        return np.array([[matrix_element(p, q, geom) / a ** (p.l + q.l)
                          for q in idx] for p in idx])

    self_block = block(0.0, 0.0)
    want = np.diag([a / (2 * p.l + 1) for p in idx])
    assert np.max(np.abs(self_block - want)) <= 1e-14 * a
    n = len(idx)
    rhs = np.zeros(2 * n)
    rhs[0] = rhs[n] = math.sqrt(4 * math.pi)
    # measured relative errors at lmax 8: 0, 2.7e-11, 1.8e-7 and 9.9e-7
    for ratio, tol in ((6.0, 1e-14), (3.0, 3e-10), (2.2, 2e-6), (2.0, 1e-5)):
        R = ratio * a
        system = np.block([[self_block, block(R, 0.0)],
                           [block(R, math.pi), self_block]])
        c = np.linalg.solve(system, rhs)
        got = (a * a * math.sqrt(4 * math.pi) * (c[0] + c[n])
               / (4 * math.pi * a))
        want = 2 * math.log(2) if ratio == 2.0 else _kelvin_capacitance(ratio)
        assert abs(got.imag) <= 1e-14 * abs(want)
        _report(10, f"two-sphere-capacitance R={ratio:g}a",
                abs(got.real - want) / want, tol)
