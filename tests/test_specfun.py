"""Special-function layer: exact 3-j symbols, Wigner rotations, spherical
harmonics, and spherical Bessel functions."""
import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import sph_harm_y

from laplace_multipole.specfun import (EulerAngles, MultipoleIndex,
                                       spherical_bessel_j, spherical_harmonic,
                                       wigner_3j, wigner_3j_float, wigner_D,
                                       wigner_small_d)


# ---------------------------------------------------------------------------
# index types
# ---------------------------------------------------------------------------

def test_multipole_index_invariants():
    MultipoleIndex(2, -2)
    MultipoleIndex(np.int64(2), np.int32(-1))
    with pytest.raises(ValueError):
        MultipoleIndex(-1, 0)
    with pytest.raises(ValueError):
        MultipoleIndex(1, 2)
    for l, m in [(1.5, 0.5), (1.0, 0), (True, 0), (1, False), ("1", 0)]:
        with pytest.raises(ValueError):
            MultipoleIndex(l, m)


# ---------------------------------------------------------------------------
# 3-j symbols
# ---------------------------------------------------------------------------

def test_threej_reference_values():
    v = wigner_3j(1, 1, 0, 0, 0, 0)
    assert v.sign == -1
    assert v.radicand == Fraction(1, 3)
    v = wigner_3j(1, 1, 2, 0, 0, 0)
    assert v.sign == 1
    assert v.radicand == Fraction(2, 15)
    assert wigner_3j_float(1, 1, 1, 0, 0, 0) == 0.0
    assert wigner_3j_float(0, 0, 0, 0, 0, 0) == 1.0


def test_threej_out_of_rule_returns_exact_zero():
    # rectangular sweeps rely on exact zeros rather than exceptions
    assert not wigner_3j(1, 1, 5, 0, 0, 0)
    assert not wigner_3j(2, 1, 1, 2, 0, -1)
    assert not wigner_3j(1, 1, 2, 0, 0, 1)
    assert not wigner_3j(1, 0, 1, 0, 2, -2)


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 12),
       st.integers(-6, 6), st.integers(-6, 6))
def test_threej_selection_rules(l1, l2, l3, m1, m2):
    m3 = -m1 - m2
    v = wigner_3j(l1, l2, l3, m1, m2, m3)
    if v:
        assert abs(l1 - l2) <= l3 <= l1 + l2
        assert abs(m1) <= l1 and abs(m2) <= l2 and abs(m3) <= l3
        if m1 == m2 == m3 == 0:
            assert (l1 + l2 + l3) % 2 == 0


def test_threej_orthogonality_exact():
    # sum_m (2j+1) (l l' j; m -m 0)(l l' j'; m -m 0) = delta_{j,j'},
    # carried out in exact radical arithmetic
    import sympy

    for l in range(7):
        for lp in range(7):
            for j in range(abs(l - lp), l + lp + 1):
                for j2 in range(abs(l - lp), l + lp + 1):
                    acc = sympy.Integer(0)
                    for m in range(-min(l, lp), min(l, lp) + 1):
                        a = wigner_3j(l, lp, j, m, -m, 0)
                        b = wigner_3j(l, lp, j2, m, -m, 0)
                        if a and b:
                            prod = a.radicand * b.radicand
                            acc += (a.sign * b.sign * (2 * j + 1)
                                    * sympy.sqrt(sympy.Rational(
                                        prod.numerator, prod.denominator)))
                    assert sympy.simplify(acc) == (1 if j == j2 else 0)


# ---------------------------------------------------------------------------
# Wigner rotations
# ---------------------------------------------------------------------------

def test_wigner_rejects_half_integer_orders():
    for args in [(0.5, 0.5, 1, 0.5, -0.5, 0), (1.5, 1, 0.5, 0.5, 0, -0.5)]:
        with pytest.raises(ValueError):
            wigner_3j(*args)
    for args in [(0.5, 0.5, 0.5), (1.5, 0.5, -0.5)]:
        with pytest.raises(ValueError):
            wigner_small_d(*args, 0.3)


def test_small_d_identity_and_quarter_turn():
    assert wigner_small_d(1, 0, 0, 0.0) == pytest.approx(1.0)
    assert wigner_small_d(1, 0, 0, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    assert wigner_small_d(1, 0, 0, 0.7) == pytest.approx(math.cos(0.7))


@given(st.integers(0, 4), st.floats(-6, 6, allow_nan=False))
def test_small_d_rows_normalized(l, beta):
    for m in range(-l, l + 1):
        row = sum(wigner_small_d(l, m, mp, beta) ** 2
                  for mp in range(-l, l + 1))
        assert row == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 4),
       st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False),
       st.floats(-3, 3, allow_nan=False))
def test_wigner_D_unitary(l, alpha, beta, gamma):
    ang = EulerAngles(alpha, beta, gamma)
    D = np.array([[wigner_D(l, m, mp, ang) for mp in range(-l, l + 1)]
                  for m in range(-l, l + 1)])
    assert np.allclose(D @ D.conj().T, np.eye(2 * l + 1), atol=1e-12)


def test_wigner_D_composition():
    rng = np.random.default_rng(3)
    for l in range(5):
        a1, b1, g1 = rng.uniform(0, 2, 3)
        a2, b2, g2 = rng.uniform(0, 2, 3)
        D1 = np.array([[wigner_D(l, m, mp, EulerAngles(a1, b1, g1))
                        for mp in range(-l, l + 1)] for m in range(-l, l + 1)])
        D2 = np.array([[wigner_D(l, m, mp, EulerAngles(a2, b2, g2))
                        for mp in range(-l, l + 1)] for m in range(-l, l + 1)])
        # compose the two rotations via their matrices and via the matrix of
        # the product rotation extracted from the l = 1 sector
        R1 = _rotation_matrix(a1, b1, g1)
        R2 = _rotation_matrix(a2, b2, g2)
        a3, b3, g3 = _euler_from_matrix(R1 @ R2)
        D3 = np.array([[wigner_D(l, m, mp, EulerAngles(a3, b3, g3))
                        for mp in range(-l, l + 1)] for m in range(-l, l + 1)])
        assert np.allclose(D1 @ D2, D3, atol=1e-12)


def _rotation_matrix(alpha, beta, gamma):
    def rz(t):
        return np.array([[math.cos(t), -math.sin(t), 0],
                         [math.sin(t), math.cos(t), 0], [0, 0, 1.0]])

    def ry(t):
        return np.array([[math.cos(t), 0, math.sin(t)], [0, 1.0, 0],
                         [-math.sin(t), 0, math.cos(t)]])

    return rz(alpha) @ ry(beta) @ rz(gamma)


def _euler_from_matrix(R):
    beta = math.acos(min(max(R[2, 2], -1.0), 1.0))
    if abs(math.sin(beta)) < 1e-12:
        return math.atan2(R[1, 0], R[0, 0]), beta, 0.0
    alpha = math.atan2(R[1, 2], R[0, 2])
    gamma = math.atan2(R[2, 1], -R[2, 0])
    return alpha, beta, gamma


def test_wigner_D_harmonic_link():
    # pinned convention: D^l_{m,0}(alpha, beta, 0)
    #                    = sqrt(4 pi/(2l+1)) conj(Y_lm(beta, alpha))
    rng = np.random.default_rng(11)
    for l in range(5):
        for m in range(-l, l + 1):
            beta, alpha = rng.uniform(0.1, 3.0), rng.uniform(0, 6.0)
            lhs = wigner_D(l, m, 0, EulerAngles(alpha, beta, 0.0))
            rhs = (math.sqrt(4 * math.pi / (2 * l + 1))
                   * spherical_harmonic(MultipoleIndex(l, m), beta,
                                        alpha).conjugate())
            assert lhs == pytest.approx(rhs, abs=1e-13)


def test_triple_D_angular_integral():
    # 2-D quadrature of sin(beta) D^(l1)_{00} D^(l)_{m,m1} conj(D^(l')_{m',m1'})
    # over (alpha, beta) against the 3-j product closed form
    from numpy.polynomial.legendre import leggauss
    xb, wb = leggauss(48)
    beta = 0.5 * math.pi * (xb + 1)
    wbeta = 0.5 * math.pi * wb
    nalpha = 24
    alpha = 2 * math.pi * np.arange(nalpha) / nalpha
    walpha = 2 * math.pi / nalpha
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(24):
        l1 = int(rng.integers(0, 3))
        l = int(rng.integers(0, 4))
        lp = int(rng.integers(0, 4))
        m, m1 = int(rng.integers(-l, l + 1)), int(rng.integers(-l, l + 1))
        mp = int(rng.integers(-lp, lp + 1))
        # the gamma angle is held fixed at zero, so only the m1-diagonal
        # slice of the group-average identity applies
        if abs(m1) > lp:
            continue
        cases.append((l1, l, lp, m, m1, mp, m1))
    for l1, l, lp, m, m1, mp, m1p in cases:
        total = 0.0 + 0.0j
        for b, wgt in zip(beta, wbeta):
            d1 = wigner_small_d(l1, 0, 0, b)
            d2 = wigner_small_d(l, m, m1, b)
            d3 = wigner_small_d(lp, mp, m1p, b)
            phase = np.exp(-1j * (m - mp) * alpha).sum() * walpha
            total += wgt * math.sin(b) * d1 * d2 * d3 * phase
        want = (4 * math.pi * (-1) ** ((mp - m1p) % 2)
                * wigner_3j_float(l1, l, lp, 0, m, -mp)
                * wigner_3j_float(l1, l, lp, 0, m1, -m1p))
        assert total.imag == pytest.approx(0.0, abs=1e-10)
        assert total.real == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# spherical harmonics
# ---------------------------------------------------------------------------

def test_harmonic_reference_values():
    assert spherical_harmonic(MultipoleIndex(0, 0), 0.3, 1.1) == pytest.approx(
        1 / math.sqrt(4 * math.pi))
    th, ph = 0.8, 2.2
    assert spherical_harmonic(MultipoleIndex(1, 0), th, ph) == pytest.approx(
        math.sqrt(3 / (4 * math.pi)) * math.cos(th))
    assert spherical_harmonic(MultipoleIndex(2, 0), 0.0, 0.0) == pytest.approx(
        math.sqrt(5 / (4 * math.pi)))
    # Condon-Shortley sign
    assert spherical_harmonic(MultipoleIndex(1, 1), th, ph) == pytest.approx(
        -math.sqrt(3 / (8 * math.pi)) * math.sin(th) * cmath.exp(1j * ph))


def test_harmonic_north_pole():
    for l in range(4):
        for m in range(-l, l + 1):
            v = spherical_harmonic(MultipoleIndex(l, m), 0.0, 0.7)
            want = (math.sqrt((2 * l + 1) / (4 * math.pi)) if m == 0 else 0.0)
            assert v == pytest.approx(want, abs=1e-15)


def test_harmonic_matches_scipy():
    # theta outside [0, pi] pins |sin(theta)|: with plain sin(theta) odd m
    # would change sign against scipy there
    thetas = [0.0, math.pi, -0.5, 3.5, 7.0, *np.linspace(0.05, 3.1, 12)]
    for l in range(17):
        for m in range(-l, l + 1):
            for theta in thetas:
                for phi in (0.0, 0.7, -2.3, 5.9):
                    got = spherical_harmonic(MultipoleIndex(l, m), theta, phi)
                    want = complex(sph_harm_y(l, m, theta, phi))
                    assert abs(got - want) <= 1e-13, (l, m, theta, phi)


# ---------------------------------------------------------------------------
# spherical Bessel functions
# ---------------------------------------------------------------------------

def test_bessel_reference_values():
    assert spherical_bessel_j(0, 0.0) == 1.0
    assert spherical_bessel_j(3, 0.0) == 0.0
    assert spherical_bessel_j(0, math.pi) == pytest.approx(0.0, abs=1e-14)
    with mpmath.workdps(40):
        want = float(mpmath.sqrt(mpmath.pi / 2) * mpmath.besselj(2.5, 1.0))
    assert spherical_bessel_j(2, 1.0) == pytest.approx(want, rel=1e-14)


def test_bessel_rejects_bad_input():
    for l, x in [(1.5, 1.0), (True, 1.0), (-1, 1.0), (2, -1.0),
                 (2, math.inf), (2, math.nan)]:
        with pytest.raises(ValueError):
            spherical_bessel_j(l, x)
    assert spherical_bessel_j(np.int64(2), 1.0) == spherical_bessel_j(2, 1.0)


@given(st.integers(0, 20), st.floats(0.1, 100.0, allow_nan=False))
@settings(max_examples=80)
def test_bessel_recurrence(l, x):
    lhs = spherical_bessel_j(l + 1, x) * (2 * l + 3) / x
    rhs = spherical_bessel_j(l, x) + spherical_bessel_j(l + 2, x)
    scale = max(abs(lhs), abs(rhs), 1e-280)
    assert abs(lhs - rhs) / scale < 1e-12


@pytest.mark.parametrize("l", [0, 1, 5, 12, 23, 30])
def test_bessel_against_mpmath(l):
    for x in (1e-3, 0.4, float(l) / 2 + 0.3, float(l) + 2.0, 180.0, 1e3):
        got = spherical_bessel_j(l, x)
        with mpmath.workdps(40):
            want = float(mpmath.sqrt(mpmath.pi / (2 * x))
                         * mpmath.besselj(l + mpmath.mpf(1) / 2, x))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-290)
