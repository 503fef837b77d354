"""Special-function layer: exact 3-j symbols, Wigner rotations, spherical
harmonics, and spherical Bessel functions."""
import cmath
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import sph_harm_y

import laplace_multipole
from laplace_multipole.specfun import (EulerAngles, MultipoleIndex,
                                       _legendre_factors, spherical_bessel_j,
                                       spherical_harmonic, wigner_3j,
                                       wigner_3j_float, wigner_D,
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


def test_threej_matches_sympy_exactly():
    # an independent reference: sympy's 3-j symbols, as sign and exact
    # square, for seeded random symbols up to l = 20; the float path keeps
    # the bits of the exact value's float
    import random

    import sympy
    from sympy.physics.wigner import wigner_3j as reference

    rng = random.Random(2025)
    for _ in range(400):
        l1, l2 = rng.randint(0, 20), rng.randint(0, 20)
        l3 = rng.randint(abs(l1 - l2), l1 + l2)
        m1, m2 = rng.randint(-l1, l1), rng.randint(-l2, l2)
        args = (l1, l2, l3, m1, m2, -m1 - m2)
        got, want = wigner_3j(*args), reference(*args)
        square = sympy.Rational(want ** 2)
        assert (got.sign, got.radicand) == (
            int(sympy.sign(want)), Fraction(int(square.p), int(square.q))), args
        assert wigner_3j_float(*args).hex() == got.to_float().hex(), args
        # numpy integer orders give the same values (int64 would overflow)
        orders = tuple(map(np.int64, args))
        assert (wigner_3j(*orders), wigner_3j_float(*orders)) == (
            got, wigner_3j_float(*args)), args


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
    # a warm cache entry for the integer orders does not answer for a float
    # or bool spelling of them
    assert wigner_3j(1, 1, 0, 0, 0, 0)
    for args in [(1.0, 1, 0, 0, 0, 0), (True, 1, 0, 0, 0, 0)]:
        with pytest.raises(ValueError):
            wigner_3j(*args)
    for args in [(0.5, 0.5, 0.5), (1.5, 0.5, -0.5)]:
        with pytest.raises(ValueError):
            wigner_small_d(*args, 0.3)


def test_wigner_rejects_negative_and_out_of_range_orders():
    for call in (wigner_3j, wigner_3j_float):
        with pytest.raises(ValueError, match="non-negative"):
            call(1, -1, 1, 0, 0, 0)
    for args in [(1, 2, 0), (1, 0, -2), (0, 1, 1)]:
        with pytest.raises(ValueError, match=r"\|m\|, \|mp\| <= l"):
            wigner_small_d(*args, 0.3)


_CEILING_PROBE = """
import math
from laplace_multipole.specfun import EulerAngles, wigner_D, wigner_small_d
angles = EulerAngles(0.1, 0.3, 0.2)
for l in (10**400, 1501):
    for call in (lambda: wigner_small_d(l, 1, 0, 0.3),
                 lambda: wigner_D(l, 1, 0, angles)):
        try:
            call()
        except ValueError as exc:
            assert "Wigner order l must be at most 1500" in str(exc), exc
        else:
            raise SystemExit(f"no ValueError at l = {l}")
assert math.isfinite(wigner_small_d(1500, 1, 0, 0.3))
assert math.isfinite(abs(wigner_D(1500, 1, 0, angles)))
"""


def test_wigner_order_past_its_ceiling_is_rejected_up_front():
    # past the ceiling, l = 10**400 would run the Jacobi recurrence without
    # end: the child's timeout turns such a hang into a failure
    src = os.path.dirname(os.path.dirname(laplace_multipole.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _CEILING_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr + proc.stdout


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


@pytest.mark.parametrize("l", [30, 50, 58, 100])
def test_small_d_high_order(l):
    # d^l_{m0}(beta) = sqrt(4 pi/(2l+1)) Y_lm(beta, 0) for every m; the
    # alternating sum over k loses digits from l ~ 20 and its factorials
    # overflow the float range from l = 50
    beta = 1.1
    for m in range(-l, l + 1):
        want = (math.sqrt(4 * math.pi / (2 * l + 1))
                * sph_harm_y(l, m, beta, 0.0).real)
        assert abs(wigner_small_d(l, m, 0, beta) - want) <= 1e-13, m
    for m in (-l, -l // 2, 0, 1, l):
        row = sum(wigner_small_d(l, m, mp, beta) ** 2
                  for mp in range(-l, l + 1))
        assert abs(row - 1.0) <= 1e-12, m


def test_small_d_rows_normalized_past_float_range():
    # C(2l-n, n+p) alone passes the float range from l ~ 515, and the
    # Jacobi value from l ~ 800
    for l, ms, betas in ((600, (-600, -137, 0, 411), (0.4, 2.3)),
                         (1000, (0,), (0.01,))):
        for m in ms:
            for beta in betas:
                row = math.fsum(wigner_small_d(l, m, mp, beta) ** 2
                                for mp in range(-l, l + 1))
                assert abs(row - 1.0) <= 1e-10, (l, m, beta)


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
    # would change sign against scipy there; the poles and the equator
    # (s = 0 and x = 0) up to l = 40
    thetas = [0.0, math.pi / 2, math.pi, -0.5, 3.5, 7.0,
              *np.linspace(0.05, 3.1, 12)]
    for l in range(41):
        for m in range(-l, l + 1):
            for theta in thetas if l <= 16 else thetas[:3]:
                for phi in (0.0, 0.7, -2.3, 5.9):
                    got = spherical_harmonic(MultipoleIndex(l, m), theta, phi)
                    want = complex(sph_harm_y(l, m, theta, phi))
                    assert abs(got - want) <= 1e-13, (l, m, theta, phi)


@pytest.mark.parametrize("bad", [
    math.nan, math.inf, -math.inf,
    pytest.param(-10 ** 400, id="int-past-float"),
    pytest.param(Fraction(10 ** 401, 3), id="Fraction-past-float")])
@pytest.mark.parametrize("angle, call", [
    ("theta", lambda x: spherical_harmonic(MultipoleIndex(1, 1), x, 0.0)),
    ("phi", lambda x: spherical_harmonic(MultipoleIndex(1, 0), 0.3, x)),
    ("beta", lambda x: wigner_small_d(1, 0, 0, x)),
    ("alpha", lambda x: wigner_D(1, 0, 1, EulerAngles(x, 0.1, 0.2))),
    ("beta", lambda x: wigner_D(1, 0, 1, EulerAngles(0.0, x, 0.2))),
    ("gamma", lambda x: wigner_D(1, 0, 1, EulerAngles(0.0, 0.1, x))),
], ids=["Y-theta", "Y-phi", "d-beta", "D-alpha", "D-beta", "D-gamma"])
def test_angles_must_be_finite(angle, call, bad):
    # a non-finite angle, or an int or Fraction past the float range, is a
    # ValueError naming it, not NaN, a math domain error from cos and sin or
    # float()'s OverflowError; past the float range by its type, since repr
    # can fail there
    match = (f"{angle}={bad!r}" if isinstance(bad, float)
             else f"{angle} of type {type(bad).__name__} is past the float")
    with pytest.raises(ValueError, match=re.escape(match)):
        call(bad)


def test_legendre_factors_share_one_pair_per_order_and_degree():
    # the recurrence keeps one (A_l, B_l) pair per (|m|, l): every prefix of
    # one order, either sign of m, holds the same pair objects
    short, long = _legendre_factors(3, 10)[1], _legendre_factors(-3, 40)[1]
    assert (len(short), len(long)) == (7, 37)
    assert all(a is b for a, b in zip(short, long))


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
    # True is no order, even after a call at the order 1
    spherical_bessel_j(1, 1.0)
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


@pytest.mark.parametrize("l", [0, 1, 5, 10, 12, 23, 30,
                               60, 80, 120, 200, 300, 500])
def test_bessel_against_mpmath(l):
    # the zeros x = k pi of j_0 inside the Miller range 1e-8 <= x <= l, where
    # it normalizes by j_1; and points below l/2, where an ascending series
    # would cancel for large l
    zeros = [k * math.pi for k in range(1, int(l / math.pi) + 1)]
    below = (0.3 * l, 0.45 * l, math.nextafter(l / 2, 0.0)) if l else ()
    for x in (1e-3, 0.4, float(l) / 2 + 0.3, float(l) + 2.0, 180.0, 1e3,
              *below, *zeros):
        got = spherical_bessel_j(l, x)
        with mpmath.workdps(40):
            want = float(mpmath.sqrt(mpmath.pi / (2 * x))
                         * mpmath.besselj(l + mpmath.mpf(1) / 2, x))
        assert got == pytest.approx(want, rel=1e-13, abs=1e-290)


def test_bessel_below_1e_8_is_the_leading_term():
    # x^l / (2l+1)!! to the last bit: the first correction is under half an
    # ulp there, and Miller's recurrence goes wrong below about 1e-16
    for l in (1, 5, 30, 59):
        for x in (9.99e-9, 1e-100, 1e-300, 5e-324):
            term = 1.0
            for i in range(1, l + 1):
                term *= x / (2 * i + 1)
            assert spherical_bessel_j(l, x).hex() == term.hex(), (l, x)
