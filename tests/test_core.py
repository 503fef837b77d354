"""Tests for the reduced-element closed forms and the canonical elements."""
import cmath
import dataclasses
import itertools
import math
import pickle
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import sph_harm_y, spherical_jn

from laplace_multipole import core
from laplace_multipole.core import (
    ReducedIndex,
    SphereGeometry,
    _overlap_assembly,
    fourier_matrix_element,
    g_reduced,
    g_tilde,
    matrix_element,
    matrix_element_zaxis,
    mu_coefficient,
    omega_hat,
    overlap_polynomial,
    regime_of,
    triple_bessel_nonoverlap,
    triple_bessel_overlap,
)
from laplace_multipole.errors import (
    PoleResidueError,
    RegimeError,
    ZeroWaveVector,
)
from laplace_multipole.specfun import (EulerAngles, MultipoleIndex,
                                       _legendre_value, spherical_bessel_j,
                                       spherical_harmonic, wigner_3j_float,
                                       wigner_D, wigner_small_d)


# ---------------------------------------------------------------------------
# index and geometry dataclasses
# ---------------------------------------------------------------------------

def test_reduced_index_triangle_rule():
    ReducedIndex(2, 3, 5)
    with pytest.raises(ValueError):
        ReducedIndex(1, 1, 3)
    with pytest.raises(ValueError):
        ReducedIndex(-1, 0, 1)


def test_parity_even_property():
    assert ReducedIndex(1, 1, 2).parity_even
    assert not ReducedIndex(1, 1, 1).parity_even


def test_admissible_indices_and_degree():
    for lmax in range(9):
        want = []
        for l in range(lmax + 1):
            for lp in range(lmax + 1):
                for j in range(abs(l - lp), l + lp + 1):
                    if (l + lp + j) % 2 == 0:
                        want.append(ReducedIndex(l, lp, j))
        assert ReducedIndex.admissible(lmax) == want
    assert len(ReducedIndex.admissible(8)) == 285
    with pytest.raises(ValueError):
        ReducedIndex.admissible(-1)
    assert ReducedIndex(2, 3, 1).degree == 6
    assert ReducedIndex(0, 0, 0).degree == 1


def test_geometry_from_vector():
    g = SphereGeometry.from_vector((0.0, 0.0, 3.0), a=1.0)
    assert g.R == pytest.approx(3.0)
    assert g.theta == pytest.approx(0.0)
    g = SphereGeometry.from_vector((1.0, 1.0, 0.0), a=0.5)
    assert g.R == pytest.approx(math.sqrt(2))
    assert g.theta == pytest.approx(math.pi / 2)
    assert g.phi == pytest.approx(math.pi / 4)
    # the norm neither underflows nor overflows
    g = SphereGeometry.from_vector((1e-200, 0.0, 1e-200), a=1.0)
    assert g.R == pytest.approx(math.sqrt(2) * 1e-200, rel=1e-15)
    assert g.theta == pytest.approx(math.pi / 4)
    g = SphereGeometry.from_vector((1e200,) * 3, a=1.0)
    assert g.R == pytest.approx(math.sqrt(3) * 1e200, rel=1e-15)
    assert g.theta == pytest.approx(math.acos(1 / math.sqrt(3)))


# ---------------------------------------------------------------------------
# mu prefactor
# ---------------------------------------------------------------------------

def test_mu_reference_values():
    assert mu_coefficient(ReducedIndex(0, 0, 0)) == pytest.approx(2 / math.pi)
    assert mu_coefficient(ReducedIndex(1, 1, 0)) == pytest.approx(
        -2 * math.sqrt(3) / math.pi)
    assert mu_coefficient(ReducedIndex(1, 1, 2)) == pytest.approx(
        -2 * math.sqrt(30) / math.pi)


def test_mu_vanishes_for_odd_parity():
    assert mu_coefficient(ReducedIndex(1, 1, 1)) == 0.0
    assert mu_coefficient(ReducedIndex(1, 2, 2)) == 0.0


# ---------------------------------------------------------------------------
# non-overlap regime
# ---------------------------------------------------------------------------

def test_nonoverlap_reference_point():
    # j = l = l' = 0, R = 3a: integral is pi/6 per unit radius
    assert triple_bessel_nonoverlap(ReducedIndex(0, 0, 0), 3.0, 1.0) == \
        pytest.approx(math.pi / 6, rel=1e-14)


def test_nonoverlap_vanishes_off_stretched_channel():
    # only j = l + l' survives at large separation
    assert triple_bessel_nonoverlap(ReducedIndex(1, 1, 0), 3.0, 1.0) == 0.0
    assert triple_bessel_nonoverlap(ReducedIndex(2, 2, 2), 5.0, 1.0) == 0.0


def test_nonoverlap_power_law():
    idx = ReducedIndex(1, 1, 2)
    g4 = g_reduced(idx, 4.0, 1.0)
    g8 = g_reduced(idx, 8.0, 1.0)
    assert g4.regime == "nonoverlap"
    # (a/R)^(l+l'+1) = R^-3 falloff
    assert g4.value / g8.value == pytest.approx(8.0, rel=1e-13)


def _power_law_mp(l, lp, R, a):
    """The power law pi^(3/2)/(8a) (a/R)^(L+1) Gamma(L+1/2) /
    (Gamma(l+3/2) Gamma(l'+3/2)), L = l+l', in 40-digit mpmath."""
    with mpmath.workdps(40):
        R, a, L = mpmath.mpf(R), mpmath.mpf(a), l + lp
        return (mpmath.pi ** 1.5 / (8 * a) * (a / R) ** (L + 1)
                * mpmath.gamma(L + mpmath.mpf(0.5))
                / (mpmath.gamma(l + mpmath.mpf(1.5))
                   * mpmath.gamma(lp + mpmath.mpf(1.5))))


@pytest.mark.parametrize("l,lp", [(0, 0), (1, 0), (2, 3), (0, 40), (85, 86),
                                  (90, 90), (300, 7), (500, 500),
                                  (1000, 1000), (0, 2000), (1999, 1)])
def test_nonoverlap_power_law_against_mpmath(l, lp):
    # Gamma(l+l'+1/2) alone leaves the float range from l+l' = 171 on; the
    # power law must not: correctly rounded up to the power of 2a/R, which
    # is exact at R = 2a, 4a and 8a
    idx, degree = ReducedIndex(l, lp, l + lp), l + lp + 1
    for a in (1.0, 0.75):
        for rho in (2.0, 4.0, 8.0, 2.5, 3.0, 6.0, 2 + 1e-9, 17.3):
            want = _power_law_mp(l, lp, rho * a, a)
            got = triple_bessel_nonoverlap(idx, rho * a, a)
            if want < 1e-300:  # below the normal floats
                assert 0.0 <= got < 1e-300, (a, rho)
                continue
            tol = 1e-15 if rho in (2.0, 4.0, 8.0) else degree * 2.3e-16
            assert abs(got - want) <= tol * want, (a, rho)
    assert triple_bessel_nonoverlap(ReducedIndex(90, 90, 180), 3.0, 1.0) == \
        pytest.approx(2.2751049502413446e-37, rel=2e-14)
    assert triple_bessel_nonoverlap(ReducedIndex(500, 500, 1000), 6.0,
                                    1.0) == 0.0  # true value 1.4e-484


def test_nonoverlap_rejects_overlap_separation():
    with pytest.raises(RegimeError):
        triple_bessel_nonoverlap(ReducedIndex(0, 0, 0), 1.0, 1.0)


def test_monopole_element_is_inverse_separation():
    # G_{00,00} = a^2 / R outside contact
    for R in (2.5, 4.0, 10.0):
        val = matrix_element_zaxis(MultipoleIndex(0, 0), MultipoleIndex(0, 0),
                                   R, 1.0)
        assert val.real == pytest.approx(1.0 / R, rel=1e-13)
        assert val.imag == 0.0


# ---------------------------------------------------------------------------
# overlap regime
# ---------------------------------------------------------------------------

def test_overlap_contact_values():
    # at zero separation only j = 0, l = l' survives:
    # g = (-1)^l a^(2l+1) / sqrt(2l+1)
    assert g_reduced(ReducedIndex(0, 0, 0), 0.0, 1.0).value == \
        pytest.approx(1.0, rel=1e-12)
    assert g_reduced(ReducedIndex(1, 1, 0), 0.0, 1.0).value == \
        pytest.approx(-1 / math.sqrt(3), rel=1e-12)
    assert g_reduced(ReducedIndex(2, 2, 0), 0.0, 2.0).value == \
        pytest.approx(2.0 ** 5 / math.sqrt(5), rel=1e-12)
    assert g_reduced(ReducedIndex(1, 1, 2), 0.0, 1.0).value == 0.0


def test_overlap_continuous_at_contact_sphere():
    # overlap polynomial extrapolated to R = 2a must meet the power law
    for l, lp, j in [(0, 0, 0), (1, 1, 2), (2, 2, 4), (1, 3, 4)]:
        idx = ReducedIndex(l, lp, j)
        poly = overlap_polynomial(idx, 1.0)
        outer = g_reduced(idx, 2.0, 1.0).value
        assert poly.evaluate(2.0) == pytest.approx(outer, rel=1e-9, abs=1e-12)


def test_overlap_matches_moderate_regime_polynomial():
    # spot check the polynomial against direct series evaluation mid-range
    idx = ReducedIndex(2, 2, 2)
    poly = overlap_polynomial(idx, 1.0)
    for R in (0.3, 0.9, 1.5, 1.9):
        assert poly.evaluate(R) == pytest.approx(
            g_reduced(idx, R, 1.0).value, rel=1e-10, abs=1e-14)


def test_overlap_scaling_in_radius():
    # g scales as a^(l+l'+1) at fixed R/a
    idx = ReducedIndex(1, 1, 2)
    v1 = g_reduced(idx, 1.0, 1.0).value
    v2 = g_reduced(idx, 2.0, 2.0).value
    assert v2 / v1 == pytest.approx(2.0 ** 3, rel=1e-11)


def test_boundary_regime_label():
    el = g_reduced(ReducedIndex(0, 0, 0), 2.0, 1.0)
    assert el.regime == "boundary"
    assert el.value == pytest.approx(0.5, rel=1e-13)


def test_overlap_branch_rejects_outside():
    with pytest.raises(RegimeError):
        triple_bessel_overlap(ReducedIndex(0, 0, 0), 3.0, 1.0)
    poly = overlap_polynomial(ReducedIndex(1, 1, 0), 1.0)
    assert poly.evaluate(2.0) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(RegimeError):
        poly.evaluate(5.0)


def test_overlap_branch_rejects_odd_parity():
    # odd l+l'+j integrals carry ln(R/a); their reduced elements vanish (mu = 0)
    with pytest.raises(ValueError):
        triple_bessel_overlap(ReducedIndex(1, 1, 1), 0.7, 1.0)
    with pytest.raises(ValueError):
        overlap_polynomial(ReducedIndex(1, 2, 2), 1.0)
    assert g_reduced(ReducedIndex(1, 1, 1), 0.7, 1.0).value == 0.0


def test_overlap_finite_up_to_contact():
    # the polynomial holds on the whole overlap range, right up to R = 2a
    a = 1.0
    worst = 0.0
    for idx in ReducedIndex.admissible(6):
        near = [g_reduced(idx, R, a) for R in (1.999 * a, 2 * a * (1 - 1e-16))]
        assert all(el.regime == "overlap" for el in near)
        assert all(math.isfinite(el.value) for el in near)
        # criterion 5's measure: the size of the polynomial itself
        poly = overlap_polynomial(idx, a)
        size = max(abs(c) for c in poly.coefficients) * poly.scale
        outer = g_reduced(idx, 2 * a, a).value
        worst = max(worst,
                    abs(near[-1].value - outer) / max(abs(outer), size, 1e-10))
    assert worst <= 1e-8
    for R in (1.999 * a, 2 * a * (1 - 1e-16)):
        want = -((R - 2 * a) ** 2) * (4 * a + R) / (16 * math.sqrt(3))
        got = g_reduced(ReducedIndex(1, 1, 0), R, a).value
        assert abs(got - want) / max(abs(want), 1e-2) <= 1e-10


def _exact_reduced(mu, numerators, denominator, rho):
    """g_reduced at a = 1 from the exact build (N_p, Q), mu pi N(rho) / Q,
    with the polynomial summed in rationals at the float rho."""
    acc, r = Fraction(0), Fraction(rho)
    for x in reversed(numerators):
        acc = acc * r + x
    return mu * math.pi * float(acc / denominator)


def test_reduced_elements_match_exact_rationals_up_to_contact():
    # j < l+l' polynomials have a double zero at rho = 2, which Horner in
    # powers of rho loses to cancellation; relative error stays small there.
    # g_reduced and mu times the triple-Bessel integral are both checked,
    # below contact and on the power law from contact on
    grid = [2 * i / 200 for i in range(200)]
    beyond = [2.0, 2 * (1 + 1e-12)] + [2 + 8 * i / 40 for i in range(1, 41)]
    for idx in ReducedIndex.admissible(6):
        mu = mu_coefficient(idx)
        numerators, denominator = _overlap_assembly(idx.l, idx.lp, idx.j)

        def inside(rho):
            return (g_reduced(idx, rho, 1.0).value,
                    mu * triple_bessel_overlap(idx, rho, 1.0))

        if idx.j < idx.l + idx.lp:
            for k in range(3, 17):
                rho = 2 * (1 - 10.0 ** -k)
                want = _exact_reduced(mu, numerators, denominator, rho)
                for got in inside(rho):
                    assert abs(got - want) <= 1e-12 * abs(want), (idx, k)
        want = [_exact_reduced(mu, numerators, denominator, rho)
                for rho in grid]
        scale = max(map(abs, want))
        for rho, w in zip(grid, want):
            for got in inside(rho):
                assert abs(got - w) <= 1e-12 * scale, (idx, rho)
        contact = Fraction(sum(x * 2 ** p for p, x in enumerate(numerators)),
                           denominator)
        for rho in beyond:
            want = mu * math.pi * float(
                contact * (2 / Fraction(rho)) ** idx.degree)
            for got in (g_reduced(idx, rho, 1.0).value,
                        mu * triple_bessel_nonoverlap(idx, rho, 1.0)):
                assert abs(got - want) <= 1e-12 * abs(want), (idx, rho)


@lru_cache(maxsize=None)
def _exact_record(idx):
    """mu, (N_p, Q) and the 200-point grid scale of the fixed-grid test."""
    mu = mu_coefficient(idx)
    numerators, denominator = _overlap_assembly(idx.l, idx.lp, idx.j)
    scale = max(abs(_exact_reduced(mu, numerators, denominator, 2 * i / 200))
                for i in range(200))
    return mu, numerators, denominator, scale


_near_contact = st.builds(lambda k, side: 2 * (1 + side * 10.0 ** -k),
                          st.integers(1, 16), st.sampled_from((-1, 1)))


@given(st.sampled_from(ReducedIndex.admissible(6)),
       st.one_of(st.floats(0.0, 10.0), _near_contact))
@settings(max_examples=300, deadline=None)
def test_reduced_elements_match_exact_rationals_sampled(idx, rho):
    # the fixed-grid bounds at drawn separations, dense near contact:
    # relative from rho = 2(1 - 1e-3) on, against the grid scale below it
    mu, numerators, denominator, scale = _exact_record(idx)
    if rho < 2.0:
        want = _exact_reduced(mu, numerators, denominator, rho)
        bound = 1e-12 * (abs(want) if rho >= 2 * (1 - 1e-3) else scale)
        got = (g_reduced(idx, rho, 1.0).value,
               mu * triple_bessel_overlap(idx, rho, 1.0))
    else:
        contact = Fraction(sum(x * 2 ** p for p, x in enumerate(numerators)),
                           denominator)
        want = mu * math.pi * float(
            contact * (2 / Fraction(rho)) ** idx.degree)
        bound = 1e-12 * abs(want)
        got = (g_reduced(idx, rho, 1.0).value,
               mu * triple_bessel_nonoverlap(idx, rho, 1.0))
    for value in got:
        assert abs(value - want) <= bound, (idx, rho, value, want)


def _half_gamma(n):
    # Gamma(n + 1/2) / sqrt(pi) = (2n)! / (4^n n!)
    return Fraction(math.factorial(2 * n), 4 ** n * math.factorial(n))


def test_overlap_polynomial_exact_identities():
    # the exact build gives c_p = pi N_p / Q; check it in rationals at R = 2a
    for idx in ReducedIndex.admissible(8):
        l, lp, j = idx.l, idx.lp, idx.j
        numerators, denominator = _overlap_assembly(l, lp, j)
        assert overlap_polynomial(idx, 1.0).residue == 0.0
        assert len(numerators) == l + lp + 2 and numerators[-1] != 0, idx
        contact = Fraction(sum(n * 2 ** p for p, n in enumerate(numerators)),
                           denominator)
        if j < l + lp:
            assert contact == 0, idx
        else:
            # power law pi^1.5/(8a) (a/R)^(l+l'+1) Gamma(l+l'+1/2)
            # / (Gamma(l+3/2) Gamma(l'+3/2)) at R = 2a, over pi
            want = (Fraction(1, 2 ** (l + lp + 4)) * _half_gamma(l + lp)
                    / (_half_gamma(l + 1) * _half_gamma(lp + 1)))
            assert contact == want, idx
    goldens = {(1, 1, 0): ((16, -12, 0, 1), 96),
               (2, 3, 3): ((0, 0, 16, 0, -8, 0, 1), 1024)}
    for (l, lp, j), (numerators, denominator) in goldens.items():
        got, q = _overlap_assembly(l, lp, j)
        assert [Fraction(n, q) for n in got] == \
            [Fraction(n, denominator) for n in numerators]


def test_overlap_build_rejects_uncancelled_parts(monkeypatch):
    # a Bessel expansion missing its last term leaves logarithms behind
    terms = core._bessel_terms
    monkeypatch.setattr(core, "_bessel_terms", lambda n: terms(n)[:-1])
    for l, lp, j in [(0, 0, 0), (1, 1, 0), (2, 3, 3)]:
        with pytest.raises(PoleResidueError):
            _overlap_assembly(l, lp, j)


def test_exchange_symmetry():
    # g^j_{l,l'} = (-1)^(l+l') g^j_{l',l}
    for (l, lp, j), R in [((1, 3, 4), 0.7), ((0, 2, 2), 1.4),
                          ((1, 2, 3), 3.0), ((2, 4, 6), 7.0)]:
        g1 = g_reduced(ReducedIndex(l, lp, j), R, 1.0).value
        g2 = g_reduced(ReducedIndex(lp, l, j), R, 1.0).value
        sign = -1.0 if (l + lp) % 2 else 1.0
        assert g1 == pytest.approx(sign * g2, rel=1e-11, abs=1e-15)


class _NeverGreater(int):
    """An order that never compares greater, so that _reduced builds
    (l, l', j) with l > l' itself instead of reusing (l', l, j)."""

    def __gt__(self, other):
        return False


def test_swapped_records_keep_their_bits():
    # each unordered (l, l') is built once; for l > l' the record of
    # (l', l, j) with mu times (-1)^(l-l') has the bits of the own build,
    # odd l+l'+j included, where a -0.0 would reach g_reduced and the CLI
    def bits(record):
        mu, k, quotient, contact = record
        return mu.hex(), k, [x.hex() for x in quotient], contact.hex()

    for l in range(9):
        for lp in range(l):
            for j in range(l - lp, l + lp + 1):
                own = core._reduced.__wrapped__(_NeverGreater(l), lp, j)
                assert bits(core._reduced(l, lp, j)) == bits(own), (l, lp, j)


def test_position_space_overflow_is_named():
    # a^(l+l'+1) past the float range raises a named OverflowError, once
    # per radial row in matrix_element; a tiny radius still underflows to 0
    with pytest.raises(OverflowError, match="exceeds the float range"):
        g_reduced(ReducedIndex(3, 3, 6), 3e300, 1e300)
    assert g_reduced(ReducedIndex(3, 3, 6), 3e-300, 1e-300).value == 0.0
    p, q = MultipoleIndex(1, 0), MultipoleIndex(1, 1)
    for rho in (1.3, 3.0):
        with pytest.raises(OverflowError, match="exceeds the float range"):
            matrix_element(p, q, SphereGeometry(rho * 1e200, 1.1, 0.7, 1e200))
        assert matrix_element(
            p, q, SphereGeometry(rho * 1e-200, 1.1, 0.7, 1e-200)) == 0.0


def test_fourier_scale_overflow_is_named():
    # a^(l+1) and a^(l+l'+2) past the float range raise the same named
    # OverflowError as the position side, not the bare math range error
    lm, idx, k = MultipoleIndex(3, 0), ReducedIndex(3, 3, 0), 1e-200
    for call in (lambda: fourier_matrix_element(lm, lm, (k, 0, 0), a=1e200),
                 lambda: g_tilde(idx, k, 1e200),
                 lambda: omega_hat(lm, (k, 0, 0), 1e200)):
        with pytest.raises(OverflowError,
                           match="element scale exceeds the float range"):
            call()


def test_input_validation():
    with pytest.raises(ValueError):
        g_reduced(ReducedIndex(0, 0, 0), 1.0, -1.0)
    with pytest.raises(ValueError):
        g_reduced(ReducedIndex(0, 0, 0), -1.0, 1.0)
    # orders must be integers: numpy integers pass, floats and bools do not
    idx = ReducedIndex(np.int64(1), np.int64(1), np.int64(0))
    assert g_reduced(idx, 1.0, 1.0).value == \
        g_reduced(ReducedIndex(1, 1, 0), 1.0, 1.0).value
    for l, lp, j in [(0.5, 0.5, 1.0), (1.0, 1, 0), (True, 1, 0),
                     (1, 1, np.float64(2.0))]:
        with pytest.raises(ValueError):
            ReducedIndex(l, lp, j)
    # and evaluate with m < 0, where (-1) ** m fails for numpy integers; a
    # plan already cached for plain ints would hide that
    geom = SphereGeometry(1.3, 0.4, 0.9, 1.0)
    for m, mp in ((-1, -1), (-1, 1), (1, -1)):
        want = [matrix_element(MultipoleIndex(1, m), MultipoleIndex(2, mp),
                               geom),
                matrix_element_zaxis(MultipoleIndex(1, m),
                                     MultipoleIndex(2, m), 1.3, 1.0)]
        core._channel_plan.cache_clear()
        lm = MultipoleIndex(np.int64(1), np.int64(m))
        assert [matrix_element(lm, MultipoleIndex(np.int64(2), np.int64(mp)),
                               geom),
                matrix_element_zaxis(lm, MultipoleIndex(np.int64(2),
                                                        np.int64(m)),
                                     1.3, 1.0)] == want


def test_numpy_integer_orders_build_the_same_records():
    # int64 arithmetic in a cold overlap build overflows (7, 4, 7) to
    # 2212.48 instead of 0.040986, and the cached record then answers
    # plain-int calls too
    def build(orders, lm):
        core._reduced.cache_clear()
        core._channel_plan.cache_clear()
        reduced = [g_reduced(ReducedIndex(*map(orders, (i.l, i.lp, i.j))),
                             1.3, 1.0).value
                   for i in ReducedIndex.admissible(7)]
        elements = [matrix_element(lm, MultipoleIndex(lp, mp), geom)
                    for lp in range(8) for mp in range(-lp, lp + 1)]
        return [float(v).hex() for v in reduced], elements

    geom = SphereGeometry(1.3, 0.4, 0.9, 1.0)
    want = build(int, MultipoleIndex(7, 0))
    assert build(np.int64, MultipoleIndex(np.int64(7), np.int64(0))) == want
    # a later plain-int call reads the record the numpy call built
    again = [float(g_reduced(i, 1.3, 1.0).value).hex()
             for i in ReducedIndex.admissible(7)]
    assert again == want[0]


def test_regime_of_labels_and_rejects_nonfinite():
    assert regime_of(0.0, 1.0) == "overlap"
    assert regime_of(2 * (1 - 1e-16), 1.0) == "overlap"
    assert regime_of(2.0, 1.0) == "boundary"
    assert regime_of(2.5, 1.0) == "nonoverlap"
    bad = [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
           (-1.0, 1.0), (1.0, 0.0), (1.0, -1.0), (3.0, -1.0), (3.0, math.inf)]
    idx = ReducedIndex(0, 0, 0)
    poly = overlap_polynomial(idx, 1.0)
    for R, a in bad:
        for f in (regime_of, lambda R, a: g_reduced(idx, R, a),
                  lambda R, a: triple_bessel_overlap(idx, R, a),
                  lambda R, a: triple_bessel_nonoverlap(idx, R, a),
                  lambda R, a: dataclasses.replace(poly, a=a).evaluate(R),
                  # m != m': the element is 0 for every valid (R, a)
                  lambda R, a: matrix_element_zaxis(
                      MultipoleIndex(1, 0), MultipoleIndex(1, 1), R, a)):
            with pytest.raises(ValueError):
                f(R, a)
        if not 0 < a < math.inf:
            with pytest.raises(ValueError):
                overlap_polynomial(idx, a)


_P, _Q = MultipoleIndex(1, 0), MultipoleIndex(1, 1)


@pytest.mark.parametrize("call", [
    lambda v: g_reduced(ReducedIndex(1, 1, 0), v, 1.0),
    lambda v: g_reduced(ReducedIndex(1, 1, 0), 1.0, v),
    lambda v: SphereGeometry(v, 0.4, 0.9, 1.0),
    lambda v: SphereGeometry(1.3, 0.4, 0.9, v),
    lambda v: matrix_element_zaxis(_P, _P, v, 1.0),
    lambda v: matrix_element_zaxis(_P, _Q, 1.0, v),
    lambda v: overlap_polynomial(ReducedIndex(1, 1, 0), v),
    lambda v: fourier_matrix_element(_P, _Q, (0.3, 0.0, 1.0), v),
    lambda v: omega_hat(_P, (0.3, 0.0, 1.0), v),
    lambda v: g_tilde(ReducedIndex(1, 1, 0), 1.3, v),
], ids=["g-R", "g-a", "geometry-R", "geometry-a", "zaxis-R", "zaxis-a",
        "polynomial-a", "fourier-a", "omega-a", "g_tilde-a"])
def test_ill_typed_separations_and_radii_are_rejected(call):
    # bool would read as 1.0, and Decimal, str or complex fail deep in the
    # arithmetic or in math.isfinite, so each is a ValueError up front
    for bad in (True, Decimal("1.3"), "1", 1 + 0j):
        with pytest.raises(ValueError, match="must be a real number"):
            call(bad)


_ANGLE = {"negative": "finite"}
# The input contract of every public position and Fourier callable and of
# the angles of the special functions, one float argument at a time: (id, call of that argument, a valid value, and
# the outcomes that differ from _CONTRACT_DEFAULT for it).
_CONTRACT_ROWS = [
    ("regime_of-R", lambda v: regime_of(v, 1.0), 1.3, {}),
    ("regime_of-a", lambda v: regime_of(1.3, v), 1.0, {"huge": "finite"}),
    ("g_reduced-R", lambda v: g_reduced(ReducedIndex(1, 1, 0), v, 1.0).value,
     1.3, {}),
    ("g_reduced-a", lambda v: g_reduced(ReducedIndex(1, 1, 0), 1.3, v).value,
     1.0, {}),
    ("overlap-R", lambda v: triple_bessel_overlap(ReducedIndex(1, 1, 0), v,
                                                  1.0), 1.3,
     {"big": RegimeError}),
    ("nonoverlap-R", lambda v: triple_bessel_nonoverlap(ReducedIndex(1, 1, 2),
                                                        v, 1.0),
     3.3, {"-0.0": RegimeError}),
    ("polynomial-a", lambda v: overlap_polynomial(ReducedIndex(1, 1, 0),
                                                  v).scale, 1.5, {}),
    ("evaluate-R", lambda v: overlap_polynomial(ReducedIndex(1, 1, 0),
                                                1.0).evaluate(v), 1.3,
     {"big": RegimeError}),
    ("zaxis-R", lambda v: matrix_element_zaxis(_P, _P, v, 1.0), 1.3, {}),
    ("zaxis-a", lambda v: matrix_element_zaxis(_P, _P, 1.3, v), 1.0, {}),
    ("geometry-R", lambda v: matrix_element(
        _P, _Q, SphereGeometry(v, 0.4, 0.9, 1.0)), 1.3, {}),
    ("geometry-theta", lambda v: matrix_element(
        _P, _Q, SphereGeometry(1.3, v, 0.9, 1.0)), 0.4, {"big": ValueError}),
    ("geometry-phi", lambda v: matrix_element(
        _P, _Q, SphereGeometry(1.3, 0.4, v, 1.0)), 0.9,
     {"negative": "finite", "big": "finite"}),
    ("geometry-a", lambda v: matrix_element(
        _P, _Q, SphereGeometry(1.3, 0.4, 0.9, v)), 1.0, {}),
    ("from_vector", lambda v: matrix_element(
        _P, _Q, SphereGeometry.from_vector((v, 0.2, 1.0), 1.0)), 0.5,
     {"negative": "finite", "-0.0": "zero bits"}),
    ("omega-k", lambda v: omega_hat(_Q, (v, 0.2, 1.0), 1.0), 0.3,
     {"negative": "finite", "-0.0": "zero bits"}),
    ("omega-a", lambda v: omega_hat(_Q, (0.3, 0.2, 1.0), v), 1.0, {}),
    ("fourier-k", lambda v: fourier_matrix_element(_P, _Q, (v, 0.2, 1.0),
                                                   1.0), 0.3,
     {"negative": "finite", "-0.0": "zero bits"}),
    ("fourier-a", lambda v: fourier_matrix_element(_P, _Q, (0.3, 0.2, 1.0),
                                                   v), 1.0, {}),
    # float32 read as such overflows j_8(ka) / k to inf here
    ("g_tilde-k", lambda v: g_tilde(ReducedIndex(8, 8, 0), v, 1.0), 0.05,
     {"negative": ZeroWaveVector, "-0.0": ZeroWaveVector}),
    ("g_tilde-a", lambda v: g_tilde(ReducedIndex(1, 1, 0), 1.3, v), 1.0, {}),
    # float32 read as such gives nan from Miller's recurrence
    ("bessel-x", lambda v: spherical_bessel_j(10, v), 1.0, {}),
    # angles: any finite real value
    ("Y-theta", lambda v: spherical_harmonic(_Q, v, 0.9), 0.4, _ANGLE),
    ("Y-phi", lambda v: spherical_harmonic(_Q, 0.4, v), 0.9, _ANGLE),
    ("d-beta", lambda v: wigner_small_d(2, 1, 0, v), 0.4, _ANGLE),
    ("D-alpha", lambda v: wigner_D(2, 1, 0, EulerAngles(v, 0.4, 0.2)), 0.9,
     _ANGLE),
    ("D-beta", lambda v: wigner_D(2, 1, 0, EulerAngles(0.9, v, 0.2)), 0.4,
     _ANGLE),
    ("D-gamma", lambda v: wigner_D(2, 1, 1, EulerAngles(0.9, 0.4, v)), 0.2,
     _ANGLE),
]
_CONTRACT_INPUTS = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "negative": -1.0,
    "-0.0": -0.0, "big": 4.0, "huge": 1e300, "tiny": 1e-300, "bool": True,
    "str": "1.3", "complex": 1 + 0j, "Decimal": Decimal("1.3"),
    "float32": np.float32, "float64": np.float64,
    "int-past-float": 10 ** 400, "Fraction-past-float": Fraction(10 ** 400),
}
# "same bits": the bits of the call at the value as a Python float;
# "finite": a finite result; "zero": equal to the call at +0.0; "zero bits":
# the bits of the call at +0.0
_CONTRACT_DEFAULT = {
    "nan": ValueError, "inf": ValueError, "-inf": ValueError,
    "negative": ValueError, "-0.0": "zero", "big": "finite",
    "bool": ValueError, "str": ValueError, "complex": ValueError,
    "Decimal": ValueError, "float32": "same bits", "float64": "same bits",
    "int-past-float": ValueError, "Fraction-past-float": ValueError,
}
# a radius: -0.0 is not positive, and a^(l+1) leaves the floats at 1e300
_RADIUS = {"-0.0": ValueError, "huge": OverflowError, "tiny": "finite"}


def _contract_cases():
    for row, call, valid, special in _CONTRACT_ROWS:
        outcomes = {**_CONTRACT_DEFAULT,
                    **(_RADIUS if row.endswith("-a") else {}), **special}
        for kind, outcome in outcomes.items():
            yield pytest.param(call, valid, _CONTRACT_INPUTS[kind], outcome,
                               id=f"{row}-{kind}")
    # vectors: a wrong length, no sequence or a length past the floats, or a
    # list or array in place of a tuple
    vector_calls = {
        "from_vector": lambda v: matrix_element(
            _P, _Q, SphereGeometry.from_vector(v, 1.0)),
        "omega": lambda v: omega_hat(_Q, v, 1.0),
        "fourier": lambda v: fourier_matrix_element(_P, _Q, v, 1.0)}
    for row, call in vector_calls.items():
        for kind, vec in (("short", (0.3, 0.2)),
                          ("long", (0.3, 0.2, 1.0, 0.0)),
                          ("float", 1.0), ("None", None),
                          ("past-float-length", (1.7e308, 1.7e308, 0.0)),
                          ("list", [0.3, 0.2, 1.0]),
                          ("array", np.array([0.3, 0.2, 1.0])),
                          ("array32", np.array([0.3, 0.2, 1.0], np.float32))):
            outcome = ("same bits" if kind.startswith(("list", "array"))
                       else ValueError)
            yield pytest.param(call, (0.3, 0.2, 1.0), vec, outcome,
                               id=f"{row}-vector-{kind}")


def _as_float(value):
    if isinstance(value, np.ndarray):
        return tuple(float(c) for c in value)
    return tuple(value) if isinstance(value, list) else float(value)


def _hex(value):
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("call, valid, value, outcome", _contract_cases())
def test_input_contract(call, valid, value, outcome):
    # out-of-contract input raises the named error, never returns a number;
    # numpy scalars and vectors in any sequence give the bits of Python floats
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            call(value)
        return
    if isinstance(value, type):  # a numpy scalar type
        value = value(valid)
    got = call(value)
    if outcome == "same bits":
        want = call(_as_float(value))
        assert type(got) is type(want) and _hex(got) == _hex(want)
    elif outcome == "zero":
        assert got == call(0.0)
    elif outcome == "zero bits":
        assert _hex(got) == _hex(call(0.0))
    else:
        assert isinstance(got, str) or cmath.isfinite(got)


@pytest.mark.parametrize("call, match", [
    (lambda: regime_of(10 ** 5000, 1.0), "R of type int"),
    (lambda: regime_of(Fraction(10 ** 5000, 3), 1.0), "R of type Fraction"),
    (lambda: regime_of(1.3, -10 ** 5000), "a of type int"),
    (lambda: MultipoleIndex(Fraction(10 ** 5000, 3), 0),
     "orders must be integers, got Fraction"),
], ids=["R-int", "R-Fraction", "a-int", "order-Fraction"])
def test_values_past_repr_are_named(call, match):
    # repr of an int past 4300 digits raises its own ValueError from Python
    # 3.11 on, so the message names the argument and its type, not its value
    with pytest.raises(ValueError, match=match):
        call()


def test_geometry_rejects_nonfinite():
    with pytest.raises(ValueError):
        SphereGeometry.from_vector((math.nan, 0.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        SphereGeometry.from_vector((math.inf, 0.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        SphereGeometry(1.0, math.nan, 0.0, 1.0)
    with pytest.raises(ValueError):
        SphereGeometry(1.0, 0.0, 0.0, math.inf)


def test_geometry_rejects_theta_outside_zero_to_pi():
    # elements read cos theta and |sin theta| but phi as given, so theta = -1
    # would silently give the elements of another direction
    for theta in (-1.0, 4.0, 7.0):
        with pytest.raises(ValueError):
            SphereGeometry(1.3, theta, 0.0, 1.0)
    for theta in (-0.0, math.pi):
        SphereGeometry(1.3, theta, 0.0, 1.0)
    # theta = -1, phi = 0 is the direction theta = 1, phi = pi
    p, q = MultipoleIndex(1, 0), MultipoleIndex(1, 1)
    got = matrix_element(p, q, SphereGeometry.from_vector(
        (1.3 * math.sin(-1.0), 0.0, 1.3 * math.cos(-1.0)), 1.0))
    assert got == pytest.approx(
        matrix_element(p, q, SphereGeometry(1.3, 1.0, math.pi, 1.0)),
        rel=1e-14)
    assert got.real == pytest.approx(-0.05629, abs=1e-5)


# ---------------------------------------------------------------------------
# canonical elements
# ---------------------------------------------------------------------------

def test_zaxis_element_is_m_diagonal_and_real():
    for R in (0.8, 3.0):
        for m in (-1, 0, 1):
            for mp in (-2, -1, 0, 1, 2):
                v = matrix_element_zaxis(MultipoleIndex(1, m),
                                         MultipoleIndex(2, mp), R, 1.0)
                if m != mp:
                    assert v == 0.0
                else:
                    assert v.imag == 0.0


def test_general_orientation_reduces_to_zaxis():
    geom = SphereGeometry(1.7, 0.0, 0.0, 1.0)
    for (l, m, lp, mp) in [(0, 0, 0, 0), (1, 1, 1, 1), (2, -1, 1, -1),
                           (1, 0, 2, 1)]:
        v = matrix_element(MultipoleIndex(l, m), MultipoleIndex(lp, mp), geom)
        w = matrix_element_zaxis(MultipoleIndex(l, m), MultipoleIndex(lp, mp),
                                 geom.R, geom.a)
        assert v == pytest.approx(w, abs=1e-13)


def test_kernel_conjugate_symmetry():
    # G_{lm,l'm'}(Rvec) = conj(G_{l'm',lm}(-Rvec))
    geom = SphereGeometry(2.6, 0.8, 1.9, 1.0)
    flipped = SphereGeometry(geom.R, math.pi - geom.theta,
                             geom.phi + math.pi, geom.a)
    for (l, m, lp, mp) in [(1, 1, 2, 0), (2, -1, 2, 2), (0, 0, 3, 1),
                           (1, -1, 1, 1)]:
        v = matrix_element(MultipoleIndex(l, m), MultipoleIndex(lp, mp), geom)
        w = matrix_element(MultipoleIndex(lp, mp), MultipoleIndex(l, m),
                           flipped)
        assert v == pytest.approx(w.conjugate(), abs=1e-12)


def test_block_identity_holds_exactly():
    # G_{l'm',lm} = (-1)^(l+l') conj(G_{lm,l'm'}) at one geometry, to the bit,
    # for every pair of lmax-4 channels, in both regimes and at contact
    idx = [MultipoleIndex(l, m) for l in range(5) for m in range(-l, l + 1)]
    for a in (0.7, 1.0, 2.5):
        for rho in (0.0, 0.37, 1.3, 1.999, 2.0, 2.001, 3.7):
            for theta in (0.0, math.pi, 0.4, 2.2):
                for phi in (0.0, -2.1, 2.9):
                    geom = SphereGeometry(rho * a, theta, phi, a)
                    for p in idx:
                        for q in idx:
                            v = matrix_element(p, q, geom).conjugate()
                            w = matrix_element(q, p, geom)
                            assert w == (-v if (p.l + q.l) % 2 else v), (
                                p, q, geom)


def test_m_reflection_holds_exactly():
    # G_{l,-m; l',-m'} = (-1)^(m'-m) conj(G_{lm,l'm'}) at one geometry, to the
    # bit: Y_{j,-mu} = (-1)^mu conj(Y_{j,mu}), and the reflected 3-j carries
    # (-1)^(j+l+l') = 1 wherever mu != 0; both regimes, contact, both poles
    idx = [MultipoleIndex(l, m) for l in range(5) for m in range(-l, l + 1)]
    rng = np.random.default_rng(27)
    for a in (0.7, 1.0, 2.5):
        for rho in (0.0, 0.37, 1.3, 1.999, 2.0, 2.001, 3.7):
            for theta in (0.0, math.pi, *rng.uniform(0.0, math.pi, 2)):
                geom = SphereGeometry(rho * a, float(theta),
                                      float(rng.uniform(-3.2, 3.2)), a)
                for p in idx:
                    for q in idx:
                        v = matrix_element(p, q, geom).conjugate()
                        w = matrix_element(MultipoleIndex(p.l, -p.m),
                                           MultipoleIndex(q.l, -q.m), geom)
                        assert w == (-v if (q.m - p.m) % 2 else v), (
                            p, q, geom)


def _per_term_block(idx, g, theta, phi):
    """The sum over j written out term by term for every pair of channels in
    idx, from the reduced elements g[l, l', j], the 3-j symbols and scipy's
    spherical harmonic of the direction (theta, phi)."""
    lmax = max(p.l for p in idx)
    Y = {(j, m1): complex(sph_harm_y(j, m1, theta, phi))
         for j in range(2 * lmax + 1) for m1 in range(-j, j + 1)}
    block = np.zeros((len(idx), len(idx)), dtype=complex)
    for row, p in enumerate(idx):
        for col, q in enumerate(idx):
            l, m, lp, mp = p.l, p.m, q.l, q.m
            for j in range(max(abs(l - lp), abs(mp - m)), l + lp + 1):
                block[row, col] += (
                    (-1) ** mp * math.sqrt(4 * math.pi / (2 * j + 1))
                    * wigner_3j_float(j, l, lp, mp - m, m, -mp)
                    * g[l, lp, j] * Y[j, mp - m])
    return block


def _reduced_table(g, lmax):
    """g(ReducedIndex) for every (l, l', j) up to lmax, parity odd included."""
    return {(l, lp, j): g(ReducedIndex(l, lp, j))
            for l in range(lmax + 1) for lp in range(lmax + 1)
            for j in range(abs(l - lp), l + lp + 1)}


def test_matrix_element_matches_per_term_sum():
    lmax = 6
    idx = [MultipoleIndex(l, m) for l in range(lmax + 1)
           for m in range(-l, l + 1)]
    for a in (0.3, 2.5):
        for rho in (0.0, 0.5, 1.999, 2 * (1 - 1e-12), 2.0, 3.7):
            for theta in (0.0, math.pi, 1.1, 2.5):
                geom = SphereGeometry(rho * a, theta, 0.9, a)
                got = np.array([[matrix_element(p, q, geom) for q in idx]
                                for p in idx])
                g = _reduced_table(
                    lambda r: g_reduced(r, geom.R, geom.a).value, lmax)
                want = _per_term_block(idx, g, geom.theta, geom.phi)
                scale = np.abs(want).max()
                assert np.abs(got - want).max() <= 1e-13 * scale, \
                    (a, rho, theta)


def _bits(z: complex) -> tuple:
    return z.real.hex(), z.imag.hex()


_LMAX5 = [MultipoleIndex(l, m) for l in range(6) for m in range(-l, l + 1)]


@pytest.mark.parametrize("rho", [0.0, 1e-9, 0.7, 1.999, 2 * (1 - 1e-12),
                                 2.0, 2.001, 5.0])
def test_geometry_memo_keeps_every_element(rho):
    # a geometry keeps the regime, angles, Legendre columns and radial rows
    # its elements share; filled in either order it gives the bits of a
    # fresh geometry per element
    pairs = [(p, q) for p in _LMAX5 for q in _LMAX5]
    for a in (0.3, 1.3):
        for theta in (0.0, math.pi, 1.1, 0.4):
            for phi in (0.0, -2.0, 3.0):
                args = (rho * a, theta, phi, a)
                want = [_bits(matrix_element(p, q, SphereGeometry(*args)))
                        for p, q in pairs]
                geom = SphereGeometry(*args)
                assert [_bits(matrix_element(p, q, geom))
                        for p, q in pairs] == want, (a, rho, theta, phi)
                geom = SphereGeometry(*args)
                assert [_bits(matrix_element(p, q, geom))
                        for p, q in reversed(pairs)] == want[::-1], \
                    (a, rho, theta, phi)


def test_block_memo_holds_columns_rows_and_phases():
    # an lmax-4 block keeps one Legendre column per (m'-m, l+l'), one radial
    # row per unordered (l, l') and one phase per m'-m, in either regime;
    # below contact the rows hold 35 radial values of even l+l'+j
    idx = [MultipoleIndex(l, m) for l in range(5) for m in range(-l, l + 1)]
    for R in (1.3, 2.0, 3.0):
        geom = SphereGeometry(R, 1.1, 0.7, 1.0)
        for p in idx:
            for q in idx:
                matrix_element(p, q, geom)
        overlap, columns, rows, phases = geom._direction
        assert (len(columns), len(rows), len(phases)) == (81, 15, 17)
        assert phases == {m1: cmath.exp(1j * m1 * 0.7) for m1 in range(-8, 9)}
        assert overlap == (R < 2.0)
        if overlap:
            assert sum(v != 0.0 for row in rows.values() for v in row[:-1]) == 35


def test_cold_block_makes_one_exact_threej_per_record():
    # the plans read their 3-j floats from the integer sum, not the exact
    # cache: a cold lmax-4 block leaves one exact symbol per built (l <= l',
    # j) record (its mu), and the float memo stays within its bound
    from laplace_multipole import specfun

    core._reduced.cache_clear()
    core._channel_plan.cache_clear()
    specfun.wigner_3j.cache_clear()
    idx = [MultipoleIndex(l, m) for l in range(5) for m in range(-l, l + 1)]
    geom = SphereGeometry(1.3, 1.1, 0.7, 1.0)
    for p in idx:
        for q in idx:
            matrix_element(p, q, geom)
    assert specfun.wigner_3j.cache_info().currsize == 55
    info = specfun.wigner_3j_float.cache_info()
    assert info.currsize <= info.maxsize == 16384


def test_every_plan_ends_on_its_stretched_term():
    # the stretched 3-j (j = l+l') and its mu never vanish, so no plan is
    # empty and matrix_element needs no branch for an empty one
    for l, lp in itertools.product(range(9), repeat=2):
        for m, mp in itertools.product(range(-l, l + 1), range(-lp, lp + 1)):
            terms = core._channel_plan(l, m, lp, mp)[0]
            assert terms, (l, m, lp, mp)
            assert terms[-1][0] == l + lp - abs(l - lp), (l, m, lp, mp)


def test_used_geometry_is_still_a_plain_value():
    args = (1.21, 1.1, -2.0, 1.0)
    used, fresh = SphereGeometry(*args), SphereGeometry(*args)
    p, q = MultipoleIndex(2, 1), MultipoleIndex(3, -1)
    want = matrix_element(p, q, used)
    assert used == fresh and hash(used) == hash(fresh)
    assert len(dataclasses.fields(used)) == 4
    assert repr(used) == repr(fresh)
    assert pickle.dumps(used) == pickle.dumps(fresh)  # the memo stays behind
    copy = pickle.loads(pickle.dumps(used))
    assert copy == fresh and hash(copy) == hash(fresh)
    assert _bits(matrix_element(p, q, copy)) == _bits(want)


def test_used_geometry_is_freed_without_the_cycle_collector():
    # the memo's fill functions must not hold the geometry: a reference
    # cycle would keep every used block's memo until a full collection
    import gc
    import weakref

    for R in (1.21, 3.0):
        geom = SphereGeometry(R, 1.1, -2.0, 1.0)
        for p in _LMAX5:
            matrix_element(p, MultipoleIndex(3, -1), geom)
        ref = weakref.ref(geom)
        gc.disable()
        try:
            del geom
            assert ref() is None, R
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# Fourier space
# ---------------------------------------------------------------------------

def test_omega_hat_long_wavelength_limit():
    assert omega_hat(MultipoleIndex(0, 0), (0.0, 0.0, 0.0), 2.0) == \
        pytest.approx(math.sqrt(4 * math.pi) * 2.0)
    assert omega_hat(MultipoleIndex(1, 0), (0.0, 0.0, 0.0), 2.0) == 0.0
    assert type(omega_hat(MultipoleIndex(0, 0), (0.0, 0.0, 0.0), 2.0)) is complex
    assert type(omega_hat(MultipoleIndex(1, 0), (0.0, 0.0, 0.0), 2.0)) is complex


def test_fourier_element_factorizes():
    a = 1.0
    kvec = (0.4, -0.2, 0.9)
    for (l, m, lp, mp) in [(0, 0, 1, 1), (1, -1, 2, 0), (2, 2, 2, -1)]:
        lm, lpmp = MultipoleIndex(l, m), MultipoleIndex(lp, mp)
        k2 = sum(c * c for c in kvec)
        want = omega_hat(lm, kvec, a).conjugate() * omega_hat(lpmp, kvec, a) / k2
        assert fourier_matrix_element(lm, lpmp, kvec, a) == \
            pytest.approx(want, abs=1e-14)


def test_fourier_element_matches_gaunt_sum():
    # the position-space angular weights with g_tilde in place of g: an
    # independent check of the conj(omega_hat) omega_hat / k^2 closed form
    lmax = 4
    idx = [MultipoleIndex(l, m) for l in range(lmax + 1)
           for m in range(-l, l + 1)]
    rng = np.random.default_rng(11)
    for _ in range(30):
        kvec = tuple(rng.uniform(-2.0, 2.0, 3))
        a = rng.uniform(0.5, 1.5)
        k = math.hypot(*kvec)
        g = _reduced_table(lambda r: g_tilde(r, k, a), lmax)
        want = _per_term_block(idx, g, math.acos(kvec[2] / k),
                               math.atan2(kvec[1], kvec[0]))
        got = np.array([[fourier_matrix_element(p, q, kvec, a) for q in idx]
                        for p in idx])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), kvec


def test_fourier_block_same_cold_and_warm():
    # memoized wave records change no bit of a block
    lmax, a = 4, 1.3
    idx = [MultipoleIndex(l, m) for l in range(lmax + 1)
           for m in range(-l, l + 1)]
    rng = np.random.default_rng(3)
    kvecs = [tuple(rng.uniform(-4.0, 4.0, 3)) for _ in range(8)]

    def block():
        return [[sum(fourier_matrix_element(p, q, kv, a) for kv in kvecs)
                 for q in idx] for p in idx]

    def bits(rows):
        return [(z.real.hex(), z.imag.hex()) for row in rows for z in row]

    core._wave_record.cache_clear()
    cold = bits(block())
    assert bits(block()) == cold


def _scipy_omega(lm, kvec, a):
    k = math.hypot(*kvec)
    theta, phi = math.acos(kvec[2] / k), math.atan2(kvec[1], kvec[0])
    return (4 * math.pi * a ** (lm.l + 1) * (-1j) ** lm.l
            * spherical_jn(lm.l, k * a) * complex(sph_harm_y(lm.l, lm.m,
                                                             theta, phi)))


def test_fourier_values_match_scipy_warm_and_cold():
    # scipy's spherical_jn and sph_harm_y share no step with the Bessel
    # recurrences, the Legendre recurrence or the wave records that the
    # elements read
    a = 1.3
    rng = np.random.default_rng(24)
    kvecs = []
    for _ in range(8):
        u = rng.normal(size=3)
        kvecs.append(tuple(float(c) for c in
                           rng.uniform(0.1, 10.0) / a * u / np.linalg.norm(u)))
    omega = {(p, kv): _scipy_omega(p, kv, a) for p in _LMAX4 for kv in kvecs}
    want = np.array([[sum(omega[p, kv].conjugate() * omega[q, kv]
                          / math.hypot(*kv) ** 2 for kv in kvecs)
                      for q in _LMAX4] for p in _LMAX4])

    def cleared(call):
        core._wave_record.cache_clear()
        return call()

    for read in (lambda call: call(), cleared):
        got = np.array([[sum(read(lambda: fourier_matrix_element(p, q, kv, a))
                             for kv in kvecs) for q in _LMAX4]
                        for p in _LMAX4])
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        got = np.array([read(lambda: omega_hat(p, kv, a))
                        for p, kv in omega])
        want_omega = np.array(list(omega.values()))
        assert (np.abs(got - want_omega).max()
                <= 1e-13 * np.abs(want_omega).max())


def _fourier_row(kvec, a, cold=False):
    """Bits of omega_hat and of the elements of one lmax-4 row at kvec,
    each from an empty wave-vector memo if cold."""
    def bits(call):
        if cold:
            core._wave_record.cache_clear()
        try:
            return _bits(complex(call()))
        except (ValueError, ZeroWaveVector) as exc:
            return type(exc)
    p = MultipoleIndex(2, 1)
    return ([bits(lambda: omega_hat(q, kvec, a)) for q in _LMAX4]
            + [bits(lambda: fourier_matrix_element(p, q, kvec, a))
               for q in _LMAX4])


def _position_row(vec, a):
    """Bits of the elements of one lmax-4 row at SphereGeometry.from_vector."""
    geom = SphereGeometry.from_vector(vec, a)
    return [_bits(matrix_element(MultipoleIndex(2, 1), q, geom))
            for q in _LMAX4]


def test_signed_zeros_read_as_zero():
    # a vector's direction depends on its value alone: each sign pattern of
    # its zero components gives the bits of the vector with +0.0, cold, warm
    # after it and warm before it, in both spaces, k = 0 included (omega_hat's
    # limit; ZeroWaveVector for the element).  atan2(0.0, -0.0) is pi: read
    # with its sign, the (1,0),(2,1) element at (-0.0, 0.0, -1.0) was
    # -1.67e-32 - 1.36e-16j, against 1.36e-16j at (0.0, 0.0, -1.0)
    for kvec in itertools.product((0.0, -0.0, 0.7), (0.0, -0.0, -0.4),
                                  (0.0, -0.0, 1.1)):
        plus = tuple(c + 0.0 for c in kvec)
        for a in (0.5, 1.3):
            want = _fourier_row(plus, a, cold=True)
            assert _fourier_row(kvec, a, cold=True) == want, (kvec, a)
            for first, then in ((plus, kvec), (kvec, plus)):
                core._wave_record.cache_clear()
                _fourier_row(first, a)
                assert _fourier_row(then, a) == want, (first, then, a)
            assert _position_row(kvec, a) == _position_row(plus, a), (kvec, a)


def test_wave_records_stay_within_their_bound():
    # one record per wave vector and radius, at most 256 however many are
    # used; an evicted vector gets a new record with the same bits
    core._wave_record.cache_clear()
    rng = np.random.default_rng(23)
    kvecs = [tuple(float(c) for c in rng.uniform(-3.0, 3.0, 3))
             for _ in range(300)]
    p, q = MultipoleIndex(3, -2), MultipoleIndex(4, 1)
    first = [(_bits(fourier_matrix_element(p, q, kv, 1.0)),
              _bits(omega_hat(q, kv, 1.0))) for kv in kvecs]
    info = core._wave_record.cache_info()
    assert (info.maxsize, info.currsize, info.misses) == (256, 256, 300)
    again = [(_bits(fourier_matrix_element(p, q, kv, 1.0)),
              _bits(omega_hat(q, kv, 1.0))) for kv in kvecs]
    assert again == first
    core._wave_record.cache_clear()
    for kv in kvecs[:5]:
        assert _fourier_row(kv, 1.0) == _fourier_row(kv, 1.0, cold=True)
    # a block over 8 wave vectors makes 8 records and reads them 5000 times,
    # and one radial factor per order and record; so does one over 8 lattice
    # vectors 0.7 (n1, n2, n3), each with a zero index
    lattice = [tuple(0.7 * n for n in ns) for ns in (
        (1, 0, 0), (0, -1, 0), (0, 0, 2), (1, 1, 0), (-1, 0, 1), (0, 2, -1),
        (2, 0, 1), (1, -2, 0))]
    for block in (kvecs[:8], lattice):
        core._wave_record.cache_clear()
        for q in _LMAX4:
            for p in _LMAX4:
                for kv in block:
                    fourier_matrix_element(p, q, kv, 1.0)
        info = core._wave_record.cache_info()
        assert (info.currsize, info.misses, info.hits) == (8, 8, 4992), block
        radial = [core._wave(kv, 1.0)[5] for kv in block]
        assert [sorted(r) for r in radial] == [list(range(5))] * 8


def test_wave_records_read_any_sequence_and_radius_type():
    # a list, an array, an int or a numpy radius give the bits of the tuple
    # and the float, warm or cold (the typed key gives numpy components and
    # an int radius records of their own); True is still no radius
    kv = (0.6, -0.3, 1.2)
    want = _fourier_row(kv, 1.0, cold=True)
    _fourier_row(kv, 1.0)
    for vec in (kv, list(kv), np.array(kv)):
        for a in (1.0, 1, np.float64(1.0)):
            assert _fourier_row(vec, a) == want, (vec, a)
            assert _fourier_row(vec, a, cold=True) == want, (vec, a)
    for call in (lambda: omega_hat(_P, kv, True),
                 lambda: fourier_matrix_element(_P, _P, kv, True),
                 lambda: fourier_matrix_element(_P, _P, (True, -0.3, 1.2),
                                                1.0)):
        with pytest.raises(ValueError, match="must be a real number"):
            call()


@pytest.mark.parametrize("k", [1e-160, 1e-170, 1e-200])
def test_fourier_elements_finite_as_k_underflows(k):
    # dividing each factor by k keeps 1/k^2 from underflowing to 0
    lm, idx, a = MultipoleIndex(1, 0), ReducedIndex(1, 1, 2), 1.0
    ref = fourier_matrix_element(lm, lm, (0.0, 0.0, 1e-100), a)
    assert ref == pytest.approx(4 * math.pi / 3, rel=1e-14)
    assert fourier_matrix_element(lm, lm, (0.0, 0.0, k), a) == \
        pytest.approx(ref, rel=1e-14)
    assert g_tilde(idx, k, a) == pytest.approx(g_tilde(idx, 1e-100, a),
                                               rel=1e-14)
    # l = l' = 0 grows as 1/k^2: past the float range it is an error
    s = MultipoleIndex(0, 0)
    with pytest.raises(OverflowError):
        fourier_matrix_element(s, s, (k, 0.0, 0.0), a)
    with pytest.raises(OverflowError):
        g_tilde(ReducedIndex(0, 0, 0), k, a)


@pytest.mark.parametrize("k, a", [(1e-318, 1.0), (5e-324, 1.0), (5e-324, 0.5)])
def test_fourier_elements_at_subnormal_ka(k, a):
    # j_1(ka) / k = a / 3 to the last bit, however far ka underflows
    lm, idx = MultipoleIndex(1, 0), ReducedIndex(1, 1, 2)
    assert fourier_matrix_element(lm, lm, (0.0, 0.0, k), a) == \
        pytest.approx(4 * math.pi / 3 * a ** 6, rel=1e-14)
    # 2 pi^2 (-i)^2 mu a^4 (a / 3)^2
    assert g_tilde(idx, k, a) == \
        pytest.approx(-2 * math.pi ** 2 * mu_coefficient(idx) * a ** 6 / 9,
                      rel=1e-14)


@pytest.mark.parametrize("idx", [ReducedIndex(1, 1, 0), ReducedIndex(2, 1, 1),
                                 ReducedIndex(4, 2, 4)])
def test_g_tilde_continuous_where_leading_term_takes_over(idx):
    # just below ka = 1e-8, j_l(ka) / k is the leading series term
    a = 1.7
    for k in (0.999999e-8 / a, 1.000001e-8 / a):
        want = (2 * math.pi ** 2 * (-1j) ** idx.j * mu_coefficient(idx)
                * a ** (idx.l + idx.lp + 2) * spherical_bessel_j(idx.l, k * a)
                * spherical_bessel_j(idx.lp, k * a) / k ** 2)
        assert g_tilde(idx, k, a) == pytest.approx(want, rel=1e-14), k


def _fourier_block(idx, kvec, a):
    return np.array([[fourier_matrix_element(p, q, kvec, a) for q in idx]
                     for p in idx])


_LMAX4 = [MultipoleIndex(l, m) for l in range(5) for m in range(-l, l + 1)]


def _fourier_kvecs(n, seed):
    rng = np.random.default_rng(seed)
    return [tuple(float(c) for c in rng.uniform(-3.0, 3.0, 3))
            for _ in range(n)]


def test_fourier_block_symmetries_hold_exactly():
    # F_{l,-m; l',-m'} = (-1)^(l+l'+m+m') conj(F_{lm,l'm'}) and
    # F_{l'm',lm} = conj(F_{lm,l'm'}) at one wave vector, to the bit, for
    # every pair of lmax-4 channels at seeded wave vectors and on the axes
    kvecs = _fourier_kvecs(12, 27) + [(0.0, 0.0, 1.3), (0.0, 0.0, -0.4),
                                     (0.7, 0.0, 0.0), (0.0, -2.1, 0.0)]
    for a in (1.0, 1.3):
        for kv in kvecs:
            for p in _LMAX4:
                for q in _LMAX4:
                    v = fourier_matrix_element(p, q, kv, a).conjugate()
                    w = fourier_matrix_element(MultipoleIndex(p.l, -p.m),
                                               MultipoleIndex(q.l, -q.m),
                                               kv, a)
                    odd = (p.l + q.l + p.m + q.m) % 2
                    assert w == (-v if odd else v), (p, q, kv, a)
                    assert fourier_matrix_element(q, p, kv, a) == v, (
                        p, q, kv, a)


def test_fourier_elements_build_no_legendre_list(monkeypatch):
    # each element reads its two Legendre values from the list-free
    # recurrence: a block over 8 wave vectors makes 10,000 values and no
    # column, and omega_hat makes one value per call
    calls = []

    def value(*args):
        calls.append(args)
        return _legendre_value(*args)

    def column(*args):
        raise AssertionError(f"Legendre column built for {args}")

    monkeypatch.setattr(core, "_legendre_value", value)
    monkeypatch.setattr(core, "_legendre_column", column)
    for kv in _fourier_kvecs(8, 23):
        for p in _LMAX4:
            for q in _LMAX4:
                fourier_matrix_element(p, q, kv, 1.0)
    assert len(calls) == 10_000
    calls.clear()
    for p in _LMAX4:
        omega_hat(p, (0.6, -0.3, 1.2), 1.0)
    assert len(calls) == 25


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_fourier_block_along_z_axis(sign):
    # Y_lm(0 or pi, .) vanishes for m != 0 and is (+-1)^l sqrt((2l+1)/4pi)
    # for m = 0; sin(pi) = 1.2e-16 leaves the m != 0 elements at rounding
    a, k = 1.3, 0.7
    got = _fourier_block(_LMAX4, (0.0, 0.0, sign * k), a)
    scale = np.abs(got).max()
    for p, lm in enumerate(_LMAX4):
        for q, lpmp in enumerate(_LMAX4):
            want = 0.0
            if lm.m == lpmp.m == 0:
                l, lp = lm.l, lpmp.l
                want = (4 * math.pi * a ** (l + lp + 2) * 1j ** (l - lp)
                        * sign ** (l + lp)
                        * math.sqrt((2 * l + 1) * (2 * lp + 1))
                        * spherical_bessel_j(l, k * a)
                        * spherical_bessel_j(lp, k * a) / k ** 2)
            assert abs(got[p, q] - want) <= 1e-15 * scale, (lm, lpmp)


def test_fourier_block_in_xy_plane():
    # theta = pi/2: Y_lm vanishes for odd l+m, and the block is the one of
    # scipy's Y_lm with the library's j_l
    a, kvec = 0.8, (0.3, -0.5, 0.0)
    k, phi = math.hypot(*kvec), math.atan2(kvec[1], kvec[0])
    omega = [4 * math.pi * a ** (p.l + 1) * (-1j) ** p.l
             * spherical_bessel_j(p.l, k * a)
             * sph_harm_y(p.l, p.m, math.pi / 2, phi) for p in _LMAX4]
    want = np.array([[wp.conjugate() * wq / k ** 2 for wq in omega]
                     for wp in omega])
    got = _fourier_block(_LMAX4, kvec, a)
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= 1e-15 * scale
    odd = [i for i, p in enumerate(_LMAX4) if (p.l + p.m) % 2]
    assert np.abs(got[odd, :]).max() <= 1e-15 * scale
    assert np.abs(got[:, odd]).max() <= 1e-15 * scale


def test_fourier_block_at_grazing_wavevector():
    # x^2 underflows next to z^2: the direction is +z, |k| = 1e-150
    a = 1.0
    got = _fourier_block(_LMAX4, (1e-300, 0.0, 1e-150), a)
    assert np.isfinite(got).all()
    assert np.array_equal(got, _fourier_block(_LMAX4, (0.0, 0.0, 1e-150), a))
    s = _LMAX4.index(MultipoleIndex(0, 0))
    p = _LMAX4.index(MultipoleIndex(1, 0))
    assert got[s, s] == pytest.approx(4 * math.pi * 1e300, rel=1e-14)
    assert got[p, p] == pytest.approx(4 * math.pi / 3, rel=1e-14)


def test_fourier_block_matches_factorized_form():
    # the element rounds its phase argument (m'-m) phi once, the factorized
    # form m phi and m' phi: each side is off the exact block by up to about
    # 1e-15 of its scale, hence 2e-15 between them
    rng = np.random.default_rng(16)
    for _ in range(20):
        kvec = tuple(rng.uniform(-3.0, 3.0, 3))
        a = rng.uniform(0.5, 1.5)
        omega = [omega_hat(p, kvec, a) for p in _LMAX4]
        k2 = sum(c * c for c in kvec)
        want = np.array([[wp.conjugate() * wq / k2 for wq in omega]
                         for wp in omega])
        got = _fourier_block(_LMAX4, kvec, a)
        assert np.abs(got - want).max() <= 2e-15 * np.abs(want).max(), kvec


def test_fourier_block_matches_scipy_reference():
    # conj(omega_hat) omega_hat / k^2 with scipy's Y_lm and j_l, so neither
    # the library's Legendre recurrence nor its Bessel values check themselves
    rng = np.random.default_rng(18)
    for _ in range(40):
        khat = rng.normal(size=3)
        khat /= np.linalg.norm(khat)
        a = rng.uniform(0.5, 1.5)
        k = rng.uniform(0.1, 10.0) / a
        theta, phi = np.arccos(khat[2]), np.arctan2(khat[1], khat[0])
        omega = [4 * np.pi * a ** (p.l + 1) * (-1j) ** p.l
                 * spherical_jn(p.l, k * a) * sph_harm_y(p.l, p.m, theta, phi)
                 for p in _LMAX4]
        want = np.array([[wp.conjugate() * wq / k ** 2 for wq in omega]
                         for wp in omega])
        got = _fourier_block(_LMAX4, tuple(k * khat), a)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), \
            (k * khat, a)


def test_fourier_element_rejects_zero_wavevector():
    with pytest.raises(ZeroWaveVector):
        fourier_matrix_element(MultipoleIndex(0, 0), MultipoleIndex(0, 0),
                               (0.0, 0.0, 0.0), 1.0)


def test_g_tilde_values_and_validation():
    # l = l' = j = 0: 4 pi a^2 j_0(ka)^2 / k^2
    k, a = 0.7, 1.0
    want = 4 * math.pi * (math.sin(k * a) / (k * a)) ** 2 / k ** 2 * a ** 2
    assert g_tilde(ReducedIndex(0, 0, 0), k, a) == pytest.approx(want, rel=1e-13)
    # odd-parity channels carry a vanishing 3-j
    assert g_tilde(ReducedIndex(1, 2, 2), k, a) == 0.0
    with pytest.raises(ZeroWaveVector):
        g_tilde(ReducedIndex(0, 0, 0), 0.0, a)
    with pytest.raises(ZeroWaveVector):
        g_tilde(ReducedIndex(0, 0, 0), -1.0, a)
    # non-finite wave numbers and wave vectors are domain errors
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            g_tilde(ReducedIndex(0, 0, 0), bad, a)
    lm = MultipoleIndex(0, 0)
    for kvec in ((math.nan, 0.0, 1.0), (0.0, 0.0, math.inf)):
        with pytest.raises(ValueError):
            omega_hat(lm, kvec, a)
        with pytest.raises(ValueError):
            fourier_matrix_element(lm, lm, kvec, a)
    # so are non-finite and non-positive radii, also at k = 0
    for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError):
            g_tilde(ReducedIndex(0, 0, 0), k, bad)
        for kvec in ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)):
            with pytest.raises(ValueError):
                omega_hat(lm, kvec, bad)
        with pytest.raises(ValueError):
            fourier_matrix_element(lm, lm, (0.0, 0.0, 1.0), bad)


def test_g_tilde_real_up_to_phase():
    # (-i)^(l'-l) with l+l'+j even makes g_tilde real
    for idx in (ReducedIndex(1, 1, 2), ReducedIndex(0, 2, 2),
                ReducedIndex(1, 3, 2)):
        v = g_tilde(idx, 1.3, 1.0)
        assert abs(complex(v).imag) < 1e-15 * max(abs(complex(v)), 1.0)
