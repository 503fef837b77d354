"""Tests for the reduced-element closed forms and the canonical elements."""
import cmath
import dataclasses
import math
import pickle
from fractions import Fraction
from functools import lru_cache

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
from laplace_multipole.specfun import (MultipoleIndex, spherical_bessel_j,
                                       wigner_3j_float)


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


def test_geometry_rejects_nonfinite():
    with pytest.raises(ValueError):
        SphereGeometry.from_vector((math.nan, 0.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        SphereGeometry.from_vector((math.inf, 0.0, 1.0), 1.0)
    with pytest.raises(ValueError):
        SphereGeometry(1.0, math.nan, 0.0, 1.0)
    with pytest.raises(ValueError):
        SphereGeometry(1.0, 0.0, 0.0, math.inf)


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
            for theta in (0.0, math.pi, 1.1, 4.0):
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


@pytest.mark.parametrize("rho", [0.0, 0.7, 1.999, 2.0, 2.001, 5.0])
def test_geometry_memo_keeps_every_element(rho):
    # a geometry keeps the regime, angles and Legendre columns its elements
    # share; filled in either order it gives the bits of a fresh geometry
    # per element
    a = 1.3
    pairs = [(p, q) for p in _LMAX5 for q in _LMAX5]
    for theta in (0.0, math.pi, 1.1, -0.4):
        for phi in (0.0, -2.0, 3.0):
            args = (rho * a, theta, phi, a)
            want = [_bits(matrix_element(p, q, SphereGeometry(*args)))
                    for p, q in pairs]
            geom = SphereGeometry(*args)
            assert [_bits(matrix_element(p, q, geom))
                    for p, q in pairs] == want, (rho, theta, phi)
            geom = SphereGeometry(*args)
            assert [_bits(matrix_element(p, q, geom))
                    for p, q in reversed(pairs)] == want[::-1], \
                (rho, theta, phi)


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
    # memoized Bessel values change no bit of a block
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

    spherical_bessel_j.cache_clear()
    cold = bits(block())
    assert bits(block()) == cold


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
