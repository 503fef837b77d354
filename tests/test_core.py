"""Tests for the reduced-element closed forms and basis conversions."""
import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y

from laplace_multipole import core
from laplace_multipole.core import (
    ReducedIndex,
    SphereGeometry,
    _overlap_assembly,
    canonical_from_j_basis,
    fourier_matrix_element,
    g_reduced,
    g_tilde,
    j_basis_from_canonical,
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
    NotDiagonal,
    PoleResidueError,
    RegimeError,
    ZeroWaveVector,
)
from laplace_multipole.specfun import MultipoleIndex, wigner_3j_float


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


def test_overlap_branch_rejects_odd_parity():
    # odd l+l'+j integrals carry ln(R/a); their reduced elements vanish (mu = 0)
    with pytest.raises(ValueError):
        triple_bessel_overlap(ReducedIndex(1, 1, 1), 0.7, 1.0)
    with pytest.raises(ValueError):
        overlap_polynomial(ReducedIndex(1, 2, 2), 1.0)
    assert g_reduced(ReducedIndex(1, 1, 1), 0.7, 1.0).value == 0.0


def _admissible(lmax):
    for l in range(lmax + 1):
        for lp in range(lmax + 1):
            for j in range(abs(l - lp), l + lp + 1):
                if (l + lp + j) % 2 == 0:
                    yield ReducedIndex(l, lp, j)


def test_overlap_finite_up_to_contact():
    # the polynomial holds on the whole overlap range, right up to R = 2a
    a = 1.0
    worst = 0.0
    for idx in _admissible(6):
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


def _half_gamma(n):
    # Gamma(n + 1/2) / sqrt(pi) = (2n)! / (4^n n!)
    return Fraction(math.factorial(2 * n), 4 ** n * math.factorial(n))


def test_overlap_polynomial_exact_identities():
    # the exact build gives c_p = pi N_p / Q; check it in rationals at R = 2a
    for idx in _admissible(8):
        l, lp, j = idx.l, idx.lp, idx.j
        _, residue, numerators, denominator = _overlap_assembly(l, lp, j)
        assert residue == 0.0
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
        _, _, got, q = _overlap_assembly(l, lp, j)
        assert [Fraction(n, q) for n in got] == \
            [Fraction(n, denominator) for n in numerators]


def test_overlap_build_rejects_uncancelled_parts(monkeypatch):
    # a Bessel expansion missing its last term leaves logarithms behind
    terms = core._bessel_terms
    monkeypatch.setattr(core, "_bessel_terms", lambda n: terms(n)[:-1])
    for l, lp, j in [(0, 0, 0), (1, 1, 0), (2, 3, 3)]:
        with pytest.raises(PoleResidueError):
            _overlap_assembly.__wrapped__(l, lp, j)


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


def test_regime_of_labels_and_rejects_nonfinite():
    assert regime_of(0.0, 1.0) == "overlap"
    assert regime_of(2 * (1 - 1e-16), 1.0) == "overlap"
    assert regime_of(2.0, 1.0) == "boundary"
    assert regime_of(2.5, 1.0) == "nonoverlap"
    bad = [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
           (-1.0, 1.0), (1.0, 0.0)]
    for R, a in bad:
        with pytest.raises(ValueError):
            regime_of(R, a)
        with pytest.raises(ValueError):
            g_reduced(ReducedIndex(0, 0, 0), R, a)


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
# basis conversions
# ---------------------------------------------------------------------------

jvals = st.floats(min_value=-5, max_value=5, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3),
       st.data())
def test_j_basis_round_trip(l, lp, data):
    gj = {j: data.draw(jvals) for j in range(abs(l - lp), l + lp + 1)}
    values = canonical_from_j_basis(l, lp, gj)
    back = j_basis_from_canonical(l, lp, values)
    for j, v in gj.items():
        assert complex(back[j]).real == pytest.approx(v, abs=1e-10)
        assert complex(back[j]).imag == pytest.approx(0.0, abs=1e-12)


def test_j_basis_rejects_off_diagonal():
    values = {(m, mp): (1.0 if m == mp else 0.5)
              for m in (-1, 0, 1) for mp in (-1, 0, 1)}
    with pytest.raises(NotDiagonal):
        j_basis_from_canonical(1, 1, values)


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


def test_zaxis_consistent_with_j_basis():
    l, lp, R, a = 2, 2, 1.3, 1.0
    gj = {j: g_reduced(ReducedIndex(l, lp, j), R, a).value
          for j in range(abs(l - lp), l + lp + 1)}
    values = canonical_from_j_basis(l, lp, gj)
    for m in range(-min(l, lp), min(l, lp) + 1):
        direct = matrix_element_zaxis(MultipoleIndex(l, m),
                                      MultipoleIndex(lp, m), R, a)
        assert complex(values[(m, m)]) == pytest.approx(direct, abs=1e-13)


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


def _per_term_block(idx, geom):
    """The sum over j written out term by term for every pair of channels in
    idx, from g_reduced, the 3-j symbols and scipy's spherical harmonic."""
    lmax = max(p.l for p in idx)
    g = {(l, lp, j): g_reduced(ReducedIndex(l, lp, j), geom.R, geom.a).value
         for l in range(lmax + 1) for lp in range(lmax + 1)
         for j in range(abs(l - lp), l + lp + 1)}
    Y = {(j, m1): complex(sph_harm_y(j, m1, geom.theta, geom.phi))
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
                want = _per_term_block(idx, geom)
                scale = np.abs(want).max()
                assert np.abs(got - want).max() <= 1e-13 * scale, \
                    (a, rho, theta)


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
