"""Tests for the independent quadrature oracles."""
import math

import pytest

from laplace_multipole.core import (
    ReducedIndex,
    SphereGeometry,
    g_reduced,
    g_tilde,
    matrix_element,
    matrix_element_zaxis,
    triple_bessel_nonoverlap,
    triple_bessel_overlap,
)
from laplace_multipole.errors import SingularConfiguration, TailTooLarge
from laplace_multipole.oracles import (
    QuadratureSpec,
    defining_integral_quadrature,
    hankel_forward,
    hankel_inverse,
    hankel_triple_bessel,
)
from laplace_multipole.specfun import MultipoleIndex

SPEC = QuadratureSpec()


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(node_count=4)
    with pytest.raises(ValueError):
        QuadratureSpec(k_max=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(tail_order=-1)
    # non-finite truncation and non-integer counts
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            QuadratureSpec(k_max=bad)
    with pytest.raises(ValueError):
        QuadratureSpec(node_count=12.0)
    with pytest.raises(ValueError):
        QuadratureSpec(tail_order=2.5)


# ---------------------------------------------------------------------------
# triple-Bessel Hankel oracle vs closed forms
# ---------------------------------------------------------------------------

def test_hankel_oracle_reference_point():
    got = hankel_triple_bessel(ReducedIndex(0, 0, 0), 3.0, 1.0, SPEC)
    assert got == pytest.approx(math.pi / 6, rel=1e-9)


@pytest.mark.parametrize("idx,R", [
    (ReducedIndex(0, 0, 0), 0.5),
    (ReducedIndex(1, 1, 2), 1.3),
    (ReducedIndex(2, 2, 0), 1.9),
    (ReducedIndex(1, 3, 4), 0.8),
])
def test_hankel_oracle_overlap(idx, R):
    want = triple_bessel_overlap(idx, R, 1.0)
    got = hankel_triple_bessel(idx, R, 1.0, SPEC)
    assert got == pytest.approx(want, rel=2e-8, abs=1e-10)


@pytest.mark.parametrize("idx,R", [
    (ReducedIndex(0, 0, 0), 2.5),
    (ReducedIndex(1, 1, 2), 4.0),
    (ReducedIndex(2, 1, 3), 3.0),
])
def test_hankel_oracle_nonoverlap(idx, R):
    want = triple_bessel_nonoverlap(idx, R, 1.0)
    got = hankel_triple_bessel(idx, R, 1.0, SPEC)
    assert got == pytest.approx(want, rel=2e-8, abs=1e-10)


def test_hankel_oracle_zero_separation():
    # only j = 0 survives at R = 0
    assert hankel_triple_bessel(ReducedIndex(1, 1, 2), 0.0, 1.0, SPEC) == 0.0
    got = hankel_triple_bessel(ReducedIndex(1, 1, 0), 0.0, 1.0, SPEC)
    assert got == pytest.approx(triple_bessel_overlap(
        ReducedIndex(1, 1, 0), 0.0, 1.0), rel=1e-9)


def test_hankel_oracle_tail_guard_triggers():
    # an absurdly small truncation makes the omitted tail non-negligible
    bad = QuadratureSpec(node_count=8, k_max=2.0, tail_order=0)
    with pytest.raises(TailTooLarge):
        hankel_triple_bessel(ReducedIndex(2, 2, 4), 1.0, 1.0, bad)


def test_hankel_oracle_rejects_negative_separation():
    with pytest.raises(ValueError):
        hankel_triple_bessel(ReducedIndex(0, 0, 0), -1.0, 1.0, SPEC)


# (R, a) outside regime_of's domain: each must raise, not fall through to a
# number (R = nan compares like R = 0) or a division by zero (a = 0 or inf)
@pytest.mark.parametrize("R,a", [(math.nan, 1.0), (math.inf, 1.0),
                                 (-1.0, 1.0), (1.0, -1.0), (1.0, 0.0),
                                 (1.0, math.inf), (1.0, math.nan)])
def test_hankel_oracles_reject_bad_separation_or_radius(R, a):
    idx = ReducedIndex(1, 1, 0)
    with pytest.raises(ValueError, match="finite"):
        hankel_triple_bessel(idx, R, a, SPEC)
    with pytest.raises(ValueError, match="finite"):
        hankel_inverse(idx, R, a, lambda k: 1.0, SPEC)


# ---------------------------------------------------------------------------
# surface-convolution oracle
# ---------------------------------------------------------------------------

def test_surface_oracle_monopole_far():
    geom = SphereGeometry(3.0, 0.0, 0.0, 1.0)
    got = defining_integral_quadrature(MultipoleIndex(0, 0),
                                       MultipoleIndex(0, 0), geom, SPEC)
    assert got.real == pytest.approx(1.0 / 3.0, rel=1e-7)
    assert got.imag == 0.0


@pytest.mark.parametrize("l,m,lp,R", [
    (0, 0, 0, 1.0),
    (1, 0, 1, 1.4),
    (1, 1, 1, 0.8),
    (2, 1, 1, 1.2),
    (2, 2, 2, 3.0),
])
def test_surface_oracle_vs_closed_form(l, m, lp, R):
    geom = SphereGeometry(R, 0.0, 0.0, 1.0)
    got = defining_integral_quadrature(MultipoleIndex(l, m),
                                       MultipoleIndex(lp, m), geom, SPEC)
    want = matrix_element_zaxis(MultipoleIndex(l, m), MultipoleIndex(lp, m),
                                R, 1.0)
    assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


def test_surface_oracle_azimuthal_selection_rule():
    geom = SphereGeometry(1.5, 0.0, 0.0, 1.0)
    got = defining_integral_quadrature(MultipoleIndex(2, 1),
                                       MultipoleIndex(2, -1), geom, SPEC)
    assert got == 0.0


def test_surface_oracle_requires_axis_alignment():
    geom = SphereGeometry(1.5, 0.3, 0.0, 1.0)
    with pytest.raises(ValueError):
        defining_integral_quadrature(MultipoleIndex(0, 0),
                                     MultipoleIndex(0, 0), geom, SPEC)


# at theta = 0 the separation is e_z whatever phi is; (-0, 0, 2.5) has
# phi = 0, since a -0.0 component reads as 0.0, and phi = -2 keeps the case
# of any other azimuth
@pytest.mark.parametrize("geom", [
    SphereGeometry.from_vector((-0.0, 0.0, 2.5), 1.0),
    SphereGeometry(1.2, 0.0, -2.0, 1.0),
], ids=["from-vector", "phi=-2"])
def test_surface_oracle_accepts_any_azimuth_on_the_axis(geom):
    for l in range(3):
        for lp in range(3):
            for m in range(-l, l + 1):
                for mp in range(-lp, lp + 1):
                    lm, lpm = MultipoleIndex(l, m), MultipoleIndex(lp, mp)
                    got = defining_integral_quadrature(lm, lpm, geom, SPEC)
                    want = matrix_element(lm, lpm, geom)
                    assert abs(got - want) <= 1e-9 * max(abs(want), 1e-4), \
                        (l, m, lp, mp)


# concentric, overlapping, either side of contact, exact contact and far
@pytest.mark.parametrize("a", [1.0, 2.5])
@pytest.mark.parametrize("ratio", [0.0, 0.3, 1.999, 2.0, 2.001, 6.0])
def test_surface_oracle_in_every_regime(ratio, a):
    geom = SphereGeometry(ratio * a, 0.0, 0.0, a)
    for l in range(5):
        for lp in range(5):
            for m in range(-min(l, lp), min(l, lp) + 1):
                lm, lpm = MultipoleIndex(l, m), MultipoleIndex(lp, m)
                got = defining_integral_quadrature(lm, lpm, geom, SPEC)
                want = matrix_element_zaxis(lm, lpm, ratio * a, a)
                scale = max(abs(want), 1e-4 * a ** (l + lp + 1))
                assert abs(got - want) <= 1e-9 * scale, (l, lp, m)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, -1.0])
def test_surface_oracle_rejects_bad_tolerance(rel_tol):
    geom = SphereGeometry(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="rel_tol"):
        defining_integral_quadrature(MultipoleIndex(1, 0),
                                     MultipoleIndex(1, 0), geom, SPEC,
                                     rel_tol=rel_tol)


# "rounding": coarse and fine differ by 1.0e-15 relative, rounding alone;
# "coarse-quadrature": 8 nodes leave a real quadrature error, 7.0e-6 relative
@pytest.mark.parametrize("spec, l, R, rel_tol", [
    (SPEC, 2, 1.0, 1e-16),
    (QuadratureSpec(node_count=8), 12, 0.5, 1e-8),
], ids=["rounding", "coarse-quadrature"])
def test_surface_oracle_flags_unconverged_result(spec, l, R, rel_tol):
    geom = SphereGeometry(R, 0.0, 0.0, 1.0)
    with pytest.raises(SingularConfiguration):
        defining_integral_quadrature(MultipoleIndex(l, 0),
                                     MultipoleIndex(l, 0), geom, spec,
                                     rel_tol=rel_tol)


# ---------------------------------------------------------------------------
# forward / inverse transforms
# ---------------------------------------------------------------------------

def test_forward_transform_matches_fourier_form():
    idx = ReducedIndex(1, 1, 2)
    k, a = 0.7, 1.0

    def g(R):
        return g_reduced(idx, R, a).value

    got = hankel_forward(idx, k, a, g, SPEC)
    want = g_tilde(idx, k, a)
    assert got == pytest.approx(want, rel=1e-6)


def test_forward_transform_is_linear():
    idx = ReducedIndex(0, 0, 0)
    k, a = 1.1, 1.0

    def g(R):
        return g_reduced(idx, R, a).value

    one = hankel_forward(idx, k, a, g, SPEC)
    three = hankel_forward(idx, k, a, lambda R: 3.0 * g(R), SPEC)
    assert three == pytest.approx(3.0 * one, rel=1e-12)
    zero = hankel_forward(idx, k, a, lambda R: 0.0, SPEC)
    assert zero == 0.0


def test_inverse_transform_round_trip():
    a = 1.0
    spec = QuadratureSpec(k_max=200.0)
    for idx, R in [(ReducedIndex(0, 0, 0), 1.0),
                   (ReducedIndex(1, 1, 2), 2.5)]:
        got = hankel_inverse(idx, R, a,
                             lambda k, i=idx: g_tilde(i, k, a), spec)
        want = g_reduced(idx, R, a).value
        assert got == pytest.approx(want, rel=5e-6, abs=1e-8)


def test_forward_transform_rejects_nonpositive_wavenumber():
    idx = ReducedIndex(0, 0, 0)
    with pytest.raises(ValueError):
        hankel_forward(idx, 0.0, 1.0, lambda R: 1.0, SPEC)


@pytest.mark.parametrize("k,a", [(math.inf, 1.0), (math.nan, 1.0),
                                 (-1.0, 1.0), (1.0, 0.0), (1.0, -1.0),
                                 (1.0, math.inf), (1.0, math.nan)])
def test_forward_transform_rejects_bad_wavenumber_or_radius(k, a):
    with pytest.raises(ValueError, match="finite"):
        hankel_forward(ReducedIndex(0, 0, 0), k, a, lambda R: 1.0, SPEC)


def test_inverse_transform_flags_non_decaying_samples():
    # the accelerated panels do not settle: the estimate reads 1.0e-2
    # against a value of 2.1
    with pytest.raises(TailTooLarge, match="inverse-transform"):
        hankel_inverse(ReducedIndex(1, 1, 2), 1.3, 1.0, lambda k: 1.0, SPEC)


@pytest.mark.parametrize("samples", [lambda R: 1.0, lambda R: R])
def test_forward_transform_flags_divergent_samples(samples):
    # R^2 j_2(kR) times samples that do not decay has no transform, yet
    # the averaged panels settle (at -172.6 for constant samples); the last
    # 8 accelerated panels are 5.7 and 24.5 times the first 8
    with pytest.raises(TailTooLarge, match="forward-transform"):
        hankel_forward(ReducedIndex(1, 1, 2), 0.7, 1.0, samples, SPEC)


def test_inverse_transform_rejects_nonpositive_separation():
    idx = ReducedIndex(0, 0, 0)
    with pytest.raises(ValueError):
        hankel_inverse(idx, 0.0, 1.0, lambda k: 1.0, SPEC)
