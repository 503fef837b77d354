"""Tests for truncated Laurent-series arithmetic and regularized factors."""
import math

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from laplace_multipole.errors import PoleWithoutRegularizer, WindowOverflow
from laplace_multipole.laurent import (
    DEFAULT_WINDOW,
    LaurentValue,
    RegularizedArgument,
    gamma_laurent,
    reciprocal_gamma_laurent,
)

WIDE = (-4, 4)


def as_dict(v: LaurentValue) -> dict:
    return {p: float(c) for p, c in v.items() if c != 0}


# ---------------------------------------------------------------------------
# constructors and window behavior
# ---------------------------------------------------------------------------

def test_constant_and_zero():
    c = LaurentValue.constant(3.5)
    assert c.coefficient(0) == 3.5
    assert c.coefficient(1) == 0
    assert c.coefficient(-1) == 0
    z = LaurentValue.zero()
    assert z.is_zero()
    assert z.negative_order_residue() == 0.0


def test_linear_constructor():
    v = LaurentValue.linear(2.0, -1.5)
    assert v.coefficient(0) == 2.0
    assert v.coefficient(1) == -1.5


def test_window_truncates_high_orders_silently():
    v = LaurentValue([1.0, 1.0, 1.0, 1.0], 0, window=(-1, 2))
    assert v.coefficient(3) == 0  # order 3 dropped, no error


def test_window_overflow_below_bottom():
    with pytest.raises(WindowOverflow):
        LaurentValue([1.0], -5, window=(-4, 2))


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        LaurentValue([1.0], 0, window=(2, -2))


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_multiplication_orders_add():
    a = LaurentValue([1.0], -2, window=WIDE)  # eps^-2
    b = LaurentValue([3.0], 3, window=WIDE)   # 3 eps^3
    assert as_dict(a * b) == {1: 3.0}


def test_division_by_series():
    one = LaurentValue.constant(1.0, window=WIDE)
    # 1 / (eps * (1 - eps)) = eps^-1 + 1 + eps + ...
    den = LaurentValue([1.0, -1.0], 1, window=WIDE)
    q = one / den
    for p in range(-1, 4):
        assert float(q.coefficient(p)) == pytest.approx(1.0, rel=1e-14)


def test_reciprocal_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        LaurentValue.zero().reciprocal()


def test_scalar_mixed_arithmetic():
    v = LaurentValue.linear(1.0, 2.0, window=WIDE)
    w = 3 * v + 1 - v / 2
    assert float(w.coefficient(0)) == pytest.approx(3.5)
    assert float(w.coefficient(1)) == pytest.approx(5.0)
    u = 1 - v
    assert float(u.coefficient(0)) == pytest.approx(0.0)
    assert float(u.coefficient(1)) == pytest.approx(-2.0)


coeff = st.floats(min_value=-10, max_value=10, allow_nan=False)
series = st.builds(
    lambda cs, p: LaurentValue(cs, p, window=(-8, 8)),
    st.lists(coeff, min_size=1, max_size=4),
    st.integers(min_value=-2, max_value=2),
)


def _lv(cs, p=0):
    return LaurentValue(cs, p, window=(-8, 8))


@settings(max_examples=60, deadline=None)
@given(series, series, series)
# b*a and a*b differ in the last ulp unless each order is summed in an
# order that swapping the operands leaves unchanged
@example(_lv([1, -8, 1.921875]), _lv([1.9198698083906436, 1, 1]), _lv([1]))
@example(_lv([1, 8, 1]), _lv([1.4374619609906834, 2, 1.9524314592497483]),
         _lv([1]))
# (a*b)*c loses eps^9 at the window top before c brings it back to eps^8
@example(_lv([1], 5), _lv([1], 4), _lv([1], -1))
def test_ring_axioms(a, b, c):
    tol = 1e-9
    lhs = as_dict((a + b) * c)
    rhs = as_dict(a * c + b * c)
    for p in set(lhs) | set(rhs):
        assert lhs.get(p, 0.0) == pytest.approx(rhs.get(p, 0.0), abs=tol, rel=tol)
    assert as_dict(a * b) == as_dict(b * a)
    # an order dropped above the window top can be carried back into the
    # window by a factor of negative order, so only orders below that reach
    # are checked
    top = 8 + min(0, a.pmin, b.pmin, c.pmin)
    lhs = as_dict((a * b) * c)
    rhs = as_dict(a * (b * c))
    for p in set(lhs) | set(rhs):
        if p <= top:
            assert lhs.get(p, 0.0) == pytest.approx(rhs.get(p, 0.0),
                                                    abs=tol, rel=tol)


def test_mpf_product_commutes_bitwise():
    g = gamma_laurent(RegularizedArgument(2.5, 1.0), window=WIDE)
    r = reciprocal_gamma_laurent(RegularizedArgument(-1.5, 0.5), window=WIDE)
    gr, rg = g * r, r * g
    assert all(isinstance(c, mpmath.mpf) for c in gr.coeffs)
    assert gr.items() == rg.items()


@settings(max_examples=60, deadline=None)
@given(series)
def test_reciprocal_roundtrip(a):
    if a.is_zero() or abs(a.coeffs[next(
            i for i, c in enumerate(a.coeffs) if c != 0)]) < 1e-3:
        return
    prod = a * a.reciprocal()
    # within the shared window the product must be 1 at the orders the
    # truncated inverse can resolve
    assert float(prod.coefficient(0)) == pytest.approx(1.0, rel=1e-7)


# ---------------------------------------------------------------------------
# gamma / reciprocal gamma
# ---------------------------------------------------------------------------

def test_gamma_regular_point_matches_mpmath():
    v = gamma_laurent(RegularizedArgument(2.5, 1.0), window=WIDE)
    assert float(v.coefficient(0)) == pytest.approx(math.gamma(2.5), rel=1e-14)
    assert float(v.coefficient(1)) == pytest.approx(
        float(mpmath.gamma(2.5) * mpmath.digamma(2.5)), rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_gamma_pole_leading_coefficient(n):
    # Gamma(-n + s*eps) ~ (-1)^n / (n! s) * eps^-1
    s = 0.5
    v = gamma_laurent(RegularizedArgument(-n, s), window=WIDE)
    want = (-1) ** n / (math.factorial(n) * s)
    assert float(v.coefficient(-1)) == pytest.approx(want, rel=1e-14)


def test_gamma_pole_expansion_vs_recursion_oracle():
    # compare the full expansion at base -2 against
    # Gamma(-2 + x) = Gamma(1 + x) / (x (x - 1) (x - 2)) sampled at small x
    s = 0.5
    v = gamma_laurent(RegularizedArgument(-2, s), window=WIDE)
    for x in (1e-3, -2e-3, 5e-4):
        direct = float(mpmath.gamma(-2 + s * x))
        series_val = sum(float(c) * x ** p for p, c in v.items())
        assert series_val == pytest.approx(direct, rel=1e-8)


def test_gamma_pole_without_regularizer_raises():
    with pytest.raises(PoleWithoutRegularizer):
        gamma_laurent(RegularizedArgument(-3, 0.0))


def test_reciprocal_gamma_exact_zero_at_unregularized_pole():
    v = reciprocal_gamma_laurent(RegularizedArgument(-2, 0.0), window=WIDE)
    assert v.is_zero()


def test_reciprocal_gamma_near_pole_linear_in_eps():
    # 1/Gamma(-n + s eps) ~ (-1)^n n! s eps
    v = reciprocal_gamma_laurent(RegularizedArgument(-3, 2.0), window=WIDE)
    assert float(v.coefficient(0)) == pytest.approx(0.0, abs=1e-25)
    assert float(v.coefficient(1)) == pytest.approx(-math.factorial(3) * 2.0,
                                                    rel=1e-13)


def test_gamma_reflection_formula():
    # Gamma(z) Gamma(1 - z) = pi / sin(pi z) order by order in eps for
    # z = 0.3 + 0.7 eps
    base, slope = 0.3, 0.7
    g1 = gamma_laurent(RegularizedArgument(base, slope), window=WIDE)
    g2 = gamma_laurent(RegularizedArgument(1 - base, -slope), window=WIDE)
    prod = g1 * g2
    with mpmath.workdps(40):
        ref = mpmath.taylor(
            lambda e: mpmath.pi / mpmath.sin(mpmath.pi * (base + slope * e)),
            0, 4)
    for p in range(0, 5):
        assert float(prod.coefficient(p)) == pytest.approx(
            float(ref[p]), rel=1e-12)


def test_default_window_is_published():
    assert DEFAULT_WINDOW[0] < 0 < DEFAULT_WINDOW[1]
