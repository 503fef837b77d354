"""Closed-form multipole matrix elements of the Laplace Green function.

Reduced elements g^j_{l,l'}(R) for two spheres of equal radius a, in the
non-overlap (R >= 2a, power law) and overlap (R <= 2a, polynomial) regimes,
the canonical <-> j-basis transforms, Fourier-space elements, and
general-orientation elements assembled through Wigner rotations.

The overlap regime is a polynomial of degree l+l'+1 in rho = R/a, the
finite part of a three-term regularized 4F3 assembly in Laurent arithmetic
with the shift eps attached to the reduced index j.  Term k of each series
lands on one power of rho, and terms past the degree are O(eps), so each
(l, l', j) is built once from finitely many terms, power by power, with the
negative orders checked to cancel at every power (compare the finite closed
forms of Mehrem, Londergan & Macfarlane, J. Phys. A 24 (1991) 1435).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath

from .errors import (NotDiagonal, PoleResidueError, RegimeError,
                     ZeroWaveVector)
from .laurent import (_DPS, LaurentValue, RegularizedArgument, gamma_laurent,
                      reciprocal_gamma_laurent)
from .specfun import (MultipoleIndex, _check_integer_orders,
                      spherical_bessel_j, spherical_harmonic, wigner_3j,
                      wigner_3j_float)

_SQRT_PI3 = math.pi ** 1.5


@dataclass(frozen=True)
class ReducedIndex:
    """Reduced-element label (l, l', j) with |l-l'| <= j <= l+l'."""

    l: int
    lp: int
    j: int

    def __post_init__(self):
        _check_integer_orders(self.l, self.lp, self.j)
        if min(self.l, self.lp, self.j) < 0:
            raise ValueError("orders must be non-negative")
        if not abs(self.l - self.lp) <= self.j <= self.l + self.lp:
            raise ValueError(
                f"triangle rule violated: |{self.l}-{self.lp}| <= {self.j} "
                f"<= {self.l}+{self.lp} fails")

    @property
    def parity_even(self) -> bool:
        return (self.l + self.lp + self.j) % 2 == 0


@dataclass(frozen=True)
class SphereGeometry:
    """Separation of the two sphere centres in spherical coordinates plus radius."""

    R: float
    theta: float
    phi: float
    a: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.R, self.theta, self.phi, self.a))):
            raise ValueError(f"geometry must be finite, got {self}")
        if self.a <= 0:
            raise ValueError("sphere radius must be positive")
        if self.R < 0:
            raise ValueError("separation must be non-negative")

    @classmethod
    def from_vector(cls, Rvec, a: float) -> "SphereGeometry":
        x, y, z = (float(c) for c in Rvec)
        R = math.sqrt(x * x + y * y + z * z)
        theta = math.acos(z / R) if R > 0 else 0.0
        phi = math.atan2(y, x)
        return cls(R=R, theta=theta, phi=phi, a=a)


@dataclass(frozen=True)
class ReducedElement:
    index: ReducedIndex
    R: float
    a: float
    value: float
    regime: str  # overlap | nonoverlap | boundary


@dataclass(frozen=True)
class RadialPolynomial:
    """g^j_{l,l'}(R) = scale * sum_n coefficients[n] * (R/a)^n on the overlap range.

    scale carries the dimensional factor a^(l+l'+1); coefficients are
    dimensionless.  The trailing coefficient is nonzero unless the
    polynomial is identically zero.  residue is the pole-cancellation
    residue of the build: the largest negative-order Laurent coefficient
    left at any power, relative to that power's finite part (the build
    fails above 1e-8).
    """

    degree: int
    coefficients: tuple
    scale: float
    a: float
    residue: float

    def evaluate(self, R: float) -> float:
        return self.scale * _horner(self.coefficients, R / self.a)


# ---------------------------------------------------------------------------
# mu coefficient
# ---------------------------------------------------------------------------

def mu_coefficient(idx: ReducedIndex) -> float:
    """Prefactor of the triple-Bessel integral in the reduced element.

    mu = (2/pi) (-i)^(-l+l'+j) (-1)^j (2j+1) sqrt((2l+1)(2l'+1)) (l l' j; 0 0 0);
    real because the 3-j forces l+l'+j even, and exactly zero otherwise.
    """
    if not idx.parity_even:
        return 0.0
    tj = wigner_3j(idx.l, idx.lp, idx.j, 0, 0, 0)
    if not tj:
        return 0.0
    e = -idx.l + idx.lp + idx.j  # even here
    phase = (-1 if (e // 2) % 2 else 1) * (-1) ** idx.j
    return (2.0 / math.pi * phase * (2 * idx.j + 1)
            * math.sqrt((2 * idx.l + 1) * (2 * idx.lp + 1)) * tj.to_float())


# ---------------------------------------------------------------------------
# triple-Bessel integral, non-overlap regime
# ---------------------------------------------------------------------------

def triple_bessel_nonoverlap(idx: ReducedIndex, R: float, a: float) -> float:
    """int_0^inf j_j(kR) j_l(ka) j_l'(ka) dk for R >= 2a.

    Vanishes unless j = l + l'; otherwise a pure (a/R)^(l+l'+1) power law.
    """
    if R < 2 * a:
        raise RegimeError(f"non-overlap branch needs R >= 2a, got R={R}, a={a}")
    l, lp, j = idx.l, idx.lp, idx.j
    if j != l + lp:
        return 0.0
    return (_SQRT_PI3 / (8 * a) * (a / R) ** (l + lp + 1)
            * math.gamma(0.5 + l + lp)
            / (math.gamma(1.5 + l) * math.gamma(1.5 + lp)))


# ---------------------------------------------------------------------------
# triple-Bessel integral, overlap regime (regularized 4F3 assembly)
# ---------------------------------------------------------------------------

_RESIDUE_TOL = 1e-8


def _series_parameters(l: int, lp: int, j: int):
    """Upper and lower 4F3 parameters of the three series, eps attached to j."""
    A = RegularizedArgument
    half = 0.5
    return [
        ([A((-l - lp) / 2), A((1 + l - lp) / 2), A((1 - l + lp) / 2),
          A((2 + l + lp) / 2)],
         [A(half), A((3 - j) / 2, -half), A((4 + j) / 2, half)]),
        ([A((j - l - lp - 1) / 2, half), A((j + l - lp) / 2, half),
          A((j + lp - l) / 2, half), A((l + lp + j + 1) / 2, half)],
         [A((1 + j) / 2, half), A(j / 2, half), A(1.5 + j, 1.0)]),
        ([A((1 - l - lp) / 2), A((2 + l - lp) / 2), A((2 + lp - l) / 2),
          A((3 + l + lp) / 2)],
         [A(1.5), A((4 - j) / 2, -half), A((5 + j) / 2, half)]),
    ]


# coefficient Laurents; constants corrected against the independent
# Hankel quadrature oracle (see tests)
def _coef_alpha(l: int, lp: int, j: int) -> LaurentValue:
    A = RegularizedArgument
    out = gamma_laurent(A((j - 1) / 2, 0.5))
    out = out * reciprocal_gamma_laurent(A((1 + lp - l) / 2))
    out = out * reciprocal_gamma_laurent(A((1 + l - lp) / 2))
    out = out * reciprocal_gamma_laurent(A((j + 4) / 2, 0.5))
    return out * mpmath.mpf(2) ** -3


def _coef_beta(l: int, lp: int, j: int) -> LaurentValue:
    A = RegularizedArgument
    out = gamma_laurent(A(1 - j, -1.0))
    out = out * gamma_laurent(A((1 + l + lp + j) / 2, 0.5))
    out = out * reciprocal_gamma_laurent(A((3 + l + lp - j) / 2, -0.5))
    out = out * reciprocal_gamma_laurent(A((2 + lp - l - j) / 2, -0.5))
    out = out * reciprocal_gamma_laurent(A((2 + l - lp - j) / 2, -0.5))
    out = out * reciprocal_gamma_laurent(A(1.5 + j, 1.0))
    return out * mpmath.mpf(2) ** -2


def _coef_gamma(l: int, lp: int, j: int) -> LaurentValue:
    A = RegularizedArgument
    out = gamma_laurent(A((j - 2) / 2, 0.5))
    out = out * reciprocal_gamma_laurent(A((lp - l) / 2))
    out = out * reciprocal_gamma_laurent(A((l - lp) / 2))
    out = out * reciprocal_gamma_laurent(A((5 + j) / 2, 0.5))
    return out * (mpmath.mpf(2) ** -4 * (l + lp + 1))


def _overlap_terms(l: int, lp: int, j: int, top: int) -> list:
    """Terms (i, n, Laurent) of the three 4F3 series whose power n of
    rho = R/a is at most top; the integral is pi^1.5 / (2a) times the sum of
    Laurent * rho^n over all terms.

    With x = rho^2 / 4, term k carries 4^-k and lands on rho^(2k+1)
    (series 1, i = 0), rho^(j+2k) (series 2, i = 1, which also carries
    rho^eps) or rho^(2k+2) (series 3, i = 2, subtracted).
    """
    first = (1, j, 2)
    sign = (1, 1, -1)
    out = []
    with mpmath.workdps(_DPS):
        coefs = [_coef_alpha(l, lp, j), _coef_beta(l, lp, j),
                 _coef_gamma(l, lp, j)]
        one = LaurentValue.constant(mpmath.mpf(1))
        for i, (ups, downs) in enumerate(_series_parameters(l, lp, j)):
            coef = coefs[i]
            num, den, kfact = one, one, mpmath.mpf(1)
            k = 0
            while first[i] + 2 * k <= top:
                if k == 0:
                    term = coef
                else:
                    for p in ups:
                        num = num * LaurentValue.linear(
                            mpmath.mpf(p.base) + (k - 1), mpmath.mpf(p.slope))
                    for p in downs:
                        den = den * LaurentValue.linear(
                            mpmath.mpf(p.base) + (k - 1), mpmath.mpf(p.slope))
                    kfact *= k
                    if num.is_zero() or coef.is_zero():
                        term = LaurentValue.zero()
                    else:
                        term = coef * num * den.reciprocal() * (1 / kfact)
                out.append((i, first[i] + 2 * k,
                            term * (sign[i] * mpmath.mpf(4) ** -k)))
                k += 1
    return out


@lru_cache(maxsize=None)
def _overlap_assembly(l: int, lp: int, j: int) -> tuple:
    """Assemble the overlap polynomial of degree l+l'+1 from the finitely
    many series terms that reach it, checking pole cancellation per power.
    Returns the coefficients (the finite part of each power's Laurent sum
    times pi^1.5 / 2) and the largest relative residue of any power.

    Only even l+l'+j has one: for odd l+l'+j the series-2 terms have poles,
    so rho^eps leaves ln(R/a) terms, and mu = 0 makes g_reduced vanish.
    """
    if (l + lp + j) % 2:
        raise ValueError(
            f"overlap polynomial defined for even l+l'+j only, got "
            f"(l={l}, l'={lp}, j={j})")
    degree = l + lp + 1
    sums = [LaurentValue.zero()] * (degree + 1)
    with mpmath.workdps(_DPS):
        for series, n, term in _overlap_terms(l, lp, j, degree):
            # a pole in a series-2 term would leave ln(rho) at eps^0
            # through rho^eps
            if series == 1 and any(c != 0 for p, c in term.items() if p < 0):
                raise PoleResidueError(
                    f"series-2 term of rho^{n} for (l={l}, l'={lp}, j={j}) "
                    f"has a pole")
            sums[n] = sums[n] + term
        coefficients = []
        worst = 0.0
        for n, total in enumerate(sums):
            residue = total.negative_order_residue()
            if residue > _RESIDUE_TOL:
                raise PoleResidueError(
                    f"pole cancellation failed for (l={l}, l'={lp}, j={j}) at "
                    f"rho^{n}: relative residue {residue:.3e}")
            worst = max(worst, residue)
            coefficients.append(_SQRT_PI3 / 2 * float(total.coefficient(0)))
    return tuple(coefficients), worst


def _horner(coefficients, t: float) -> float:
    acc = 0.0
    for c in reversed(coefficients):
        acc = acc * t + c
    return acc


@lru_cache(maxsize=65536)
def triple_bessel_overlap(idx: ReducedIndex, R: float, a: float) -> float:
    """int_0^inf j_j(kR) j_l(ka) j_l'(ka) dk for 0 <= R <= 2a and even
    l+l'+j (ValueError otherwise).

    Horner evaluation of the cached polynomial of degree l+l'+1 in R/a,
    whose build raises PoleResidueError when the poles fail to cancel.
    """
    if not 0 <= R <= 2 * a:
        raise RegimeError(f"overlap branch needs 0 <= R <= 2a, got R={R}, a={a}")
    coefficients, _ = _overlap_assembly(idx.l, idx.lp, idx.j)
    return _horner(coefficients, R / a) / a


# ---------------------------------------------------------------------------
# reduced elements and polynomials
# ---------------------------------------------------------------------------

def regime_of(R: float, a: float) -> str:
    """Regime label of separation R for spheres of radius a: overlap
    (R < 2a), boundary (R = 2a) or nonoverlap; ValueError for non-finite or
    out-of-range input."""
    if not (math.isfinite(R) and math.isfinite(a)):
        raise ValueError(f"separation and radius must be finite, got R={R}, a={a}")
    if a <= 0:
        raise ValueError("sphere radius must be positive")
    if R < 0:
        raise ValueError("separation must be non-negative")
    if R < 2 * a:
        return "overlap"
    return "boundary" if R == 2 * a else "nonoverlap"


def g_reduced(idx: ReducedIndex, R: float, a: float) -> ReducedElement:
    """Reduced element g^j_{l,l'}(R) = mu a^(l+l'+2) * triple-Bessel integral."""
    regime = regime_of(R, a)
    mu = mu_coefficient(idx)
    if mu == 0.0:
        return ReducedElement(idx, R, a, 0.0, regime)
    if regime == "overlap":
        integral = triple_bessel_overlap(idx, R, a)
    else:
        integral = triple_bessel_nonoverlap(idx, R, a)
    value = mu * a ** (idx.l + idx.lp + 2) * integral
    return ReducedElement(idx, R, a, value, regime)


def overlap_polynomial(idx: ReducedIndex, a: float) -> RadialPolynomial:
    """Exact polynomial representation of the overlap-regime reduced element:
    g = a^(l+l'+1) * sum_n mu c_n (R/a)^n, from the cached assembly, with
    the assembly's pole-cancellation residue; even l+l'+j only."""
    degree = idx.l + idx.lp + 1
    mu = mu_coefficient(idx)
    coefficients, residue = _overlap_assembly(idx.l, idx.lp, idx.j)
    return RadialPolynomial(degree, tuple(mu * c for c in coefficients),
                            a ** degree, a, residue)


# ---------------------------------------------------------------------------
# basis transforms
# ---------------------------------------------------------------------------

_DIAG_TOL = 1e-10


def j_basis_from_canonical(l: int, lp: int, values) -> dict:
    """g^j = (2j+1) sum_m (-1)^m (l l' j; m -m 0) G_{lm,l'm} from a
    mapping (m, mp) -> complex of z-axis canonical elements."""
    scale = max((abs(v) for v in values.values()), default=0.0)
    for (m, mp), v in values.items():
        if m != mp and abs(v) > _DIAG_TOL * max(scale, 1e-300):
            raise NotDiagonal(
                f"entry (m={m}, m'={mp}) is {abs(v):.3e}, expected m-diagonal")
    out = {}
    for j in range(abs(l - lp), l + lp + 1):
        acc = 0.0
        for m in range(-min(l, lp), min(l, lp) + 1):
            g = values.get((m, m), 0.0)
            acc += (-1) ** m * wigner_3j_float(l, lp, j, m, -m, 0) * complex(g).real
        out[j] = (2 * j + 1) * acc
    return out


def canonical_from_j_basis(l: int, lp: int, g) -> dict:
    """G_{lm,l'm'}(R e_z) = delta_{m,m'} (-1)^m sum_j (l l' j; m -m 0) g^j."""
    out = {}
    for m in range(-l, l + 1):
        for mp in range(-lp, lp + 1):
            if m != mp:
                out[(m, mp)] = 0.0 + 0.0j
                continue
            acc = 0.0
            for j, gj in g.items():
                acc += wigner_3j_float(l, lp, j, m, -m, 0) * gj
            out[(m, mp)] = complex((-1) ** m * acc)
    return out


# ---------------------------------------------------------------------------
# matrix elements
# ---------------------------------------------------------------------------

def matrix_element_zaxis(lm: MultipoleIndex, lpmp: MultipoleIndex,
                         R: float, a: float) -> complex:
    """Canonical element G_{lm,l'm'}(R e_z); m-diagonal and real."""
    if lm.m != lpmp.m:
        return 0.0 + 0.0j
    l, lp, m = lm.l, lpmp.l, lm.m
    acc = 0.0
    for j in range(abs(l - lp), l + lp + 1):
        tj = wigner_3j_float(l, lp, j, m, -m, 0)
        if tj == 0.0:
            continue
        acc += tj * g_reduced(ReducedIndex(l, lp, j), R, a).value
    return complex((-1) ** m * acc)


def matrix_element(lm: MultipoleIndex, lpmp: MultipoleIndex,
                   geom: SphereGeometry) -> complex:
    """General-orientation element.  The plane-wave expansion of the
    Fourier form reduces the orientation dependence to one spherical
    harmonic of the separation direction per reduced channel:

        G = sum_j (-1)^m' sqrt(4 pi/(2j+1)) (j l l'; m'-m, m, -m')
            g^j(R) Y_{j, m'-m}(theta, phi),

    which collapses to the m-diagonal z-axis form at theta = 0."""
    l, m = lm.l, lm.m
    lp, mp = lpmp.l, lpmp.m
    m1 = mp - m
    acc = 0.0 + 0.0j
    for j in range(abs(l - lp), l + lp + 1):
        if abs(m1) > j:
            continue
        tj = wigner_3j_float(j, l, lp, m1, m, -mp)
        if tj == 0.0:
            continue
        gj = g_reduced(ReducedIndex(l, lp, j), geom.R, geom.a).value
        if gj == 0.0:
            continue
        acc += ((-1) ** mp * math.sqrt(4 * math.pi / (2 * j + 1)) * tj * gj
                * spherical_harmonic(MultipoleIndex(j, m1),
                                     geom.theta, geom.phi))
    return acc


# ---------------------------------------------------------------------------
# Fourier space
# ---------------------------------------------------------------------------

def _khat_angles(kvec):
    kx, ky, kz = (float(c) for c in kvec)
    if not all(map(math.isfinite, (kx, ky, kz))):
        raise ValueError(f"wave vector must be finite, got {tuple(kvec)}")
    k = math.sqrt(kx * kx + ky * ky + kz * kz)
    if k == 0.0:
        return 0.0, 0.0, 0.0
    return k, math.acos(kz / k), math.atan2(ky, kx)


def omega_hat(lm: MultipoleIndex, kvec, a: float) -> complex:
    """Fourier transform of the surface multipole density:
    4 pi a^(l+1) (-i)^l j_l(ka) Y_lm(khat)."""
    k, theta, phi = _khat_angles(kvec)
    l = lm.l
    if k == 0.0:
        return math.sqrt(4 * math.pi) * a if l == 0 else 0.0 + 0.0j
    return (4 * math.pi * a ** (l + 1) * (-1j) ** l
            * spherical_bessel_j(l, k * a)
            * spherical_harmonic(lm, theta, phi))


def fourier_matrix_element(lm: MultipoleIndex, lpmp: MultipoleIndex,
                           kvec, a: float) -> complex:
    """Fourier-space element (4pi)^2 (-i)^(-l+l') a^(l+l'+2)
    j_l(ka) j_l'(ka) / k^2 * conj(Y_lm(khat)) Y_l'm'(khat)."""
    k, theta, phi = _khat_angles(kvec)
    if k == 0.0:
        raise ZeroWaveVector("Fourier element diverges as 1/k^2 at k = 0")
    l, lp = lm.l, lpmp.l
    return ((4 * math.pi) ** 2 * (-1j) ** (lp - l) * a ** (l + lp + 2)
            * spherical_bessel_j(l, k * a) * spherical_bessel_j(lp, k * a)
            / (k * k)
            * spherical_harmonic(lm, theta, phi).conjugate()
            * spherical_harmonic(lpmp, theta, phi))


def g_tilde(idx: ReducedIndex, k: float, a: float) -> complex:
    """Fourier-space reduced element
    4 pi (-i)^(-l+l') (2j+1) sqrt((2l+1)(2l'+1)) a^(l+l'+2) (l l' j;000)
    j_l(ka) j_l'(ka) / k^2."""
    if not math.isfinite(k):
        raise ValueError(f"wave number must be finite, got k={k}")
    if k <= 0.0:
        raise ZeroWaveVector("g_tilde requires k > 0")
    l, lp, j = idx.l, idx.lp, idx.j
    tj = wigner_3j_float(l, lp, j, 0, 0, 0)
    if tj == 0.0:
        return 0.0 + 0.0j
    return (4 * math.pi * (-1j) ** (lp - l) * (2 * j + 1)
            * math.sqrt((2 * l + 1) * (2 * lp + 1)) * a ** (l + lp + 2)
            * tj * spherical_bessel_j(l, k * a) * spherical_bessel_j(lp, k * a)
            / (k * k))
