"""Closed-form multipole matrix elements of the Laplace Green function.

Reduced elements g^j_{l,l'}(R) for two spheres of equal radius a, in the
non-overlap (R >= 2a, power law) and overlap (R <= 2a, polynomial) regimes,
the canonical <-> j-basis transforms, Fourier-space elements, and
general-orientation elements assembled through Wigner rotations.

The overlap regime is a polynomial of degree l+l'+1 in rho = R/a.  Each
spherical Bessel function is a finite sum of x^-p e^(+-ix) with rational
weights, so the triple-Bessel integral is a finite sum of regularized
elementary integrals; each (l, l', j) is built once, exactly in integers,
with the cancellation of every divergent and logarithmic part checked
(compare the finite closed forms of Mehrem, Londergan & Macfarlane,
J. Phys. A 24 (1991) 1435).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import (NotDiagonal, PoleResidueError, RegimeError,
                     ZeroWaveVector)
from .specfun import (MultipoleIndex, _check_integer_orders,
                      _legendre_column, spherical_bessel_j,
                      spherical_harmonic, wigner_3j, wigner_3j_float)

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
        R = math.hypot(x, y, z)
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
    residue of the build, always exactly 0.0: the build cancels the
    divergent and logarithmic parts in integers and raises PoleResidueError
    when any part is left.
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
# triple-Bessel integral, overlap regime (exact elementary build)
# ---------------------------------------------------------------------------

def _bessel_terms(n: int) -> list:
    """Terms (s, k, A) of j_n(x) = sum A / 2^(k+1) * i^(n+1+k) x^-(k+1)
    e^(isx), with integer A (DLMF 10.49.1 through h_n^(1,2))."""
    return [(s, k, (-1) ** (n + 1) * s ** (n + 1 + k) * math.factorial(n + k)
             // (math.factorial(k) * math.factorial(n - k)))
            for s in (1, -1) for k in range(n + 1)]


def _expand(rows: list, c0: int, c1: int) -> list:
    """sum_n rows[n] (c0 + c1 rho)^n by Horner; a row lists powers of rho."""
    acc = [0] * len(rows[0])
    for row in reversed(rows):
        acc = [c0 * x + c1 * y + r for x, y, r in zip(acc, [0] + acc, row)]
    return acc


@lru_cache(maxsize=None)
def _overlap_assembly(l: int, lp: int, j: int) -> tuple:
    """The overlap polynomial of int_0^inf j_j(k rho) j_l(k) j_l'(k) dk, built
    exactly in integers: the float coefficients c_p of rho^p, the residue
    (exactly 0.0) and the integers N_p, Q with c_p = pi N_p / Q.

    The integrand is a finite sum of A rho^-(k1+1) k^-(n+1) e^(ikc) with
    c = s1 rho + d and n = k1+k2+k3+2.  With k^eps attached to every term,
    int k^(s-1) e^(ikc) dk = Gamma(s) e^(i pi s sigma/2) |c|^-s (Gradshteyn &
    Ryzhik 3.761) has the finite part (-1)^n/n! (-i sigma)^n (sigma c)^n
    (1/eps + H_n - gamma - ln|c| + i pi sigma/2) at s = -n, sigma = sign c
    being fixed for 0 < rho < 2.  For even l+l'+j each term's phase is
    i (-1)^((l+l'+j)/2) times a sign, so the 1/eps, gamma, H_n and ln|c|
    parts are imaginary and must cancel: in each log group |c| = rho, 2 + rho,
    2 - rho and in the H_n sum.  The element is the i pi sigma/2 part, with no
    power of rho outside 0..l+l'+1 (PoleResidueError otherwise).
    Odd l+l'+j raises ValueError: there mu = 0 makes g_reduced vanish.
    """
    if (l + lp + j) % 2:
        raise ValueError(f"overlap polynomial defined for even l+l'+j only, "
                         f"got (l={l}, l'={lp}, j={j})")
    degree, top, low = l + lp + 1, l + lp + j + 2, j + 1
    size = low + top  # index i holds rho^(i - low), up to rho^-1 (sigma c)^top
    pair = {}
    for s2, k2, a2 in _bessel_terms(l):
        for s3, k3, a3 in _bessel_terms(lp):
            pair[s2 + s3, k2 + k3] = pair.get((s2 + s3, k2 + k3), 0) + a2 * a3
    # scaled to the common denominator 2^(top+1) top!
    fact = math.factorial(top)
    scale = [2 ** (top - n) * (fact // math.factorial(n)) for n in range(top + 1)]
    harmonic = [sum(fact // i for i in range(1, n + 1)) for n in range(top + 1)]
    # per log group sigma c = c0 + c1 rho: weights of rho^-(k1+1) (sigma c)^n,
    # plain, times top! H_n and times sigma
    groups = {key: [[[0] * size for _ in range(top + 1)] for _ in range(3)]
              for key in ((0, 1), (2, 1), (2, -1))}
    for s1, k1, a1 in _bessel_terms(j):
        for (d, k23), w in pair.items():
            sigma = s1 if d == 0 else (1 if d > 0 else -1)
            n = k1 + k23 + 2
            v = a1 * w * (-sigma) ** n * scale[n]
            for rows, x in zip(groups[sigma * d, sigma * s1],
                               (v, v * harmonic[n], sigma * v)):
                rows[n][low - k1 - 1] += x
    harm, pi_part = [0] * size, [0] * size
    for (c0, c1), rows in groups.items():
        logs, h, p = (_expand(r, c0, c1) for r in rows)
        if any(logs):
            raise PoleResidueError(f"ln|{c0} + {c1} rho| part does not cancel "
                                   f"for (l={l}, l'={lp}, j={j})")
        harm = [x + y for x, y in zip(harm, h)]
        pi_part = [x + y for x, y in zip(pi_part, p)]
    if any(harm) or any(pi_part[:low]) or any(pi_part[low + degree + 1:]):
        raise PoleResidueError(
            f"harmonic-number part or powers of rho outside 0..{degree} do "
            f"not cancel for (l={l}, l'={lp}, j={j})")
    sign = 1 if (l + lp + j) // 2 % 2 else -1  # i (-1)^((l+l'+j)/2) i
    numerators = [sign * x for x in pi_part[low:low + degree + 1]]
    denominator = 2 ** (top + 2) * fact  # with the 2 of i pi sigma/2
    g = math.gcd(denominator, *numerators)
    numerators, denominator = tuple(x // g for x in numerators), denominator // g
    coefficients = tuple(math.pi * (x / denominator) for x in numerators)
    return coefficients, 0.0, numerators, denominator


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
    coefficients = _overlap_assembly(idx.l, idx.lp, idx.j)[0]
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
    coefficients, residue, _, _ = _overlap_assembly(idx.l, idx.lp, idx.j)
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


@lru_cache(maxsize=None)
def _channel_plan(l: int, m: int, lp: int, mp: int) -> tuple:
    """What matrix_element needs of the channel pair (l m, l' m') apart from
    R and the direction: per surviving j, (j, weight, coefficients) with the
    folded weight (-1)^m' sqrt(4 pi/(2j+1)) (j l l'; m'-m, m, -m') mu and
    the overlap polynomial in R/a; and the stretched (j = l+l') weight times
    its triple-Bessel integral at contact for a = 1, which the power law
    scales by (2a/R)^(l+l'+1)."""
    m1 = mp - m
    terms, contact = [], 0.0
    for j in range(max(abs(l - lp), abs(m1)), l + lp + 1):
        idx = ReducedIndex(l, lp, j)
        weight = ((-1) ** mp * math.sqrt(4 * math.pi / (2 * j + 1))
                  * wigner_3j_float(j, l, lp, m1, m, -mp) * mu_coefficient(idx))
        if weight == 0.0:
            continue
        terms.append((j, weight, _overlap_assembly(l, lp, j)[0]))
        if j == l + lp:
            contact = weight * triple_bessel_nonoverlap(idx, 2.0, 1.0)
    return tuple(terms), contact


def matrix_element(lm: MultipoleIndex, lpmp: MultipoleIndex,
                   geom: SphereGeometry) -> complex:
    """General-orientation element.  The plane-wave expansion of the
    Fourier form reduces the orientation dependence to one spherical
    harmonic of the separation direction per reduced channel:

        G = sum_j (-1)^m' sqrt(4 pi/(2j+1)) (j l l'; m'-m, m, -m')
            g^j(R) Y_{j, m'-m}(theta, phi),

    which collapses to the m-diagonal z-axis form at theta = 0.  Everything
    but R and the direction comes from the cached per-channel plan
    (_channel_plan); a call evaluates one polynomial per j in the overlap
    regime, or the stretched power law from R = 2a on, and one Legendre
    column, since every term shares m'-m."""
    l, lp, m1 = lm.l, lpmp.l, lpmp.m - lm.m
    terms, contact = _channel_plan(l, lm.m, lp, lpmp.m)
    if not terms:
        return 0.0 + 0.0j
    R, a, degree = geom.R, geom.a, l + lp + 1
    column = _legendre_column(m1, l + lp, geom.theta)
    if regime_of(R, a) == "overlap":
        rho, acc = R / a, 0.0
        for j, weight, coefficients in terms:
            acc += weight * _horner(coefficients, rho) * column[j - abs(m1)]
    else:
        acc = contact * (2 * a / R) ** degree * column[-1]
    return a ** degree * acc * cmath.exp(1j * m1 * geom.phi)


# ---------------------------------------------------------------------------
# Fourier space
# ---------------------------------------------------------------------------

def _check_radius(a: float) -> None:
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"sphere radius must be finite and positive, got a={a}")


def _khat_angles(kvec):
    kx, ky, kz = (float(c) for c in kvec)
    if not all(map(math.isfinite, (kx, ky, kz))):
        raise ValueError(f"wave vector must be finite, got {tuple(kvec)}")
    k = math.hypot(kx, ky, kz)
    if k == 0.0:
        return 0.0, 0.0, 0.0
    return k, math.acos(kz / k), math.atan2(ky, kx)


def omega_hat(lm: MultipoleIndex, kvec, a: float) -> complex:
    """Fourier transform of the surface multipole density:
    4 pi a^(l+1) (-i)^l j_l(ka) Y_lm(khat)."""
    _check_radius(a)
    k, theta, phi = _khat_angles(kvec)
    l = lm.l
    if k == 0.0:
        return complex(math.sqrt(4 * math.pi) * a) if l == 0 else 0.0 + 0.0j
    return (4 * math.pi * a ** (l + 1) * (-1j) ** l
            * spherical_bessel_j(l, k * a)
            * spherical_harmonic(lm, theta, phi))


def fourier_matrix_element(lm: MultipoleIndex, lpmp: MultipoleIndex,
                           kvec, a: float) -> complex:
    """Fourier-space element (4pi)^2 (-i)^(-l+l') a^(l+l'+2)
    j_l(ka) j_l'(ka) / k^2 * conj(Y_lm(khat)) Y_l'm'(khat)."""
    _check_radius(a)
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
    _check_radius(a)
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
