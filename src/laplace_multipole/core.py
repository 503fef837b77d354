"""Closed-form multipole matrix elements of the Laplace Green function.

Reduced elements g^j_{l,l'}(R) for two spheres of equal radius a, in the
non-overlap (R >= 2a, power law) and overlap (R <= 2a, polynomial) regimes,
z-axis and general-orientation canonical elements, and Fourier-space
elements.  regime_of alone validates (R, a) and picks the regime; each
(l, l', j) is reduced once (_reduced) to its prefactor mu, its overlap
polynomial deflated by its zero at contact, and its power-law value at
contact, which every position-space closed form reads.

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
from functools import cached_property, lru_cache

from .errors import PoleResidueError, RegimeError, ZeroWaveVector
from .specfun import (MultipoleIndex, _check_integer_orders,
                      _legendre_column, spherical_bessel_j, wigner_3j,
                      wigner_3j_float)

_SQRT_PI3 = math.pi ** 1.5
_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)  # i^n at n % 4


@dataclass(frozen=True)
class ReducedIndex:
    """Reduced-element label (l, l', j) with |l-l'| <= j <= l+l'."""

    l: int
    lp: int
    j: int

    def __post_init__(self):
        _check_integer_orders(self.l, self.lp, self.j)
        # Python ints, so that no numpy integer reaches the exact builds
        for name in ("l", "lp", "j"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if min(self.l, self.lp, self.j) < 0:
            raise ValueError("orders must be non-negative")
        if not abs(self.l - self.lp) <= self.j <= self.l + self.lp:
            raise ValueError(
                f"triangle rule violated: |{self.l}-{self.lp}| <= {self.j} "
                f"<= {self.l}+{self.lp} fails")

    @property
    def parity_even(self) -> bool:
        return (self.l + self.lp + self.j) % 2 == 0

    @property
    def degree(self) -> int:
        """Degree l+l'+1 of the overlap polynomial and of the power law."""
        return self.l + self.lp + 1

    @classmethod
    def admissible(cls, lmax: int) -> list:
        """Every index with l, l' <= lmax and even l+l'+j, in (l, l', j)
        order; ValueError for a negative lmax."""
        _check_integer_orders(lmax)
        if lmax < 0:
            raise ValueError(f"lmax must be non-negative, got {lmax}")
        orders = range(lmax + 1)
        return [cls(l, lp, j) for l in orders for lp in orders
                for j in range(abs(l - lp), l + lp + 1, 2)]


def _spherical(vec) -> tuple:
    """(r, theta, phi) of a 3-vector; ValueError unless its length is finite."""
    x, y, z = map(float, vec)
    r = math.hypot(x, y, z)
    if not math.isfinite(r):
        raise ValueError(f"vector must have a finite length, got {tuple(vec)}")
    return r, math.acos(z / r) if r > 0 else 0.0, math.atan2(y, x)


@dataclass(frozen=True)
class SphereGeometry:
    """Separation of the two sphere centres in spherical coordinates plus radius."""

    R: float
    theta: float
    phi: float
    a: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError(f"geometry must be finite, got {self}")
        regime_of(self.R, self.a)

    @classmethod
    def from_vector(cls, Rvec, a: float) -> "SphereGeometry":
        return cls(*_spherical(Rvec), a=a)

    @cached_property
    def _direction(self) -> tuple:
        """(regime, R/a, cos theta, |sin theta|, columns by (m'-m, l+l'))."""
        return (regime_of(self.R, self.a), self.R / self.a,
                math.cos(self.theta), abs(math.sin(self.theta)), {})

    def __getstate__(self) -> dict:  # pickle the four fields, not the memo
        return {k: v for k, v in self.__dict__.items() if k != "_direction"}


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
    when any part is left.  evaluate raises RegimeError beyond R = 2a.
    """

    degree: int
    coefficients: tuple
    scale: float
    a: float
    residue: float

    def evaluate(self, R: float) -> float:
        if regime_of(R, self.a) == "nonoverlap":
            raise RegimeError(f"overlap polynomial needs 0 <= R <= 2a, "
                              f"got R={R}, a={self.a}")
        return self.scale * _horner(self.coefficients, R / self.a)


# ---------------------------------------------------------------------------
# mu coefficient
# ---------------------------------------------------------------------------

def mu_coefficient(idx: ReducedIndex) -> float:
    """Prefactor of the triple-Bessel integral in the reduced element.

    mu = (2/pi) (-i)^(-l+l'+j) (-1)^j (2j+1) sqrt((2l+1)(2l'+1)) (l l' j; 0 0 0);
    real because the 3-j forces l+l'+j even, and exactly zero otherwise.
    """
    tj = wigner_3j(idx.l, idx.lp, idx.j, 0, 0, 0)
    if not tj:
        return 0.0
    phase = _I_POWERS[(idx.l - idx.lp + idx.j) % 4].real  # (-i)^(-l+l'+j) (-1)^j
    return (2.0 / math.pi * phase * (2 * idx.j + 1)
            * math.sqrt((2 * idx.l + 1) * (2 * idx.lp + 1)) * tj.to_float())


# ---------------------------------------------------------------------------
# triple-Bessel integral, non-overlap regime
# ---------------------------------------------------------------------------

def triple_bessel_nonoverlap(idx: ReducedIndex, R: float, a: float) -> float:
    """int_0^inf j_j(kR) j_l(ka) j_l'(ka) dk for R >= 2a.

    Vanishes unless j = l + l'; otherwise a pure (a/R)^(l+l'+1) power law.
    """
    if regime_of(R, a) == "overlap":
        raise RegimeError(f"non-overlap branch needs R >= 2a, got R={R}, a={a}")
    l, lp, j = idx.l, idx.lp, idx.j
    if j != l + lp:
        return 0.0
    return (_SQRT_PI3 / (8 * a) * (a / R) ** idx.degree
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


def _overlap_assembly(l: int, lp: int, j: int) -> tuple:
    """The overlap polynomial of int_0^inf j_j(k rho) j_l(k) j_l'(k) dk, built
    exactly in integers: N_p and Q with pi N_p / Q the coefficient of rho^p.

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
    return tuple(x // g for x in numerators), denominator // g


def _horner(coefficients, t: float) -> float:
    acc = 0.0
    for c in reversed(coefficients):
        acc = acc * t + c
    return acc


@lru_cache(maxsize=65536)
def triple_bessel_overlap(idx: ReducedIndex, R: float, a: float) -> float:
    """int_0^inf j_j(kR) j_l(ka) j_l'(ka) dk for 0 <= R <= 2a and even
    l+l'+j (ValueError otherwise), read from the per-(l, l', j) record as
    (2 - R/a)^k q(R/a) / a."""
    if regime_of(R, a) == "nonoverlap":
        raise RegimeError(f"overlap branch needs 0 <= R <= 2a, got R={R}, a={a}")
    if not idx.parity_even:
        raise ValueError(f"overlap polynomial defined for even l+l'+j only, "
                         f"got {idx}")
    _, k, quotient, _ = _reduced(idx.l, idx.lp, idx.j)
    rho = R / a
    return (2 - rho) ** k * _horner(quotient, rho) / a


# ---------------------------------------------------------------------------
# regime and reduced elements
# ---------------------------------------------------------------------------

def regime_of(R: float, a: float) -> str:
    """Regime label of separation R for spheres of radius a: overlap
    (R < 2a), boundary (R = 2a) or nonoverlap.  The one check of (R, a):
    ValueError unless a is finite and positive and R finite and
    non-negative."""
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"sphere radius must be finite and positive, got a={a}")
    if not (math.isfinite(R) and R >= 0):
        raise ValueError(f"separation must be finite and non-negative, got R={R}")
    if R < 2 * a:
        return "overlap"
    return "boundary" if R == 2 * a else "nonoverlap"


@lru_cache(maxsize=None)
def _reduced(l: int, lp: int, j: int) -> tuple:
    """The record (mu, k, q, contact) of g^j_{l,l'} = mu a^(l+l'+2) *
    triple-Bessel integral, built once.  For a = 1 the integral is
    (2 - rho)^k q(rho) below contact rho = 2, k the multiplicity of its zero
    there, and contact its value at R = 2, which the power law scales by
    (2a/R)^(l+l'+1).  Odd l+l'+j (mu = 0) gives (0.0, 0, (), 0.0).

    Horner on the expanded polynomial loses its zero at contact (a double
    one for every j < l+l') to cancellation, so (2 - rho)^k is divided out
    of the exact numerators N_p by synthetic division and applied in floats."""
    idx = ReducedIndex(l, lp, j)
    mu = mu_coefficient(idx)
    if mu == 0.0:
        return 0.0, 0, (), 0.0
    numerators, denominator = _overlap_assembly(l, lp, j)
    k = 0
    while not sum(x * 2 ** p for p, x in enumerate(numerators)):
        quotient, acc = [], 0  # N(rho) = (2 - rho) * quotient(rho)
        for x in reversed(numerators[1:]):
            acc = 2 * acc + x
            quotient.append(-acc)
        numerators, k = quotient[::-1], k + 1
    return (mu, k, tuple(math.pi * (x / denominator) for x in numerators),
            triple_bessel_nonoverlap(idx, 2.0, 1.0))


def g_reduced(idx: ReducedIndex, R: float, a: float) -> ReducedElement:
    """Reduced element g^j_{l,l'}(R) = mu a^(l+l'+2) * triple-Bessel integral,
    from the per-(l, l', j) record: (2 - R/a)^k q(R/a) below contact, the
    stretched power law from R = 2a on."""
    regime = regime_of(R, a)
    mu, k, quotient, contact = _reduced(idx.l, idx.lp, idx.j)
    if regime == "overlap":
        rho = R / a
        value = (2 - rho) ** k * _horner(quotient, rho)
    else:
        value = contact * (2 * a / R) ** idx.degree
    return ReducedElement(idx, R, a, mu * a ** idx.degree * value, regime)


def overlap_polynomial(idx: ReducedIndex, a: float) -> RadialPolynomial:
    """Exact polynomial representation of the overlap-regime reduced element:
    g = a^(l+l'+1) * sum_n mu c_n (R/a)^n, expanded; its degree is that
    of the built coefficients, and its residue 0.0, since the build raises
    PoleResidueError for any other.  Even l+l'+j only (ValueError)."""
    regime_of(0.0, a)
    mu = mu_coefficient(idx)
    numerators, denominator = _overlap_assembly(idx.l, idx.lp, idx.j)
    coefficients = tuple(mu * (math.pi * (x / denominator)) for x in numerators)
    return RadialPolynomial(len(coefficients) - 1, coefficients,
                            a ** idx.degree, a, residue=0.0)


# ---------------------------------------------------------------------------
# matrix elements
# ---------------------------------------------------------------------------

def matrix_element_zaxis(lm: MultipoleIndex, lpmp: MultipoleIndex,
                         R: float, a: float) -> complex:
    """Canonical element G_{lm,l'm'}(R e_z); m-diagonal and real."""
    regime_of(R, a)
    if lm.m != lpmp.m:
        return 0.0 + 0.0j
    l, lp, m = lm.l, lpmp.l, lm.m
    acc = 0.0
    for j in range(abs(l - lp), l + lp + 1):
        tj = wigner_3j_float(l, lp, j, m, -m, 0)
        if tj == 0.0:
            continue
        acc += tj * g_reduced(ReducedIndex(l, lp, j), R, a).value
    return complex((-1 if m % 2 else 1) * acc)


@lru_cache(maxsize=None)
def _channel_plan(l: int, m: int, lp: int, mp: int) -> tuple:
    """What matrix_element needs of the channel pair (l m, l' m') apart from
    R and the direction: (terms, contact), with per surviving j the term
    (j - |m'-m|, weight, k, quotient), the weight
    (-1)^m' sqrt(4 pi/(2j+1)) (j l l'; m'-m, m, -m') mu and the deflated
    overlap polynomial (2 - R/a)^k quotient(R/a) of _reduced; and the
    stretched (j = l+l') weight times its contact value for a = 1, which the
    power law scales by (2a/R)^(l+l'+1)."""
    m1 = mp - m
    terms, contact = [], 0.0
    for j in range(max(abs(l - lp), abs(m1)), l + lp + 1):
        mu, k, quotient, at_contact = _reduced(l, lp, j)
        weight = ((-1 if mp % 2 else 1) * math.sqrt(4 * math.pi / (2 * j + 1))
                  * wigner_3j_float(j, l, lp, m1, m, -mp) * mu)
        if weight == 0.0:
            continue
        terms.append((j - abs(m1), weight, k, quotient))
        contact += weight * at_contact
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
    (_channel_plan); a call evaluates one deflated polynomial per j in the
    overlap regime, or the stretched power law from R = 2a on, and one
    Legendre column, since every term shares m'-m.  Elements at one
    geometry object share its regime, cos and sin of theta and its Legendre
    columns, one per (m'-m, l+l'), kept for its lifetime: build one
    SphereGeometry per block and reuse it (81 columns per lmax-4 block)."""
    l, lp, m1 = lm.l, lpmp.l, lpmp.m - lm.m
    terms, contact = _channel_plan(l, lm.m, lp, lpmp.m)
    if not terms:
        return 0.0 + 0.0j
    regime, rho, x, s, columns = geom._direction
    column = columns.get((m1, l + lp))
    if column is None:
        column = columns[m1, l + lp] = _legendre_column(m1, l + lp, x, s)
    a, degree = geom.a, l + lp + 1
    if regime == "overlap":
        acc = 0.0
        for n, weight, k, quotient in terms:
            acc += weight * (2 - rho) ** k * _horner(quotient, rho) * column[n]
    else:
        acc = contact * (2 * a / geom.R) ** degree * column[-1]
    return a ** degree * acc * cmath.exp(1j * m1 * geom.phi)


# ---------------------------------------------------------------------------
# Fourier space
# ---------------------------------------------------------------------------

def _j_over_k(l: int, k: float, a: float) -> float:
    """j_l(ka) / k; below ka = 1e-8, where j_l(ka) = (ka)^l / (2l+1)!! to the
    last bit, formed with ka / k = a first, so no subnormal j_l is divided."""
    x = k * a
    if x >= 1e-8 or not l:
        return spherical_bessel_j(l, x) / k
    return math.prod((x / (2 * i + 1) for i in range(2, l + 1)), start=a / 3)


def _omega_real(lm, bessel: float, x: float, s: float, a: float) -> float:
    """4 pi a^(l+1) bessel Y_lm(theta, 0) at x = cos(theta), s = sin(theta)."""
    return (4 * math.pi * a ** (lm.l + 1) * bessel
            * _legendre_column(lm.m, lm.l, x, s)[-1])


def _finite(value: complex) -> complex:
    if not cmath.isfinite(value):
        raise OverflowError("Fourier element exceeds the float range")
    return value


def omega_hat(lm: MultipoleIndex, kvec, a: float) -> complex:
    """Fourier transform of the surface multipole density:
    4 pi a^(l+1) (-i)^l j_l(ka) Y_lm(khat)."""
    regime_of(0.0, a)  # checks the radius
    k, theta, phi = _spherical(kvec)
    return _I_POWERS[-lm.l % 4] * cmath.exp(1j * lm.m * phi) * _omega_real(
        lm, spherical_bessel_j(lm.l, k * a), math.cos(theta), math.sin(theta), a)


def fourier_matrix_element(lm: MultipoleIndex, lpmp: MultipoleIndex,
                           kvec, a: float) -> complex:
    """Fourier-space element conj(omega_hat_lm(k)) omega_hat_l'm'(k) / k^2 from
    one conversion of k, one cos and sin of theta and one phase i^(l-l')
    e^(i(m'-m)phi).  Each factor is divided by k first, so the element is
    finite as k underflows where its true value is; OverflowError past floats."""
    regime_of(0.0, a)  # checks the radius
    k, theta, phi = _spherical(kvec)
    if k == 0.0:
        raise ZeroWaveVector("Fourier element diverges as 1/k^2 at k = 0")
    x, s, l, lp = math.cos(theta), math.sin(theta), lm.l, lpmp.l
    return _finite(_omega_real(lm, _j_over_k(l, k, a), x, s, a)
                   * _omega_real(lpmp, _j_over_k(lp, k, a), x, s, a)
                   * _I_POWERS[(l - lp) % 4]
                   * cmath.exp(1j * (lpmp.m - lm.m) * phi))


def g_tilde(idx: ReducedIndex, k: float, a: float) -> complex:
    """Fourier-space reduced element 2 pi^2 (-i)^j mu a^(l+l'+2)
    j_l(ka) j_l'(ka) / k^2, divided by k per Bessel factor as in
    fourier_matrix_element (OverflowError past the float range)."""
    regime_of(0.0, a)  # checks the radius
    if not math.isfinite(k):
        raise ValueError(f"wave number must be finite, got k={k}")
    if k <= 0.0:
        raise ZeroWaveVector("g_tilde requires k > 0")
    return _finite(2 * math.pi ** 2 * _I_POWERS[-idx.j % 4]
                   * mu_coefficient(idx) * a ** (idx.degree + 1)
                   * _j_over_k(idx.l, k, a) * _j_over_k(idx.lp, k, a))
