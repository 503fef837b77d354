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
from .specfun import (MultipoleIndex, _integers, _legendre_column,
                      _legendre_value, _real, spherical_bessel_j, wigner_3j,
                      wigner_3j_float)

_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)  # i^n at n % 4


@dataclass(frozen=True)
class ReducedIndex:
    """Reduced-element label (l, l', j) with |l-l'| <= j <= l+l'."""

    l: int
    lp: int
    j: int

    def __post_init__(self):
        orders = _integers(self.l, self.lp, self.j)
        for name, n in zip(("l", "lp", "j"), orders):
            object.__setattr__(self, name, n)
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
        [lmax] = _integers(lmax)
        if lmax < 0:
            raise ValueError(f"lmax must be non-negative, got {lmax}")
        orders = range(lmax + 1)
        return [cls(l, lp, j) for l in orders for lp in orders
                for j in range(abs(l - lp), l + lp + 1, 2)]


def _spherical(vec) -> tuple:
    """(r, theta, phi) of a 3-vector of real numbers, -0.0 components read as
    0.0 (only atan2 tells the zeros apart); ValueError for any other length or
    component, or unless its length is finite."""
    try:
        x, y, z = (_real("vector component", c) for c in vec)
    except TypeError:  # not iterable
        raise ValueError(f"vector must be a sequence of 3 real numbers, "
                         f"got {vec!r}") from None
    r = math.hypot(x, y, z)
    if not math.isfinite(r):
        raise ValueError(f"vector must have a finite length, got {tuple(vec)}")
    return r, math.acos(z / r) if r > 0 else 0.0, math.atan2(y + 0.0, x + 0.0)


class _Lazy(dict):
    """Values by key, each computed as fill(key) on first use and kept."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _unkey(key: int) -> tuple:
    """The pair (n, L) with |n| <= L of the integer key L^2 + L + n."""
    L = math.isqrt(key)
    return key - L * L - L, L


def _phases(phi: float) -> _Lazy:
    """e^(i n phi) by integer n."""
    return _Lazy(lambda n: cmath.exp(1j * n * phi))


@dataclass(frozen=True)
class SphereGeometry:
    """Centre separation (R, theta in [0, pi], phi) plus sphere radius,
    each stored as a float."""

    R: float
    theta: float
    phi: float
    a: float

    def __post_init__(self):
        theta, phi = _real("theta", self.theta), _real("phi", self.phi)
        if not 0.0 <= theta <= math.pi:
            raise ValueError(f"need 0 <= theta <= pi, got theta={theta!r}")
        _, R, a = _lengths(self.R, self.a)
        for name, value in zip(("R", "theta", "phi", "a"), (R, theta, phi, a)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_vector(cls, Rvec, a: float) -> "SphereGeometry":
        return cls(*_spherical(Rvec), a=a)

    @cached_property
    def _direction(self) -> tuple:
        """(R < 2a, Legendre columns Y_{j,m'-m}(theta, 0) for j = |m'-m| ..
        l+l', radial rows as in matrix_element, phases e^(i(m'-m)phi)), each
        filled on first use by its _channel_plan key."""
        overlap = regime_of(self.R, self.a) == "overlap"
        # the fills hold these floats, not self: a cycle would outlive the block
        a, rho, x, s = (self.a, self.R / self.a, math.cos(self.theta),
                        abs(math.sin(self.theta)))

        def row(key):
            d, n = _unkey(key)
            if not overlap:
                return _power(a * 2 / rho, n + 1)
            lo = (n - d) // 2  # k and q of (l, l', j) are those of (l', l, j)
            return ([_below_contact(*_reduced(lo, n - lo, j)[1:3], rho)
                     for j in range(d, n + 1)] + [_power(a, n + 1)])

        return (overlap,
                _Lazy(lambda key: _legendre_column(*_unkey(key), x, s)),
                _Lazy(row), _phases(self.phi))

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
        regime, R, a = _lengths(R, self.a)
        if regime == "nonoverlap":
            raise RegimeError(f"overlap polynomial needs 0 <= R <= 2a, "
                              f"got R={R}, a={a}")
        return self.scale * _horner(self.coefficients, R / a)


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

    Vanishes unless j = l + l'; otherwise the power law pi/(8a) r
    (2a/R)^(j+1), r = sqrt(pi) Gamma(j+1/2) / (Gamma(l+3/2) Gamma(l'+3/2)
    2^(j+1)) formed as one correctly rounded ratio of integers, so that it
    stays finite where Gamma(j+1/2) alone leaves the floats (j >= 171).
    """
    regime, R, a = _lengths(R, a)
    if regime == "overlap":
        raise RegimeError(f"non-overlap branch needs R >= 2a, got R={R}, a={a}")
    l, lp, j = idx.l, idx.lp, idx.j
    if j != l + lp:
        return 0.0
    f = math.factorial
    r = (16 * f(2 * j) * f(l + 1) * f(lp + 1)
         / (f(j) * f(2 * l + 2) * f(2 * lp + 2) << (j + 1)))
    return math.pi / (8 * a) * r * (2 * a / R) ** idx.degree


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


def _below_contact(k: int, quotient: tuple, rho: float) -> float:
    """(2 - rho)^k q(rho): a _reduced record's integral for a = 1, rho < 2."""
    return (2 - rho) ** k * _horner(quotient, rho)


@lru_cache(maxsize=65536, typed=True)  # typed: True misses 1.0's entry
def triple_bessel_overlap(idx: ReducedIndex, R: float, a: float) -> float:
    """int_0^inf j_j(kR) j_l(ka) j_l'(ka) dk for 0 <= R <= 2a and even
    l+l'+j (ValueError otherwise), read from the per-(l, l', j) record as
    (2 - R/a)^k q(R/a) / a."""
    regime, R, a = _lengths(R, a)
    if regime == "nonoverlap":
        raise RegimeError(f"overlap branch needs 0 <= R <= 2a, got R={R}, a={a}")
    if not idx.parity_even:
        raise ValueError(f"overlap polynomial defined for even l+l'+j only, "
                         f"got {idx}")
    _, k, quotient, _ = _reduced(idx.l, idx.lp, idx.j)
    return _below_contact(k, quotient, R / a) / a


# ---------------------------------------------------------------------------
# regime and reduced elements
# ---------------------------------------------------------------------------

def regime_of(R: float, a: float) -> str:
    """Regime label of separation R for spheres of radius a: overlap
    (R < 2a), boundary (R = 2a) or nonoverlap.  ValueError unless a is
    finite and positive and R finite and non-negative, and for bool or any
    type that is not numbers.Real."""
    return _lengths(R, a)[0]


def _lengths(R, a) -> tuple:
    """(regime_of(R, a), R, a) with R and a as floats: the one check of
    (R, a), after which every closed form computes in floats."""
    R, a = _real("R", R), _real("a", a)
    if not a > 0:
        raise ValueError(f"sphere radius must be finite and positive, got a={a}")
    if not R >= 0:
        raise ValueError(f"separation must be finite and non-negative, got R={R}")
    if R < 2 * a:
        return "overlap", R, a
    return ("boundary" if R == 2 * a else "nonoverlap"), R, a


@lru_cache(maxsize=None)
def _reduced(l: int, lp: int, j: int) -> tuple:
    """The record (mu, k, q, contact) of g^j_{l,l'} = mu a^(l+l'+2) *
    triple-Bessel integral, built once.  For a = 1 the integral is
    (2 - rho)^k q(rho) below contact rho = 2, k the multiplicity of its zero
    there, and contact its value at R = 2, which the power law scales by
    (2a/R)^(l+l'+1).  Odd l+l'+j (mu = 0) gives (0.0, 0, (), 0.0).
    l > l' reuses (l', l, j), mu times (-1)^(l-l') (odd parity as is: no -0).

    Horner on the expanded polynomial loses its zero at contact (a double
    one for every j < l+l') to cancellation, so (2 - rho)^k is divided out
    of the exact numerators N_p by synthetic division and applied in floats."""
    if l > lp:
        mu, *rest = record = _reduced(lp, l, j)
        return (-mu, *rest) if mu and (l - lp) % 2 else record
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


def _power(base: float, n: int) -> float:
    """base ** n, underflowing to 0; OverflowError past the float range."""
    try:
        return base ** n
    except OverflowError:
        raise OverflowError("element scale exceeds the float range") from None


def g_reduced(idx: ReducedIndex, R: float, a: float) -> ReducedElement:
    """Reduced element g^j_{l,l'}(R) = mu a^(l+l'+2) * triple-Bessel integral,
    from the per-(l, l', j) record: (2 - R/a)^k q(R/a) below contact, the
    stretched power law from R = 2a on; OverflowError past the float range."""
    regime, R, a = _lengths(R, a)
    mu, k, quotient, contact = _reduced(idx.l, idx.lp, idx.j)
    if regime == "overlap":
        value = _below_contact(k, quotient, R / a)
    else:
        value = contact * (2 * a / R) ** idx.degree
    return ReducedElement(idx, R, a, mu * _power(a, idx.degree) * value, regime)


def overlap_polynomial(idx: ReducedIndex, a: float) -> RadialPolynomial:
    """Exact polynomial representation of the overlap-regime reduced element:
    g = a^(l+l'+1) * sum_n mu c_n (R/a)^n, expanded; its degree is that
    of the built coefficients, and its residue 0.0, since the build raises
    PoleResidueError for any other.  Even l+l'+j only (ValueError)."""
    _, _, a = _lengths(0.0, a)
    mu = mu_coefficient(idx)
    numerators, denominator = _overlap_assembly(idx.l, idx.lp, idx.j)
    coefficients = tuple(mu * (math.pi * (x / denominator)) for x in numerators)
    return RadialPolynomial(len(coefficients) - 1, coefficients,
                            _power(a, idx.degree), a, residue=0.0)


# ---------------------------------------------------------------------------
# matrix elements
# ---------------------------------------------------------------------------

def matrix_element_zaxis(lm: MultipoleIndex, lpmp: MultipoleIndex,
                         R: float, a: float) -> complex:
    """Canonical element G_{lm,l'm'}(R e_z); m-diagonal and real."""
    _, R, a = _lengths(R, a)
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
    R and the direction: (terms, contact, column, row, m'-m), the last three
    the integer keys of its geometry's column, row and phase: column and row
    the keys L^2 + L + n (_unkey) of (m'-m, l+l') and of (|l-l'|, l+l'), so
    (l, l') and (l', l) share a row.  Per surviving j
    a term (j - |l-l'|, j - |m'-m|, weight): its row slot, its Legendre index
    and (-1)^m' sqrt(4 pi/(2j+1)) (j l l'; m'-m, m, -m') mu; contact is the
    stretched (j = l+l') weight times its contact value for a = 1."""
    m1 = mp - m
    terms, contact = [], 0.0
    for j in range(max(abs(l - lp), abs(m1)), l + lp + 1):
        mu, _, _, at_contact = _reduced(l, lp, j)
        if not mu:  # odd l+l'+j: no 3-j needed
            continue
        weight = ((-1 if mp % 2 else 1) * math.sqrt(4 * math.pi / (2 * j + 1))
                  * wigner_3j_float(j, l, lp, m1, m, -mp) * mu)
        if weight == 0.0:
            continue
        terms.append((j - abs(l - lp), j - abs(m1), weight))
        contact += weight * at_contact
    key = (l + lp) * (l + lp + 1)
    return tuple(terms), contact, key + m1, key + abs(l - lp), m1


def matrix_element(lm: MultipoleIndex, lpmp: MultipoleIndex,
                   geom: SphereGeometry) -> complex:
    """General-orientation element.  The plane-wave expansion of the
    Fourier form reduces the orientation dependence to one spherical
    harmonic of the separation direction per reduced channel:

        G = sum_j (-1)^m' sqrt(4 pi/(2j+1)) (j l l'; m'-m, m, -m')
            g^j(R) Y_{j, m'-m}(theta, phi),

    which collapses to the m-diagonal z-axis form at theta = 0.  One lookup of
    the cached plan (_channel_plan) gives all but R and the direction, and the
    keys of the column, radial row and phase that elements at one geometry
    share (SphereGeometry._direction).  A row is (2 - R/a)^k q(R/a) per j and
    a^(l+l'+1) below contact, a^(l+l'+1) (2a/R)^(l+l'+1) from R = 2a on
    (OverflowError past floats).  Build one SphereGeometry per block and reuse
    it: an lmax-4 block needs 81 columns, 15 rows (35 radial values) and 17
    phases for 1453 terms."""
    terms, contact, column_key, row_key, m1 = _channel_plan(
        lm.l, lm.m, lpmp.l, lpmp.m)
    overlap, columns, rows, phases = geom._direction
    column, row = columns[column_key], rows[row_key]
    if overlap:
        acc = 0.0
        for slot, n, weight in terms:
            acc += weight * row[slot] * column[n]
        acc *= row[-1]
    else:
        acc = contact * row * column[-1]
    return acc * phases[m1]


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


def _radial(l: int, bessel: float, a: float) -> float:
    """4 pi a^(l+1) bessel: omega_hat's radial factor for bessel = j_l(ka),
    a Fourier element's for bessel = j_l(ka) / k."""
    return 4 * math.pi * _power(a, l + 1) * bessel


def _finite(value: complex) -> complex:
    if not cmath.isfinite(value):
        raise OverflowError("Fourier element exceeds the float range")
    return value


@lru_cache(maxsize=256, typed=True)  # typed: True misses 1.0's record
def _wave_record(x, y, z, a) -> tuple:
    """(|k|, cos theta, sin theta, a, phases e^(i n phi) by n, radial factors
    4 pi a^(l+1) j_l(ka) / k by l) of the wave vector (x, y, z) at radius a,
    one per value (-0.0 is 0.0): both checked and converted to floats once,
    the phases and radial factors filled on first use (none at k = 0)."""
    _, _, a = _lengths(0.0, a)
    k, theta, phi = _spherical((x, y, z))
    return (k, math.cos(theta), math.sin(theta), a, _phases(phi),
            _Lazy(lambda l: _radial(l, _j_over_k(l, k, a), a)))


def _wave(kvec, a) -> tuple:
    """The record of kvec at radius a, one for every way of writing its
    zeros, kept for the 256 pairs of the two used last."""
    try:
        x, y, z = kvec
    except TypeError:  # not iterable
        raise ValueError(f"wave vector must be a sequence of 3 real numbers, "
                         f"got {kvec!r}") from None
    return _wave_record(x, y, z, a)


def omega_hat(lm: MultipoleIndex, kvec, a: float) -> complex:
    """Fourier transform of the surface multipole density:
    4 pi a^(l+1) (-i)^l j_l(ka) Y_lm(khat)."""
    k, x, s, a, phases, _ = _wave(kvec, a)
    l = lm.l
    return _I_POWERS[-l % 4] * phases[lm.m] * (
        _radial(l, spherical_bessel_j(l, k * a), a)
        * _legendre_value(lm.m, l, x, s))


def fourier_matrix_element(lm: MultipoleIndex, lpmp: MultipoleIndex,
                           kvec, a: float) -> complex:
    """Fourier-space element conj(omega_hat_lm(k)) omega_hat_l'm'(k) / k^2 from
    the record of its wave vector (|k|, cos and sin of theta, one radial
    factor 4 pi a^(l+1) j_l(ka) / k per l and one phase e^(i(m'-m)phi) per
    m'-m), shared by every element at that k and radius, i^(l-l') and two
    Legendre values Y_lm(theta, 0), each from the list-free recurrence
    _legendre_value and kept nowhere: a 25x25 lmax-4 block over 8 wave
    vectors makes 8 records, 40 radial factors and 10,000 Legendre values.
    Each factor is divided by k first, so the element is finite as k
    underflows where its true value is; OverflowError past floats."""
    k, x, s, _, phases, radial = _wave(kvec, a)
    if k == 0.0:
        raise ZeroWaveVector("Fourier element diverges as 1/k^2 at k = 0")
    l, lp = lm.l, lpmp.l
    return _finite(radial[l] * _legendre_value(lm.m, l, x, s)
                   * (radial[lp] * _legendre_value(lpmp.m, lp, x, s))
                   * _I_POWERS[(l - lp) % 4] * phases[lpmp.m - lm.m])


def g_tilde(idx: ReducedIndex, k: float, a: float) -> complex:
    """Fourier-space reduced element 2 pi^2 (-i)^j mu a^(l+l'+2)
    j_l(ka) j_l'(ka) / k^2, divided by k per Bessel factor as in
    fourier_matrix_element (OverflowError past the float range)."""
    _, _, a = _lengths(0.0, a)
    k = _real("k", k)
    if k <= 0.0:
        raise ZeroWaveVector("g_tilde requires k > 0")
    return _finite(2 * math.pi ** 2 * _I_POWERS[-idx.j % 4]
                   * mu_coefficient(idx) * _power(a, idx.degree + 1)
                   * _j_over_k(idx.l, k, a) * _j_over_k(idx.lp, k, a))
