"""Angular-momentum special functions under Condon-Shortley phase conventions.

Provides exact Wigner 3-j symbols (arbitrary-precision rational
arithmetic under the square root), Wigner d/D rotation matrices,
spherical harmonics, and spherical Bessel functions.  Conventions are fixed
so that

    D^(l)_{m,0}(alpha, beta, 0) = sqrt(4 pi / (2l+1)) * conj(Y_lm(beta, alpha))

which the test suite pins numerically.
"""
from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache

_WIGNER_LMAX = 1500  # the largest Wigner order with a measured accuracy


def _integers(*orders) -> tuple:
    """The orders as Python ints; ValueError, by type, unless each is an
    integer (not bool; numpy integers pass, and none reach the exact sums)."""
    for n in orders:
        # the type test keeps the common case off the slower ABC check
        if type(n) is not int and (isinstance(n, bool)
                                   or not isinstance(n, numbers.Integral)):
            raise ValueError(f"orders must be integers, got {type(n).__name__}")
    return tuple(map(int, orders))


def _real(name: str, value) -> float:
    """value as a finite float: the one check of every real input.
    ValueError naming it for NaN, +-inf, past the float range (by type: repr
    can fail there), bool or a type not numbers.Real, so True never reads as
    1.0 and no numpy float32 reaches the arithmetic."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, "
                             f"got {name}={value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int or Fraction past the float range
            raise ValueError(f"{name} of type {type(value).__name__} is past "
                             f"the float range") from None
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {name}={value!r}")
    return value


@dataclass(frozen=True)
class MultipoleIndex:
    """A spherical-harmonic channel (l, m) with -l <= m <= l."""

    l: int
    m: int

    def __post_init__(self):
        for name, n in zip(("l", "m"), _integers(self.l, self.m)):
            object.__setattr__(self, name, n)
        if self.l < 0:
            raise ValueError(f"multipole order must be non-negative, got l={self.l}")
        if abs(self.m) > self.l:
            raise ValueError(f"azimuthal number out of range: |{self.m}| > {self.l}")


@dataclass(frozen=True)
class EulerAngles:
    """z-y-z Euler angles in radians, each stored as a float; any finite
    real values are accepted."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))


# ---------------------------------------------------------------------------
# Wigner 3-j symbols, exact
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThreeJValue:
    """Exact 3-j value sign * sqrt(radicand), radicand a non-negative rational."""

    sign: int
    radicand: Fraction

    def to_float(self) -> float:
        return self.sign * math.sqrt(self.radicand)

    def __bool__(self) -> bool:
        return self.sign != 0


def _racah(*orders) -> tuple:
    """(sign, n, d): the 3-j symbol is sign * sqrt(n / d), and (0, 0, 1)
    outside the selection rules.  Racah's single sum over t runs in integers
    over one common denominator, each of its six factorials at its largest
    value; each term is the last times an exact ratio."""
    l1, l2, l3, m1, m2, m3 = _integers(*orders)  # numpy ints overflow the sum
    if min(l1, l2, l3) < 0:
        raise ValueError("3-j orders must be non-negative")
    if (m1 + m2 + m3 or not abs(l1 - l2) <= l3 <= l1 + l2
            or abs(m1) > l1 or abs(m2) > l2 or abs(m3) > l3):
        return 0, 0, 1
    f = math.factorial
    r1, r2 = l3 - l2 + m1, l3 - l1 - m2
    f1, f2, f3 = l1 + l2 - l3, l1 - m1, l2 + m2
    tmin, tmax = max(0, -r1, -r2), min(f1, f2, f3)
    s = term = (-1) ** tmin * math.prod(  # the t = tmin term times den
        math.perm(c + tmax, tmax - tmin) for c in (0, r1, r2))
    for t in range(tmin, tmax):
        term = -term * (f1 - t) * (f2 - t) * (f3 - t) // (
            (t + 1) * (r1 + t + 1) * (r2 + t + 1))
        s += term
    if not s:
        return 0, 0, 1
    den = (f(tmax) * f(r1 + tmax) * f(r2 + tmax)
           * f(f1 - tmin) * f(f2 - tmin) * f(f3 - tmin))
    # triangle coefficient and magnetic factorials, kept under the root
    radical = (f(l1 + l2 - l3) * f(l1 - l2 + l3) * f(-l1 + l2 + l3)
               * f(l1 + m1) * f(l1 - m1) * f(l2 + m2) * f(l2 - m2)
               * f(l3 + m3) * f(l3 - m3))
    sign = (-1 if (l1 - l2 - m3) % 2 else 1) * (1 if s > 0 else -1)
    return sign, s * s * radical, den * den * f(l1 + l2 + l3 + 1)


@lru_cache(maxsize=None, typed=True)  # typed: 1.0 and True miss 1's entry
def wigner_3j(l1: int, l2: int, l3: int, m1: int, m2: int, m3: int) -> ThreeJValue:
    """Exact Wigner 3-j symbol from the integer sum _racah: an exact zero, not
    an error, outside the selection rules, so index sweeps can rely on it."""
    sign, n, d = _racah(l1, l2, l3, m1, m2, m3)
    return ThreeJValue(sign, Fraction(n, d))


@lru_cache(maxsize=16384, typed=True)  # typed: 1.0 and True miss 1's entry
def wigner_3j_float(l1, l2, l3, m1, m2, m3) -> float:
    """wigner_3j(...).to_float() bit for bit (n / d rounds once), exact cache
    untouched; 16384 kept for matrix_element_zaxis (plans read each once)."""
    sign, n, d = _racah(l1, l2, l3, m1, m2, m3)
    return sign * math.sqrt(n / d)


# ---------------------------------------------------------------------------
# Wigner rotation matrices
# ---------------------------------------------------------------------------

def wigner_small_d(l: int, m: int, mp: int, beta: float) -> float:
    """Small Wigner matrix d^l_{m,mp}(beta); d^l_{m,mp}(0) = delta_{m,mp}.

    d = +-sqrt(C(2l-n, n+p) / C(n+q, q)) sin^p(beta/2) cos^q(beta/2)
    P_n^(p,q)(cos beta) with n = min(l+-m, l+-mp), p = |m-mp| and
    q = 2(l-n)-p; the sign is (-1)^(m-mp) for n in {l+mp, l-m}.  P_n comes
    from its three-term recurrence (DLMF 18.9.1), accurate where the sum over
    k cancels; its scale and the factor before it are summed as logs.
    ValueError past l = _WIGNER_LMAX, before the recurrence's l steps."""
    l, m, mp = _integers(l, m, mp)
    if l > _WIGNER_LMAX:
        raise ValueError(f"Wigner order l must be at most {_WIGNER_LMAX}")
    if abs(m) > l or abs(mp) > l:
        raise ValueError("require |m|, |mp| <= l")
    beta = _real("beta", beta)
    n, p = min(l + m, l - m, l + mp, l - mp), abs(m - mp)
    q, x, log_f, big = 2 * (l - n) - p, math.cos(beta), 0.0, 2.0 ** 600
    jac, prev = (((p + q + 2) * x + p - q) / 2, 1.0) if n else (1.0, 0.0)
    for i in range(1, n):  # P_{i+1} from P_i and P_{i-1}
        s = 2 * i + p + q
        prev, jac = jac, ((s + 1) * (s * (s + 2) * x + p * p - q * q) * jac
                          - 2 * (i + p) * (i + q) * (s + 2) * prev) / (
                              2 * (i + 1) * (i + p + q + 1) * s)
        if abs(jac) > big:  # an exact rescale, kept in log_f
            prev, jac, log_f = prev / big, jac / big, log_f + 600 * math.log(2)
    sh, ch = math.sin(beta / 2), math.cos(beta / 2)
    if (p and not sh) or (q and not ch):
        return 0.0
    odd = (n in (l + mp, l - m)) * (m - mp) + p * (sh < 0) + q * (ch < 0)
    log_f += (math.lgamma(2 * l - n + 1) + math.lgamma(n + 1)
              - math.lgamma(n + p + 1) - math.lgamma(n + q + 1)) / 2
    return (-1) ** (odd % 2) * jac * math.exp(
        log_f + p * math.log(abs(sh) or 1.0) + q * math.log(abs(ch) or 1.0))


def wigner_D(l: int, m: int, mp: int, angles: EulerAngles) -> complex:
    """Full Wigner matrix D^l_{m,mp} = e^{-i m alpha} d^l_{m,mp}(beta) e^{-i mp gamma}."""
    d = wigner_small_d(l, m, mp, angles.beta)
    return cmath.exp(-1j * m * angles.alpha) * d * cmath.exp(-1j * mp * angles.gamma)


@cache
def _legendre_pair(ma: int, l: int) -> tuple:  # (A_l, B_l) at |m| = ma
    return (math.sqrt((4 * l * l - 1) / (l * l - ma * ma)),
            math.sqrt(((l - 1) ** 2 - ma * ma) / (4 * (l - 1) ** 2 - 1)))


@cache
def _legendre_factors(m: int, lmax: int) -> tuple:
    """Y_{|m|,|m|}(theta, 0) / |sin(theta)|^|m| with the sign of m folded in,
    and the pairs (A_l, B_l) = _legendre_pair(|m|, l), shared by one order, of
    Y_l = A_l (cos(theta) Y_{l-1} - B_l Y_{l-2}) for l = |m|+1 .. lmax."""
    ma = abs(m)
    seed = 1.0 / math.sqrt(4 * math.pi)
    for k in range(1, ma + 1):
        seed *= -math.sqrt((2 * k + 1) / (2 * k))
    if m < 0 and ma % 2:  # Y_{l,-m} = (-1)^m conj(Y_lm)
        seed = -seed
    return seed, tuple(_legendre_pair(ma, l) for l in range(ma + 1, lmax + 1))


def _legendre_value(m: int, l: int, x: float, s: float) -> float:
    """Y_{l,m}(theta, 0) at x = cos(theta), s = |sin(theta)| (any real theta,
    as in scipy's sph_harm_y): orthonormal, Condon-Shortley phase, from the
    one Legendre recurrence, upward in l from |m|, with no list built."""
    seed, factors = _legendre_factors(m, l)
    cur, prev = seed * s ** abs(m), 0.0
    for A, B in factors:
        prev, cur = cur, A * (x * cur - B * prev)
    return cur


def spherical_harmonic(idx: MultipoleIndex, theta: float, phi: float) -> complex:
    """Y_lm(theta, phi), Condon-Shortley phase; Y_lm(0, .) = delta_{m,0} sqrt((2l+1)/4pi).
    ValueError unless both angles are finite real numbers."""
    theta, phi = _real("theta", theta), _real("phi", phi)
    x, s = math.cos(theta), abs(math.sin(theta))
    return _legendre_value(idx.m, idx.l, x, s) * cmath.exp(1j * idx.m * phi)


# ---------------------------------------------------------------------------
# Spherical Bessel functions
# ---------------------------------------------------------------------------

def _bessel_upward(l: int, x: float) -> float:  # l >= 1
    jm, j0 = math.sin(x) / x, math.sin(x) / (x * x) - math.cos(x) / x
    for n in range(1, l):
        jm, j0 = j0, (2 * n + 1) / x * j0 - jm
    return j0


def _bessel_miller(l: int, x: float) -> float:
    # downward recurrence from a padded start order, normalised by the larger
    # of j_0 and j_1 (j_0 vanishes at x = n pi)
    nstart = l + 16 + int(1.5 * math.sqrt(max(l, 1)) * 4)
    jp, jc = 0.0, 1e-30
    out = 0.0
    for n in range(nstart, -1, -1):
        jm = (2 * n + 3) / x * jc - jp
        if n == l:
            out = jm
        jp, jc = jc, jm
        if abs(jc) > 1e250:
            jp *= 1e-250
            jc *= 1e-250
            out *= 1e-250
    j0, j1 = math.sin(x) / x, math.sin(x) / (x * x) - math.cos(x) / x
    return out * j0 / jc if abs(j0) >= abs(j1) else out * j1 / jp


def spherical_bessel_j(l: int, x: float) -> float:
    """Spherical Bessel j_l(x) for integer l >= 0 and finite x >= 0;
    j_l(0) = delta_{l,0}.  ValueError for a bool or non-real x; a numpy
    scalar x is read as a float, so float32 gives the float64 value.

    The leading term x^l / (2l+1)!! below x = 1e-8 (its first correction
    is under half an ulp there), Miller's downward recurrence on
    1e-8 <= x <= l, the upward recurrence above l, where it is stable.
    Measured within 2.5e-14 relative of 60-digit mpmath for l <= 500 up
    to x = l (2.1e-15 for l <= 30), and tested to 1e-13 up to x = 1e3.
    Not memoized: Fourier elements keep j_l(ka) / k in the record of their
    wave vector, so a block makes one call per order and wave vector.
    """
    [l] = _integers(l)
    if l < 0:
        raise ValueError("order must be non-negative")
    x = _real("x", x)  # a numpy float32 overflows in the recurrences
    if x < 0.0:
        raise ValueError(f"x must be non-negative, got x={x!r}")
    if x == 0.0:
        return 1.0 if l == 0 else 0.0
    if l == 0:
        return math.sin(x) / x
    if x < 1e-8:
        return math.prod(x / (2 * i + 1) for i in range(1, l + 1))
    if x > l:
        return _bessel_upward(l, x)
    return _bessel_miller(l, x)
