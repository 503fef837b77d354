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


def _check_integer_orders(*orders) -> None:
    """ValueError unless every order is an integer (bool excluded; numpy
    integers are accepted)."""
    for n in orders:
        # the type test keeps the common case off the slower ABC check
        if type(n) is not int and (isinstance(n, bool)
                                   or not isinstance(n, numbers.Integral)):
            raise ValueError(f"orders must be integers, got {n!r}")


@dataclass(frozen=True)
class MultipoleIndex:
    """A spherical-harmonic channel (l, m) with -l <= m <= l."""

    l: int
    m: int

    def __post_init__(self):
        _check_integer_orders(self.l, self.m)
        # Python ints, so that no numpy integer reaches the exact builds
        object.__setattr__(self, "l", int(self.l))
        object.__setattr__(self, "m", int(self.m))
        if self.l < 0:
            raise ValueError(f"multipole order must be non-negative, got l={self.l}")
        if abs(self.m) > self.l:
            raise ValueError(f"azimuthal number out of range: |{self.m}| > {self.l}")


@dataclass(frozen=True)
class EulerAngles:
    """z-y-z Euler angles in radians; any finite real values are accepted."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.beta, self.gamma))):
            raise ValueError(f"Euler angles must be finite, got {self}")


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


_THREEJ_ZERO = ThreeJValue(0, Fraction(0))


def _selection_rules_ok(l1, l2, l3, m1, m2, m3) -> bool:
    if m1 + m2 + m3 != 0:
        return False
    if not abs(l1 - l2) <= l3 <= l1 + l2:
        return False
    return abs(m1) <= l1 and abs(m2) <= l2 and abs(m3) <= l3


@lru_cache(maxsize=None, typed=True)  # typed: 1.0 and True miss 1's entry
def wigner_3j(l1: int, l2: int, l3: int, m1: int, m2: int, m3: int) -> ThreeJValue:
    """Exact Wigner 3-j symbol via the Racah single-sum formula.

    Inputs violating the selection rules (including |m| > l) return an
    exact zero rather than raising, so rectangular index sweeps can rely
    on the zeros.
    """
    _check_integer_orders(l1, l2, l3, m1, m2, m3)
    if min(l1, l2, l3) < 0:
        raise ValueError("3-j orders must be non-negative")
    if not _selection_rules_ok(l1, l2, l3, m1, m2, m3):
        return _THREEJ_ZERO

    f = math.factorial
    # triangle coefficient and magnetic factorials, kept under the root
    radical = Fraction(
        f(l1 + l2 - l3) * f(l1 - l2 + l3) * f(-l1 + l2 + l3)
        * f(l1 + m1) * f(l1 - m1) * f(l2 + m2) * f(l2 - m2)
        * f(l3 + m3) * f(l3 - m3),
        f(l1 + l2 + l3 + 1),
    )
    tmin = max(0, l2 - l3 - m1, l1 - l3 + m2)
    tmax = min(l1 + l2 - l3, l1 - m1, l2 + m2)
    s = Fraction(0)
    for t in range(tmin, tmax + 1):
        den = (
            f(t) * f(l3 - l2 + t + m1) * f(l3 - l1 + t - m2)
            * f(l1 + l2 - l3 - t) * f(l1 - t - m1) * f(l2 + m2 - t)
        )
        s += Fraction((-1) ** t, den)
    if s == 0:
        return _THREEJ_ZERO
    phase = -1 if (l1 - l2 - m3) % 2 else 1
    signed = phase * (1 if s > 0 else -1)
    return ThreeJValue(signed, s * s * radical)


def wigner_3j_float(l1, l2, l3, m1, m2, m3) -> float:
    return wigner_3j(l1, l2, l3, m1, m2, m3).to_float()


# ---------------------------------------------------------------------------
# Wigner rotation matrices
# ---------------------------------------------------------------------------

def wigner_small_d(l: int, m: int, mp: int, beta: float) -> float:
    """Small Wigner matrix d^l_{m,mp}(beta); d^l_{m,mp}(0) = delta_{m,mp}.

    d = +-sqrt(C(2l-n, n+p) / C(n+q, q)) sin^p(beta/2) cos^q(beta/2)
    P_n^(p,q)(cos beta) with n = min(l+-m, l+-mp), p = |m-mp| and
    q = 2(l-n)-p; the sign is (-1)^(m-mp) for n in {l+mp, l-m}.  P_n comes
    from its three-term recurrence (DLMF 18.9.1), accurate where the sum over
    k cancels; its scale and the factor before it are summed as logs."""
    _check_integer_orders(l, m, mp)
    if abs(m) > l or abs(mp) > l:
        raise ValueError("require |m|, |mp| <= l")
    if not math.isfinite(beta):
        raise ValueError(f"angle must be finite, got beta={beta!r}")
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
def _legendre_factors(m: int, lmax: int) -> tuple:
    """Y_{|m|,|m|}(theta, 0) / |sin(theta)|^|m| with the sign of m folded in,
    and the factors (A_l, B_l) of the upward recurrence
    Y_l = A_l (cos(theta) Y_{l-1} - B_l Y_{l-2}) for l = |m|+1 .. lmax."""
    ma = abs(m)
    seed = 1.0 / math.sqrt(4 * math.pi)
    for k in range(1, ma + 1):
        seed *= -math.sqrt((2 * k + 1) / (2 * k))
    if m < 0 and ma % 2:  # Y_{l,-m} = (-1)^m conj(Y_lm)
        seed = -seed
    return seed, tuple(
        (math.sqrt((4 * l * l - 1) / (l * l - ma * ma)),
         math.sqrt(((l - 1) ** 2 - ma * ma) / (4 * (l - 1) ** 2 - 1)))
        for l in range(ma + 1, lmax + 1))


def _legendre_column(m: int, lmax: int, x: float, s: float) -> list:
    """[Y_{l,m}(theta, 0) for l = |m| .. lmax] at x = cos(theta) and
    s = |sin(theta)| (any real theta, as in scipy's sph_harm_y): orthonormal
    Legendre values, Condon-Shortley phase, by the upward recurrence in l."""
    seed, factors = _legendre_factors(m, lmax)
    cur, prev = seed * s ** abs(m), 0.0
    column = [cur]
    for A, B in factors:
        prev, cur = cur, A * (x * cur - B * prev)
        column.append(cur)
    return column


def spherical_harmonic(idx: MultipoleIndex, theta: float, phi: float) -> complex:
    """Y_lm(theta, phi), Condon-Shortley phase; Y_lm(0, .) = delta_{m,0} sqrt((2l+1)/4pi).
    ValueError unless both angles are finite."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"angles must be finite, got theta={theta!r}, "
                         f"phi={phi!r}")
    x, s = math.cos(theta), abs(math.sin(theta))
    return _legendre_column(idx.m, idx.l, x, s)[-1] * cmath.exp(1j * idx.m * phi)


# ---------------------------------------------------------------------------
# Spherical Bessel functions
# ---------------------------------------------------------------------------

def _bessel_series(l: int, x: float) -> float:
    # ascending power series; all terms positive-decreasing after alternation,
    # stable for x below ~l
    x2 = -0.5 * x * x
    # leading x^l / (2l+1)!!
    term = 1.0
    for i in range(1, l + 1):
        term *= x / (2 * i + 1)
    total = term
    k = 1
    while True:
        term *= x2 / (k * (2 * l + 2 * k + 1))
        total += term
        if abs(term) <= 1e-18 * abs(total):
            return total
        k += 1


def _bessel_upward(l: int, x: float) -> float:
    jm, j0 = math.sin(x) / x, math.sin(x) / (x * x) - math.cos(x) / x
    if l == 0:
        return jm
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


@lru_cache(maxsize=1024, typed=True)  # typed: True misses 1's entry
def spherical_bessel_j(l: int, x: float) -> float:
    """Spherical Bessel j_l(x) for integer l >= 0 and finite x >= 0;
    j_l(0) = delta_{l,0}.

    Ascending series for x < l/2, downward Miller recurrence for
    intermediate x, plain upward recurrence once x exceeds l (where it
    is stable).  Tested to 1e-13 relative for l <= 30, x <= 1e3.
    Memoized per (l, x), at most 1024 entries: a block of Fourier
    elements at one |k| repeats each (l, ka) many times.
    """
    _check_integer_orders(l)
    if l < 0:
        raise ValueError("order must be non-negative")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"argument must be finite and non-negative, got {x!r}")
    if x == 0.0:
        return 1.0 if l == 0 else 0.0
    if l == 0:
        return math.sin(x) / x
    if x < 0.5 * l:
        return _bessel_series(l, x)
    if x > l:
        return _bessel_upward(l, x)
    return _bessel_miller(l, x)
