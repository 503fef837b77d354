"""Truncated Laurent-series arithmetic in a regularization parameter.

Values are finite windows of coefficients of powers of a small shift
``eps`` that is attached to otherwise-integer parameters.  Gamma factors
with poles become Laurent values with negative-order coefficients;
physically meaningful assemblies must end up with the negative orders
cancelling, which callers check via
:meth:`LaurentValue.negative_order_residue`.  The overlap-regime build in
``core`` multiplies these values for a few series terms per power of R/a,
all in the one window :data:`DEFAULT_WINDOW`.

Coefficients are kept as ``mpmath.mpf`` when produced by the Gamma
machinery (40 significant digits by default) but the arithmetic is
agnostic and works with plain floats too.  The Gamma Taylor expansions
behind :func:`gamma_laurent` are memoized per (base, length), since one
build asks for the same few bases many times.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import mpmath

from .errors import PoleWithoutRegularizer, WindowOverflow

DEFAULT_WINDOW = (-4, 4)
_DPS = 40


@dataclass(frozen=True)
class RegularizedArgument:
    """A parameter base + slope * eps; the slope is kept even when zero."""

    base: float
    slope: float = 0.0

    def is_nonpositive_integer(self) -> bool:
        b = self.base
        return b <= 0 and float(b) == int(b)


class LaurentValue:
    """Sum of c_p * eps^p for p in [window_min, window_max].

    Orders above the window top are truncated; a nonzero coefficient
    falling below the window bottom raises :class:`WindowOverflow`.

    Multiplication is commutative bit for bit: ``a * b`` and ``b * a``
    have identical coefficients.  Because of the truncation, a product of
    several factors is independent of their grouping (up to rounding) only
    at orders up to ``window_max + min(0, lowest order of the factors)``;
    above that, an order dropped from a partial product can be missing
    from one grouping and present in another.
    """

    __slots__ = ("pmin", "coeffs", "window")

    def __init__(self, coeffs, pmin: int, window=DEFAULT_WINDOW):
        wmin, wmax = window
        if wmin > wmax:
            raise ValueError("empty Laurent window")
        # clip to window, complain about lost poles
        out = {}
        for i, c in enumerate(coeffs):
            p = pmin + i
            if c == 0:
                continue
            if p < wmin:
                raise WindowOverflow(
                    f"coefficient at order {p} below window bottom {wmin}")
            if p > wmax:
                continue
            out[p] = c
        if out:
            lo = min(out)
            hi = max(out)
            self.pmin = lo
            self.coeffs = tuple(out.get(p, 0) for p in range(lo, hi + 1))
        else:
            self.pmin = 0
            self.coeffs = (0,)
        self.window = (wmin, wmax)

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, value, window=DEFAULT_WINDOW):
        return cls([value], 0, window)

    @classmethod
    def zero(cls, window=DEFAULT_WINDOW):
        return cls([], 0, window)

    @classmethod
    def linear(cls, base, slope, window=DEFAULT_WINDOW):
        """base + slope * eps."""
        return cls([base, slope], 0, window)

    # -- access -------------------------------------------------------------
    def coefficient(self, p: int):
        i = p - self.pmin
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def items(self):
        return [(self.pmin + i, c) for i, c in enumerate(self.coeffs)]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def max_abs(self):
        return max((abs(c) for c in self.coeffs), default=0)

    def negative_order_residue(self) -> float:
        """Largest |coefficient| at negative order, relative to order 0."""
        neg = max((abs(c) for p, c in self.items() if p < 0), default=0)
        scale = abs(self.coefficient(0))
        if scale == 0:
            scale = self.max_abs()
        if scale == 0:
            return 0.0
        return float(neg / scale)

    # -- arithmetic ---------------------------------------------------------
    def _merged_window(self, other):
        w1, w2 = self.window, other.window
        return (min(w1[0], w2[0]), max(w1[1], w2[1]))

    def __add__(self, other):
        if not isinstance(other, LaurentValue):
            other = LaurentValue.constant(other, self.window)
        window = self._merged_window(other)
        lo = min(self.pmin, other.pmin)
        hi = max(self.pmin + len(self.coeffs), other.pmin + len(other.coeffs))
        out = [self.coefficient(p) + other.coefficient(p) for p in range(lo, hi)]
        return LaurentValue(out, lo, window)

    __radd__ = __add__

    def __neg__(self):
        return LaurentValue([-c for c in self.coeffs], self.pmin, self.window)

    def __sub__(self, other):
        if not isinstance(other, LaurentValue):
            other = LaurentValue.constant(other, self.window)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LaurentValue):
            out = [c * other for c in self.coeffs]
            return LaurentValue(out, self.pmin, self.window)
        window = self._merged_window(other)
        if self.is_zero() or other.is_zero():
            return LaurentValue.zero(window)
        a, b = self.coeffs, other.coeffs
        n1, n2 = len(a), len(b)
        p0 = self.pmin + other.pmin
        out = []
        # Orders above the window top are dropped, so they are not formed.
        # Each order adds its products a[i]*b[p-i] in pairs taken from the
        # two ends of the i range inward; swapping the operands reverses
        # that range, which leaves every pair and the order of the pairs
        # unchanged, so b*a equals a*b bit for bit.
        for p in range(min(n1 + n2 - 1, window[1] - p0 + 1)):
            lo, hi = max(0, p - n2 + 1), min(p, n1 - 1)
            acc = 0
            while lo < hi:
                acc += a[lo] * b[p - lo] + a[hi] * b[p - hi]
                lo += 1
                hi -= 1
            if lo == hi:
                acc += a[lo] * b[p - lo]
            out.append(acc)
        return LaurentValue(out, p0, window)

    __rmul__ = __mul__

    def reciprocal(self):
        """1 / self by power-series inversion about the leading order."""
        lead = None
        for i, c in enumerate(self.coeffs):
            if c != 0:
                lead = i
                break
        if lead is None:
            raise ZeroDivisionError("reciprocal of zero Laurent value")
        p0 = self.pmin + lead
        a = self.coeffs[lead:]
        wmin, wmax = self.window
        n = wmax - wmin + 1
        inv = [0] * n
        inv[0] = 1 / a[0]
        for k in range(1, n):
            acc = 0
            for i in range(1, min(k, len(a) - 1) + 1):
                acc += a[i] * inv[k - i]
            inv[k] = -acc / a[0]
        return LaurentValue(inv, -p0, self.window)

    def __truediv__(self, other):
        if not isinstance(other, LaurentValue):
            return self * (1 / other)
        return self * other.reciprocal()

    def __repr__(self):
        terms = ", ".join(f"eps^{p}: {c}" for p, c in self.items())
        return f"LaurentValue({terms or '0'}; window={self.window})"


# ---------------------------------------------------------------------------
# Regularized Gamma
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gamma_taylor(base, nterms):
    """Taylor coefficients of Gamma about base, memoized: an overlap build
    asks for the same few (base, nterms) pairs many times over."""
    with mpmath.workdps(_DPS):
        return tuple(mpmath.taylor(mpmath.gamma, mpmath.mpf(base), nterms - 1))


def gamma_laurent(arg: RegularizedArgument, window=DEFAULT_WINDOW) -> LaurentValue:
    """Gamma(base + slope*eps) expanded as a Laurent value.

    At base = -n (integer n >= 0) the leading term is
    (-1)^n / (n! * slope) at order -1; away from poles it is the plain
    Taylor expansion with Gamma(base) at order 0.
    """
    wmin, wmax = window
    nterms = wmax - wmin + 2
    with mpmath.workdps(_DPS):
        s = mpmath.mpf(arg.slope)
        if arg.is_nonpositive_integer():
            if arg.slope == 0:
                raise PoleWithoutRegularizer(
                    f"Gamma at {arg.base} needs a nonzero eps slope")
            n = int(-arg.base)
            # Gamma(-n + s eps) = Gamma(1 + s eps) / (s eps * prod_{m=1}^{n} (s eps - m))
            num_taylor = _gamma_taylor(1, nterms + 1)
            num = LaurentValue([c * s ** k for k, c in enumerate(num_taylor)],
                               0, window)
            den = LaurentValue([0, s], 0, window)
            for mdiv in range(1, n + 1):
                den = den * LaurentValue.linear(mpmath.mpf(-mdiv), s, window)
            return num * den.reciprocal()
        coeffs = _gamma_taylor(arg.base, nterms)
        return LaurentValue([c * s ** k for k, c in enumerate(coeffs)], 0, window)


def reciprocal_gamma_laurent(arg: RegularizedArgument,
                             window=DEFAULT_WINDOW) -> LaurentValue:
    """1/Gamma(base + slope*eps); exactly zero at an unregularized pole."""
    if arg.is_nonpositive_integer() and arg.slope == 0:
        return LaurentValue.zero(window)
    return gamma_laurent(arg, window).reciprocal()
