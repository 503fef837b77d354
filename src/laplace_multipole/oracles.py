"""Brute-force quadrature oracles for the closed forms in :mod:`.core`.

These evaluators are deliberately independent of the production code
paths.  The defining double-surface integral takes its inner sphere in
closed form from the real-space Laplace expansion of 1/|x - y| (Jackson,
eq. 3.70) and the outer one by quadrature in cos(theta) on panels graded
toward the kink, with scipy's spherical harmonics: it shares no step with
the paper's Fourier/Hankel route (triple Bessel integrals, 3-j sums,
overlap polynomials), and takes only index and geometry types and
``regime_of`` from :mod:`.core`.  Every quadrature is one Gauss-Legendre
rule on the panels between a list of edges: zero-aligned panels plus an
analytic oscillatory tail for the triple-Bessel integral, and half-period
panels with an accelerated tail for both Hankel transforms.  They exist
only to earn trust (tests and the ``verify`` CLI command).  scipy and
numpy's Gauss-Legendre rule are imported by the functions that use them,
so importing the package does not load them.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ReducedIndex, SphereGeometry, regime_of
from .errors import SingularConfiguration, TailTooLarge
from .specfun import MultipoleIndex, _integers


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature controls: Gauss-Legendre nodes per panel, truncation of
    semi-infinite integrals (units of 1/a), and the number of analytic
    oscillatory tail terms."""

    node_count: int = 12
    k_max: float = 80.0
    tail_order: int = 14

    def __post_init__(self):
        _integers(self.node_count, self.tail_order)
        if self.node_count < 8:
            raise ValueError("node_count must be at least 8")
        if not (math.isfinite(self.k_max) and self.k_max > 0):
            raise ValueError(f"k_max must be finite and positive, got {self.k_max}")
        if self.tail_order < 0:
            raise ValueError("tail_order must be non-negative")


# ---------------------------------------------------------------------------
# Gauss-Legendre panels
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _gl(n: int):
    from numpy.polynomial.legendre import leggauss
    return leggauss(n)


def _panels(edges, n: int):
    """Gauss-Legendre nodes and weights, n per panel of the edge array."""
    x, w = _gl(n)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    hw = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + hw * x).ravel(), (hw * w).ravel()


# ---------------------------------------------------------------------------
# defining double-surface integral
# ---------------------------------------------------------------------------

def _theta_profile(l: int, m: int, thetas: np.ndarray) -> np.ndarray:
    from scipy.special import sph_harm_y
    # Y_lm(theta, 0) is real under the Condon-Shortley convention
    return sph_harm_y(l, m, thetas, 0.0).real


def _surface_integral(l: int, lp: int, m: int, R: float, a: float,
                      n: int, levels: int) -> float:
    # the n' integral is the potential of a surface harmonic at
    # x = a n + R e_z (the Laplace expansion of 1/|x - a n'|):
    # r_<^l' / ((2l'+1) r_>^(l'+1)) Y_l'm(x^), so after the 2*pi azimuth
    # only t = cos(theta) is left; it kinks where |x| = a, t = c = -R/2a,
    # so the panels halve in width toward c from both sides
    c = max(-R / (2 * a), -1.0)
    h = 0.5 ** np.arange(1, levels)
    edges = np.concatenate(([-1.0], c - (c + 1.0) * h, [c],
                            c + (1.0 - c) * h[::-1], [1.0]))
    t, w = _panels(edges[levels:] if c == -1.0 else edges, n)
    rho, z = a * np.sqrt(1.0 - t * t), a * t + R
    r = np.hypot(rho, z)
    pot = np.minimum(r, a) ** lp / (2 * lp + 1) / np.maximum(r, a) ** (lp + 1)
    f = (_theta_profile(l, m, np.arccos(t))
         * _theta_profile(lp, m, np.arctan2(rho, z)) * pot)
    return 2 * math.pi * float(f @ w)


def defining_integral_quadrature(lm: MultipoleIndex, lpmp: MultipoleIndex,
                                 geom: SphereGeometry, spec: QuadratureSpec,
                                 rel_tol: float = 1e-4) -> complex:
    """Direct quadrature of the double surface-convolution
    a^(l+l'+2) * int dn dn' conj(Y_lm(n)) Y_l'm'(n') / (4 pi |a n - R - a n'|)
    for a separation along e_z (theta = 0, whatever phi is).

    The n' integral is done in closed form by the Laplace expansion of
    1/|x - y| (Jackson, Classical Electrodynamics, eq. 3.70), which leaves
    one Gauss-Legendre integral over cos(theta); it vanishes identically
    for m != m'.  ValueError unless rel_tol is finite and positive;
    SingularConfiguration when the two-resolution error estimate exceeds it.
    """
    if geom.theta != 0.0:
        raise ValueError("oracle implemented for separations along e_z; "
                         "rotate the indices instead")
    if not (math.isfinite(rel_tol) and rel_tol > 0):
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    if lm.m != lpmp.m:
        return 0.0 + 0.0j
    l, lp, m = lm.l, lpmp.l, lm.m
    R, a = geom.R, geom.a
    levels = 12
    coarse = _surface_integral(l, lp, m, R, a, spec.node_count, levels)
    fine = _surface_integral(l, lp, m, R, a, spec.node_count + 4, levels + 2)
    scale = a ** (l + lp + 2)
    # floor the scale so genuine zeros (cancelling channels) are accepted
    err = abs(fine - coarse)
    if err > rel_tol * max(abs(fine), 1e-4):
        raise SingularConfiguration(
            f"surface quadrature error estimate {err * scale:.3e} "
            f"({err / max(abs(fine), 1e-300):.2e} relative) exceeds {rel_tol:.1e}")
    return complex(scale * fine)


# ---------------------------------------------------------------------------
# oscillatory Hankel machinery
# ---------------------------------------------------------------------------

def _bessel_trig_terms(n: int, c: float):
    """Exact finite decomposition j_n(c k) = sum_s [t e^{ick} + conj] / k^(s+1).

    Coefficients from the terminating half-integer-order asymptotic series
    a_s(n) = (n+s)! / (2^s s! (n-s)!).
    """
    out = []
    for s in range(n + 1):
        a_s = (math.factorial(n + s)
               / (2 ** s * math.factorial(s) * math.factorial(n - s)))
        t = a_s * (-1) ** (s // 2) / c ** (s + 1)
        phase = (-1j) ** n
        if s % 2 == 0:  # sin(ck - n pi/2) term
            coef = t * phase / 2j
        else:           # cos(ck - n pi/2) term
            coef = t * phase / 2
        out.append((s + 1, coef))
    return out


def _expint(p: int, z: complex) -> complex:
    """E_p(z) = int_1^inf e^(-zt) t^-p dt, p >= 1: for |z| <= 1 the upward
    recurrence E_(n+1) = (e^-z - z E_n) / n from scipy's E_1 (each step
    scales the error by |z|/n <= 1), above it the continued fraction by
    modified Lentz (Numerical Recipes, 2nd ed., sec. 6.3)."""
    if abs(z) <= 1.0:
        from scipy.special import exp1
        e, ez = complex(exp1(z)), cmath.exp(-z)
        for n in range(1, p):
            e = (ez - z * e) / n
        return e
    b, c = z + p, 1e300
    h = d = 1.0 / b
    for i in range(1, 1000):
        an = -i * (p - 1 + i)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 3e-16:
            return h * cmath.exp(-z)
    raise TailTooLarge(f"continued fraction for E_{p}({z}) did not converge")


def _osc_power_integral(p: int, om: float, K: float) -> complex:
    """int_K^inf e^{i om k} k^-p dk = K^(1-p) E_p(-i om K), for p >= 2."""
    if om == 0.0:
        return K ** (1 - p) / (p - 1)
    return K ** (1 - p) * _expint(p, complex(0.0, -om * K))


def _tail_exact(terms_list, K: float, tail_order: int):
    """Analytic tail int_K^inf prod_i j_{n_i}(c_i k) dk.

    terms_list: per factor, (frequency scale c_i, [(power, coef)]).
    Returns (tail value, bound on the part omitted beyond tail_order).
    """
    omitted = 0.0
    # expand the product into (power, frequency) -> coefficient
    collected = {}
    stack = [(1.0 + 0.0j, 0, 0.0)]
    for c, terms in terms_list:
        new = []
        for coef0, p0, om0 in stack:
            for p, coef in terms:
                new.append((coef0 * coef, p0 + p, om0 + c))
                new.append((coef0 * coef.conjugate(), p0 + p, om0 - c))
        stack = new
    nfac = len(terms_list)
    for coef, p, om in stack:
        if p - nfac > tail_order:
            omitted += abs(coef) * K ** (1 - p) / max(p - 1, 1)
            continue
        key = (p, round(om, 12))
        collected[key] = collected.get(key, 0j) + coef
    total = 0.0
    for (p, om), coef in collected.items():
        total += (coef * _osc_power_integral(p, om, K)).real
    return total, omitted


def hankel_triple_bessel(idx: ReducedIndex, R: float, a: float,
                         spec: QuadratureSpec) -> float:
    """Numerical int_0^inf j_j(kR) j_l(ka) j_l'(ka) dk.

    Zero-aligned Gauss-Legendre panels on [0, k_max/a], then the exact
    oscillatory tail from the terminating trigonometric forms of the
    spherical Bessel functions.
    """
    from scipy.special import spherical_jn
    regime_of(R, a)
    if R == 0.0 and idx.j != 0:
        return 0.0  # j_j(0) = 0 kills the integrand
    factors = [(idx.l, a), (idx.lp, a)]
    if R > 0:
        factors.append((idx.j, R))
    K = spec.k_max / a
    freq = sum(c for _, c in factors)
    width = math.pi / freq
    nper = max(int(math.ceil(K / width)), 1)
    K = nper * width
    kk, w = _panels(width * np.arange(nper + 1), spec.node_count)
    f = np.ones_like(kk)
    for n, c in factors:
        f *= spherical_jn(n, c * kk)
    total = float(f @ w)
    terms_list = [(c, _bessel_trig_terms(n, c)) for n, c in factors]
    tail, omitted = _tail_exact(terms_list, K, spec.tail_order)
    budget = 1e-9 * max(abs(total), 1e-10)
    if omitted > budget:
        raise TailTooLarge(
            f"omitted tail bound {omitted:.3e} exceeds budget {budget:.3e}; "
            f"raise tail_order")
    return total + tail


def _euler_sum(terms):
    """Accelerated sum of a (near-)alternating sequence of panel integrals
    by iterated averaging of partial sums."""
    rows = np.cumsum(terms)
    for _ in range(len(terms) - 1):
        rows = 0.5 * (rows[1:] + rows[:-1])
    return rows[-1]


def _hankel_integral(j: int, y: float, samples, head, freq: float,
                     K0: float, n: int, name: str) -> complex:
    """int_0^inf x^2 j_j(x y) samples(x) dx, with the integrand oscillating
    at frequency freq beyond the head edges: panels between the head edges,
    direct half-period panels to beyond K0, then accelerated summation of
    48 further panels.  TailTooLarge when those panels grow (the integral
    diverges, though the averaging may settle) or when the error estimate,
    from shortening the accelerated run, is not negligible against the
    value."""
    from scipy.special import spherical_jn
    start, width = head[-1], math.pi / freq
    ndirect = max(int(math.ceil((K0 - start) / width)), 2)
    edges = np.concatenate((head, start + width * np.arange(1, ndirect + 49)))
    x, w = _panels(edges, n)
    vals = x * x * spherical_jn(j, x * y) * np.array(
        [complex(samples(t)) for t in x.tolist()])
    per_panel = (vals * w).reshape(-1, n).sum(axis=1)
    tail_terms = per_panel[-48:]
    first, last = np.abs(tail_terms[:8]).max(), np.abs(tail_terms[-8:]).max()
    if last > 2 * first:
        raise TailTooLarge(f"{name} panels grow: {first:.3e} to {last:.3e}")
    tail = complex(_euler_sum(tail_terms))
    est = abs(tail - complex(_euler_sum(tail_terms[:-8])))
    val = complex(per_panel[:-48].sum()) + tail
    if est > 1e-6 * max(abs(val), 1e-300):
        raise TailTooLarge(
            f"{name} tail estimate {est:.3e} not negligible "
            f"against {abs(val):.3e}")
    return val


def hankel_forward(idx: ReducedIndex, k: float, a: float, g_samples,
                   spec: QuadratureSpec) -> complex:
    """Forward transform 4 pi (-i)^j int_0^inf dR R^2 j_j(kR) g(R).

    The integrand decays only algebraically (g ~ R^-(l+l'+1) beyond
    contact), so the semi-infinite part is summed by panel acceleration.
    """
    regime_of(0.0, a)
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"wave number must be finite and positive, got k={k}")
    # the overlap region [0, 2a] is polynomial but only piecewise smooth
    # at contact, so it gets its own panels before the oscillatory run
    val = _hankel_integral(idx.j, k, g_samples, 0.5 * a * np.arange(5), k,
                           2 * a + 8 * math.pi / k, spec.node_count,
                           "forward-transform")
    return 4 * math.pi * (-1j) ** idx.j * val


def hankel_inverse(idx: ReducedIndex, R: float, a: float, gtilde_samples,
                   spec: QuadratureSpec) -> float:
    """Inverse transform (1/2 pi^2) i^j int_0^inf dk k^2 j_j(kR) gtilde(k)."""
    regime_of(R, a)
    if R == 0.0:
        raise ValueError("separation must be positive")
    val = _hankel_integral(idx.j, R, gtilde_samples, np.zeros(1), R + 2 * a,
                           spec.k_max / a, spec.node_count,
                           "inverse-transform")
    out = (1j) ** idx.j / (2 * math.pi ** 2) * val
    return out.real
