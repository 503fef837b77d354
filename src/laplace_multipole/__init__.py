"""Multipole matrix elements of the Laplace Green function for two equal
spheres: reduced elements g^j_{l,l'}(R) in position space (overlap and
non-overlap regimes, told apart by regime_of), canonical elements on the
z axis and in general orientation, Fourier-space elements, and brute-force
quadrature oracles for validation.  The oracle names load on first use
(numpy, scipy and mpmath come with them); the rest is standard library."""

__version__ = "0.1.0"

from .core import (RadialPolynomial, ReducedElement, ReducedIndex,
                   SphereGeometry, fourier_matrix_element, g_reduced, g_tilde,
                   matrix_element, matrix_element_zaxis, mu_coefficient,
                   omega_hat, overlap_polynomial, regime_of,
                   triple_bessel_nonoverlap, triple_bessel_overlap)
from .errors import (LaplaceMultipoleError, PoleResidueError, RegimeError,
                     SingularConfiguration, TailTooLarge, ZeroWaveVector)
from .specfun import (EulerAngles, MultipoleIndex, ThreeJValue,
                      spherical_bessel_j, spherical_harmonic, wigner_3j,
                      wigner_3j_float, wigner_D, wigner_small_d)

__all__ = [
    "__version__",
    "MultipoleIndex", "EulerAngles", "ThreeJValue", "ReducedIndex",
    "SphereGeometry", "ReducedElement", "RadialPolynomial",
    "QuadratureSpec",
    "wigner_3j", "wigner_3j_float", "wigner_small_d",
    "wigner_D", "spherical_harmonic", "spherical_bessel_j",
    "mu_coefficient", "triple_bessel_nonoverlap", "triple_bessel_overlap",
    "regime_of", "g_reduced", "overlap_polynomial", "matrix_element_zaxis",
    "matrix_element", "omega_hat", "fourier_matrix_element", "g_tilde",
    "defining_integral_quadrature", "hankel_triple_bessel",
    "hankel_forward", "hankel_inverse",
    "LaplaceMultipoleError", "PoleResidueError", "RegimeError",
    "ZeroWaveVector", "SingularConfiguration", "TailTooLarge",
]

_ORACLE_NAMES = ("QuadratureSpec", "defining_integral_quadrature",
                 "hankel_triple_bessel", "hankel_forward", "hankel_inverse")


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracles
        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ORACLE_NAMES})
