"""Exception hierarchy shared across the package."""


class LaplaceMultipoleError(Exception):
    """Base class for all package-specific errors."""


class NonConvergence(LaplaceMultipoleError):
    """Series did not converge; raised nowhere, kept for the bench tests."""


class PoleResidueError(LaplaceMultipoleError):
    """A divergent or logarithmic part of an overlap build did not cancel."""


class RegimeError(LaplaceMultipoleError):
    """Closed-form branch called outside its validity region."""


class ZeroWaveVector(LaplaceMultipoleError):
    """Fourier-space operation at k = 0, where the 1/k^2 kernel diverges."""


class SingularConfiguration(LaplaceMultipoleError):
    """Surface quadrature could not reach the requested accuracy."""


class TailTooLarge(LaplaceMultipoleError):
    """Estimated semi-infinite integral tail exceeds the tolerance budget."""
