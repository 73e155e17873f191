"""Exception taxonomy shared across the package.

ConfigError marks rejected inputs (CLI exit 2); the numerical failures
(CLI exit 3) are GapError, ResolutionError, ConsistencyError.
"""


class DiracDiagError(Exception):
    """Base class for package-specific failures."""


class ConfigError(DiracDiagError):
    """Invalid or inconsistent run configuration."""


class NumericalError(DiracDiagError):
    """A numerical precondition failed at run time."""


class GapError(NumericalError):
    """Spectral gap closed; spectral projectors undefined."""


class ResolutionError(NumericalError):
    """A grid is too coarse for the requested accuracy."""


class ConsistencyError(NumericalError):
    """Cross-validation between two computation paths disagreed."""
