"""Exception taxonomy shared across the package, and the one gate primitive.

ConfigError marks rejected inputs (CLI exit 2); the numerical failures
(CLI exit 3) are GapError, ResolutionError, ConsistencyError.  Every
numerical check compares its measured value with its tolerance through
``gate``, the only place that raises a numerical failure, so each one
exits 3.
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


def gate(value, tol, message: str, error: type[NumericalError] = ConsistencyError, **fields):
    """Return value when value <= tol, else raise error(message.format(...)).

    The message is formatted with value, tol and fields.  The test is
    written so that a NaN fails.  A strict lower bound x > 0 is
    gate(-x, -math.ulp(0.0), ...): no float lies between 0 and ulp(0).
    """
    if value <= tol:
        return value
    raise error(message.format(value=value, tol=tol, **fields))
