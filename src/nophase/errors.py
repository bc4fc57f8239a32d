"""Exception hierarchy of all nophase modules, and the text naming one."""


class NophaseError(Exception):
    """Base class for all errors raised by this package."""


class SymmetryError(NophaseError):
    """A frequency sample claimed to represent a real function is not
    Hermitian-symmetric within tolerance."""


class MagnitudeError(NophaseError):
    """An exponential would overflow double precision (|f| >= 700)."""


class ConfigurationError(NophaseError):
    """Grid geometry is inadequate for the requested operation."""


class GridMismatchError(ConfigurationError):
    """Two samples, or a sample and a bump, live on different grids."""


class DomainError(NophaseError):
    """An argument lies outside the domain where the operation is defined."""


class FitError(NophaseError):
    """The exponential-decay fit has too few usable nodes or a
    non-decaying profile."""


class ConvergenceError(NophaseError):
    """An iteration failed to converge.  Carries the increment history."""

    def __init__(self, message, history):
        super().__init__(message)
        self.history = list(history)


class NumericalError(NophaseError):
    """A numerical procedure (series fitting, root finding, ODE step control)
    broke down."""


def describe(exc):
    """A failure's text, led by its type name if the text names no cause."""
    named = isinstance(exc, (OverflowError, MemoryError))
    return f"{type(exc).__name__}: {exc}" if named else str(exc)
