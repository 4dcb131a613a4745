"""Exception types shared across the package."""


class NlslabError(Exception):
    """Base class for all package errors."""


class GridCompatibilityError(NlslabError):
    """Two fields live on grids that do not match within tolerance."""


class MassLossError(NlslabError):
    """Resampling would silently drop more mass than allowed."""


class SolverHealthError(NlslabError):
    """A time integration violated its resolution or conservation monitors.

    Carries a ``diagnostics`` dict with the offending quantities.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ConvergenceError(NlslabError):
    """A half-line quadrature has a tail that does not converge."""


class SnapshotFormatError(NlslabError, ValueError):
    """A field snapshot file is truncated or malformed.

    Also a ValueError, which is what readers caught before the format was
    checked field by field.
    """


class ConfigError(NlslabError):
    """An experiment configuration is malformed."""
