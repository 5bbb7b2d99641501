"""Exception types shared across the package."""


class DomainError(ValueError):
    """Inputs lie outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative solve exhausted its budget.

    Carries ``bracket``, the offending point's last iterate and the upper
    bound of its root (and, for field solves, its grid index), so callers
    can report exactly where iteration stalled.
    """

    def __init__(self, message, bracket=None, index=None):
        super().__init__(message)
        self.bracket = bracket
        self.index = index


class ConfigError(ValueError):
    """Unparsable or invalid run configuration."""


class ConsistencyError(RuntimeError):
    """A computed quantity violated an internal invariant."""
