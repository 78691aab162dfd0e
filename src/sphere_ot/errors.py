"""Exception types shared across the package."""


class SphereOTError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SphereOTError):
    """Input lies outside the mathematical domain of an operation."""


class ConfigError(SphereOTError):
    """Invalid configuration or parameter combination."""


class SolverError(SphereOTError):
    """Transport solve failed (infeasible marginals or backend failure)."""


class ConvergenceError(SolverError):
    """Iterative solver did not reach the requested tolerance."""


class ExtractionError(SphereOTError):
    """Coupling support is inconsistent with a two-image map structure."""


class InsufficientDataError(SphereOTError):
    """Too few samples or pairs to run a diagnostic."""


class SolverFallbackWarning(RuntimeWarning):
    """The exact solver left the assignment path for the LP; the message says why."""
