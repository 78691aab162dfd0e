"""Numerical laboratory for quadratic-cost transport between sphere measures."""

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    ExtractionError,
    InsufficientDataError,
    SolverError,
    SphereOTError,
)

__all__ = [
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "ExtractionError",
    "InsufficientDataError",
    "SolverError",
    "SphereOTError",
]

__version__ = "0.1.0"
