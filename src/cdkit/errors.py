"""Exception hierarchy for cdkit.

Every failure the toolkit can diagnose maps to one of the classes below, so
callers can distinguish bad inputs from numerical breakdowns without parsing
messages.
"""

from __future__ import annotations


class CdkitError(Exception):
    """Base class for all cdkit failures."""


class ParameterDomainError(CdkitError, ValueError):
    """An argument lies outside its mathematical domain.

    Raised for nonpositive scale or degrees of freedom, probabilities outside
    (0, 1), confidence levels outside (0, 1), and similar violations.
    """


class MonotonicityError(CdkitError, ValueError):
    """A map declared monotone failed a direction check."""


class DegenerateSampleError(CdkitError, ValueError):
    """A sample lacks the variation an operation needs (zero sd, |r| = 1)."""


class InsufficientDataError(CdkitError, ValueError):
    """Fewer observations than the operation requires."""


class InsufficientReplicatesError(CdkitError, ValueError):
    """Too few usable replicates to form the requested summary."""


class UnsupportedRepresentationError(CdkitError, TypeError):
    """The operation is undefined for this CD representation."""


class NonintegrableCdError(CdkitError, ArithmeticError):
    """A moment-style functional of the CD does not converge."""


class WindowTooNarrowError(CdkitError, ValueError):
    """A likelihood window clips mass at an edge; carries a peak sitting on it."""

    def __init__(self, message: str, edge_theta: float | None = None):
        super().__init__(message)
        self.edge_theta = edge_theta


class OptimizationFailureError(CdkitError, ArithmeticError):
    """A maximizer failed to converge; carries the last iterate."""

    def __init__(self, message: str, theta: float | None = None):
        super().__init__(message)
        self.theta = theta


class PartitionError(CdkitError, ValueError):
    """Regions handed to a classifier do not partition the support."""


class PairingError(CdkitError, ValueError):
    """Two generators cannot be compared on shared data."""


class SingularMatrixError(CdkitError, ArithmeticError):
    """A matrix that must be invertible is singular or near-singular."""


class MapDomainError(CdkitError, ValueError):
    """A user-supplied map produced non-finite values."""


class ConfigError(CdkitError, ValueError):
    """A run configuration is malformed or inconsistent."""
