"""Exception types raised across the package.

Everything derives from ValueError so callers that do not care about the
fine-grained class can catch validation problems uniformly.
"""


class DomainError(ValueError):
    """Argument outside the mathematical domain of a function."""


class UnsupportedOrderError(DomainError):
    """Requested order exceeds the range this package validates."""


class TooCoarseError(ValueError):
    """Discretization resolution is below the supported minimum."""


class NotProlateError(ValueError):
    """Spheroid parameters do not describe a prolate body (need c > a)."""


class SingularityError(ValueError):
    """Evaluation requested at (or numerically on top of) a singular point."""


class DegenerateBasisError(ValueError):
    """A basis function has a vanishing boundary trace on this surface."""


class SingularSystemError(ValueError):
    """Linear system is singular or too ill-conditioned to solve reliably."""


class InvalidBasisError(ValueError):
    """Basis family is malformed or incompatible with the requested operation."""


class UndefinedNormalizationError(ValueError):
    """A normalized quantity was requested but its denominator vanishes."""


class UnsupportedRegionError(DomainError):
    """Evaluation point lies in a region where the representation is invalid."""


class UsageError(ValueError):
    """Bad command-line arguments or configuration input."""
