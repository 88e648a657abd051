"""Exception hierarchy.

Every error raised on purpose by this package derives from
:class:`EllipticRMatrixError`, so callers can distinguish deliberate
domain/numerical failures from plain bugs.
"""

__all__ = [
    "EllipticRMatrixError",
    "DomainError",
    "TruncationError",
    "DimensionError",
    "SizeError",
    "KindError",
    "PoleError",
    "ConvergenceError",
    "ConfigError",
]


class EllipticRMatrixError(Exception):
    """Base class for all deliberate errors of this package."""


class DomainError(EllipticRMatrixError):
    """A parameter left its domain of definition (e.g. a base with |b| >= 1)."""


class TruncationError(EllipticRMatrixError):
    """An infinite product or series did not reach the truncation floor
    ``special_functions.ABS_FLOOR`` within ``special_functions.MAX_TERMS`` terms."""


class DimensionError(EllipticRMatrixError):
    """Slot indices or operator shapes are inconsistent."""


class SizeError(EllipticRMatrixError):
    """An N whose largest array would hold more than the size budget,
    ``tensor_algebra.MAX_ENTRIES`` = 2^24 complex entries, or another bad size."""


class KindError(EllipticRMatrixError):
    """The requested R-matrix family is unavailable for these parameters."""


class PoleError(EllipticRMatrixError):
    """A denominator vanished at the requested point: a theta value of base b
    below ``special_functions.POLE_GUARD`` |(b; b)|, the one rule of every
    theta denominator and of the elliptic gamma quotients' poles, or a
    denominator of the trigonometric kinds.  Nothing redraws the point.

    Carries the offending argument so command-line reports can show where
    the lattice zero was hit.
    """

    def __init__(self, message: str, argument: complex | None = None):
        super().__init__(message)
        self.argument = argument


class ConvergenceError(EllipticRMatrixError):
    """An eigen/singular-value routine failed to converge."""


class ConfigError(EllipticRMatrixError):
    """Invalid run configuration (CLI arguments, literals, output paths)."""
