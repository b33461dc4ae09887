"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: validation problems exit 2, numerical
failures exit 3, I/O failures exit 4.
"""

import math
import operator


class SpdcHeraldError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(SpdcHeraldError):
    """Invalid configuration, scenario file, or argument; ``field`` names the
    attribute at fault, where there is one, or is a tuple of the attributes
    whose values together are at fault."""

    def __init__(self, message: str, field: str | tuple[str, ...] | None = None):
        super().__init__(message)
        self.field = field


class DomainError(ValidationError):
    """Argument outside the mathematically or physically valid domain."""


def require_finite(name: str, value: float) -> None:
    """Raise :class:`ValidationError` when ``value`` is NaN or infinite."""
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")


def require_integer(name: str, value) -> int:
    """``value`` as an int, or a :class:`ValidationError` naming ``name`` unless
    it is a Python or numpy integer (nothing is truncated silently)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}", name) from None


class NumericalError(SpdcHeraldError):
    """A computation could not produce a meaningful result."""


class NoPhaseMatchingError(NumericalError):
    """No phase-matching angle exists in the searched bracket."""

    def __init__(self, message, residual_low=None, residual_high=None):
        super().__init__(message)
        self.residual_low = residual_low
        self.residual_high = residual_high


class ResolutionWarning(UserWarning):
    """A grid or truncation is too coarse to resolve the computed feature."""


class EmptyMarginalError(NumericalError):
    """A spectral filter does not overlap the spectrum support."""


class InfeasibleCountsError(NumericalError):
    """Measured counts are inconsistent with the declared losses."""


class EstimationError(NumericalError):
    """A statistical estimate cannot be formed (e.g. zero counts)."""
