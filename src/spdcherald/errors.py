"""Exception hierarchy shared across the toolkit, and the argument checks
every module shares, the run values among them, so that a subcommand checks
its run without loading a model.

The CLI maps these onto exit codes: validation problems exit 2, numerical
failures exit 3, I/O failures exit 4.
"""

import math
import operator

from .defaults import RUN_MODES

SEED_LIMIT = 1 << 128  # Philox keys are 128 bits
MC_MIN_PULSES = 1_000_000


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


def require_finite(name: str, value: float, field: str | None = None) -> None:
    """Raise :class:`ValidationError`, naming ``field``, when ``value`` is NaN or infinite."""
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}", field)


def require_integer(name: str, value) -> int:
    """``value`` as an int, or a :class:`ValidationError` naming ``name`` unless
    it is a Python or numpy integer (nothing is truncated silently)."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}", name) from None


def check_seed(seed: int | None) -> None:
    """Raise :class:`ValidationError` unless ``seed`` is a Philox key."""
    if seed is None:
        raise ValidationError("Monte Carlo requires an explicit seed (reproducibility)", "seed")
    require_integer("seed", seed)
    if not (0 <= seed < SEED_LIMIT):
        raise ValidationError(f"Monte Carlo seed must lie in [0, 2**128), got {seed}", "seed")


def check_run(mode: str, n_pulses, seed) -> None:
    """Raise :class:`ValidationError` unless ``mode`` is a run mode and, for
    the Monte Carlo, ``n_pulses`` and ``seed`` are what it needs."""
    if mode not in RUN_MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected {' or '.join(map(repr, RUN_MODES))}", "mode")
    if mode == "monte_carlo":
        check_seed(seed)
        if n_pulses is None or require_integer("n_pulses", n_pulses) < MC_MIN_PULSES:
            raise ValidationError(f"monte_carlo mode requires n_pulses >= {MC_MIN_PULSES}", "n_pulses")


class NumericalError(SpdcHeraldError):
    """A computation could not produce a meaningful result."""


class NoPhaseMatchingError(NumericalError):
    """No phase-matching angle exists in the searched bracket."""

    def __init__(self, message, residual_low=None, residual_high=None):
        super().__init__(message)
        self.residual_low = residual_low
        self.residual_high = residual_high


class ResolutionWarning(UserWarning):
    """A spectral grid is too coarse to resolve the computed feature."""


class EmptyMarginalError(NumericalError):
    """A spectral filter does not overlap the spectrum support."""


class InfeasibleCountsError(NumericalError):
    """Measured counts are inconsistent with the declared losses."""


class EstimationError(NumericalError):
    """A statistical estimate cannot be formed (e.g. zero counts)."""
