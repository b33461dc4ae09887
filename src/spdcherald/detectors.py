"""Click-detector response and trigger dead-time throughput.

Detectors are threshold ("click") devices: any number of incident photons
produces at most one count per gate/pulse window.  The herald detector runs
free and the idler detector is gated, one type each.  Afterpulsing, on the
gated idler detector, is modeled as rate inflation only; its temporal
structure is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError, require_finite

DEAD_TIME_MODELS = ("paralyzable", "nonparalyzable")
NO_CLICK = -(10**18)  # dead-time state before the first click
SEED_LIMIT = 1 << 128  # Philox keys are 128 bits


def _check_efficiency(efficiency: float) -> None:
    if not (0.0 <= efficiency <= 1.0):
        raise ValidationError(f"efficiency must lie in [0, 1], got {efficiency}", "efficiency")


@dataclass(frozen=True)
class FreeRunningDetector:
    """A free-running click detector (the herald arm): efficiency and a
    Poissonian dark rate in counts/s."""

    efficiency: float
    dark_rate_cps: float

    def __post_init__(self):
        _check_efficiency(self.efficiency)
        require_finite("dark rate", self.dark_rate_cps)
        if self.dark_rate_cps < 0.0:
            raise ValidationError(f"dark rate must be >= 0, got {self.dark_rate_cps}", "dark_rate_cps")

    def dark_probability(self, window_s: float) -> float:
        """Dark-count probability in a window of ``window_s`` seconds,
        ``1 - exp(-rate * T)``."""
        return float(-np.expm1(-self.dark_rate_cps * window_s))


@dataclass(frozen=True)
class GatedDetector:
    """A gated click detector (the idler arm): efficiency, a dark probability
    per gate, and the afterpulse probability per click."""

    efficiency: float
    dark_prob_per_gate: float
    afterpulse_prob: float = 0.0

    def __post_init__(self):
        _check_efficiency(self.efficiency)
        if not (0.0 <= self.dark_prob_per_gate <= 1.0):
            raise ValidationError(
                f"dark probability must lie in [0, 1], got {self.dark_prob_per_gate}", "dark_prob_per_gate"
            )
        if not (0.0 <= self.afterpulse_prob < 1.0):
            raise ValidationError(
                f"afterpulse probability must lie in [0, 1), got {self.afterpulse_prob}", "afterpulse_prob"
            )


@dataclass(frozen=True)
class DeadTimeSpec:
    """Dead time of the trigger electronics, in microseconds."""

    tau_us: float = 1.0
    model: str = "paralyzable"

    def __post_init__(self):
        require_finite("dead time", self.tau_us)
        if self.tau_us < 0.0:
            raise ValidationError(f"dead time must be >= 0, got {self.tau_us} us", "tau_us")
        if self.model not in DEAD_TIME_MODELS:
            raise ValidationError(
                f"unknown dead-time model {self.model!r}; expected one of {DEAD_TIME_MODELS}", "model"
            )

    @property
    def tau_s(self) -> float:
        return self.tau_us * 1e-6


def dead_time_throughput(input_rate: float, dt: DeadTimeSpec) -> float:
    """Output rate of a dead-time-limited stage fed at ``input_rate`` counts/s.

    Paralyzable: ``R exp(-R tau)`` (every input extends the dead window).
    Nonparalyzable: ``R / (1 + R tau)``.
    """
    if input_rate < 0.0:
        raise DomainError(f"input rate must be >= 0, got {input_rate}")
    tau = dt.tau_s
    if tau == 0.0:
        return input_rate
    if dt.model == "paralyzable":
        return input_rate * float(np.exp(-input_rate * tau))
    return input_rate / (1.0 + input_rate * tau)


def dead_time_filter(clicks: np.ndarray, window: int, model: str, last: int) -> tuple[np.ndarray, int]:
    """Which clicks survive a dead time of ``window`` pulses.

    ``clicks`` are increasing pulse indices; a click survives when the last
    blocking click lies more than ``window`` pulses before it.  A paralyzable
    stage is blocked by every click, a nonparalyzable one only by survivors.
    ``last`` is the blocking click before ``clicks`` (:data:`NO_CLICK` for
    none); the blocking click after them comes back with the keep mask, so a
    stream can be filtered block by block.
    """
    keep = np.diff(clicks, prepend=last) > window  # past the previous click's window: kept by either model
    if model == "paralyzable" or window == 0 or clicks.size == 0:  # the two models agree at zero
        return keep, int(clicks[-1]) if clicks.size else last
    # Nonparalyzable: the first click past a survivor's window survives too.
    # Pointer doubling marks those successors (round k reaches 2^k survivors
    # on) until a round marks nothing new; index clicks.size stands for none.
    jump = np.append(np.searchsorted(clicks, clicks + window + 1), clicks.size)
    keep = np.append(keep, False)
    keep[np.searchsorted(clicks, last + window + 1)] = True  # the first click past ``last``'s window
    marked = 0
    while np.count_nonzero(keep) > marked:
        marked = np.count_nonzero(keep)
        keep[jump[keep]] = True
        jump = jump[jump]
    survivors = np.flatnonzero(keep[:-1])
    return keep[:-1], int(clicks[survivors[-1]]) if survivors.size else last


def check_seed(seed: int | None) -> None:
    """Raise :class:`ValidationError` unless ``seed`` is a Philox key."""
    if seed is None:
        raise ValidationError("Monte Carlo requires an explicit seed (reproducibility)")
    if not (0 <= seed < SEED_LIMIT):
        raise ValidationError(f"Monte Carlo seed must lie in [0, 2**128), got {seed}")


def bernoulli_positions(rng: np.random.Generator, p: float, size: int) -> np.ndarray:
    """Sorted indices of the successes among ``size`` Bernoulli(``p``) trials.

    Draws the geometric gaps between successes (Devroye, *Non-Uniform Random
    Variate Generation*, 1986, ch. 2), so the cost scales with the number of
    successes rather than with ``size``.  A gap is ``1 + floor(E / q)`` with
    ``E`` standard exponential and ``q = -ln(1 - p)``.
    """
    if p <= 0.0 or size <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(size, dtype=np.int64)
    q = -math.log1p(-p)
    # a gap past the end is as good as any longer one; capping E there keeps
    # every gap within size + 2, so the int64 cast and the cumsum stay in range
    # however small p is
    cap = (size + 1) * q
    found = []
    last = -1  # the last success so far
    while True:
        # enough gaps to pass the end in one draw, bar a 6-sigma shortfall
        mean = p * (size - 1 - last)
        e = rng.standard_exponential(int(mean + 6.0 * math.sqrt(mean)) + 16)
        at = last + np.cumsum((np.minimum(e, cap) / q).astype(np.int64) + 1)
        if at[-1] >= size:
            found.append(at[: np.searchsorted(at, size)])
            return np.concatenate(found)
        found.append(at)
        last = int(at[-1])


def simulate_dead_time(
    input_rate: float,
    dt: DeadTimeSpec,
    rep_rate_hz: float,
    n_pulses: int,
    seed: int,
) -> float:
    """Monte Carlo dead-time throughput on a discrete pulse train.

    Clicks arrive as Bernoulli events at the pulse rate; a click survives the
    dead time when no blocking click fell within the preceding
    ``round(tau * rep_rate)`` pulses.  Reproducible for a fixed seed.
    """
    require_finite("input rate", input_rate)
    if input_rate < 0.0:
        raise DomainError(f"input rate must be >= 0, got {input_rate}")
    if n_pulses < 1:
        raise ValidationError("n_pulses must be >= 1")
    check_seed(seed)
    p_click = input_rate / rep_rate_hz
    if p_click > 1.0:
        raise DomainError("input rate exceeds one click per pulse")
    rng = np.random.Generator(np.random.Philox(key=seed))
    clicks = bernoulli_positions(rng, p_click, int(n_pulses))
    window = int(round(dt.tau_s * rep_rate_hz))
    keep, _ = dead_time_filter(clicks, window, dt.model, NO_CLICK)
    return int(keep.sum()) / (n_pulses / rep_rate_hz)

