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


def check_seed(seed: int | None) -> None:
    """Raise :class:`ValidationError` unless ``seed`` is a Philox key."""
    if seed is None:
        raise ValidationError("Monte Carlo requires an explicit seed (reproducibility)")
    if not (0 <= seed < SEED_LIMIT):
        raise ValidationError(f"Monte Carlo seed must lie in [0, 2**128), got {seed}")


def dead_time_window(dt: DeadTimeSpec, rep_rate_hz: float, n_pulses: int) -> int:
    """The dead time in pulses, ``round(tau * rep_rate)``, clamped to ``n_pulses``
    (a window past the train's end blocks what any longer one would)."""
    return int(round(min(dt.tau_s * rep_rate_hz, n_pulses)))


def bernoulli_positions(rng: np.random.Generator, p: float, size: int, skip: int = 0) -> np.ndarray:
    """Sorted indices of the successes among ``size`` Bernoulli(``p``) trials,
    where the ``skip`` trials after each success are not run.

    Draws the gaps between successes (Devroye, *Non-Uniform Random Variate
    Generation*, 1986, ch. 2), so the cost scales with the number of
    successes rather than with ``size``.  A gap is ``skip + 1 + floor(E / q)``
    with ``E`` standard exponential and ``q = -ln(1 - p)``.
    """
    if p <= 0.0 or size <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(0, size, skip + 1, dtype=np.int64)
    q = -math.log1p(-p)
    # a gap past the end is as good as any longer one; capping E there keeps
    # every gap within size + skip + 2, so the int64 cast and the cumsum stay
    # in range however small p is
    cap = (size + 1) * q
    found = []
    last = -1 - skip  # the last success so far; the first trial is run
    while True:
        # enough gaps to pass the end in one draw, bar a 6-sigma shortfall
        mean = p * (size - 1 - last) / (1.0 + p * skip)
        e = rng.standard_exponential(int(mean + 6.0 * math.sqrt(mean)) + 16)
        at = last + np.cumsum((np.minimum(e, cap) / q).astype(np.int64) + (1 + skip))
        if at[-1] >= size:
            found.append(at[: np.searchsorted(at, size)])
            return np.concatenate(found)
        found.append(at)
        last = int(at[-1])


def nonparalyzable_walk(rng: np.random.Generator, p: float, size: int, window: int, last: int) -> tuple[int, int, int]:
    """Clicks, triggers and the last trigger among ``size`` pulses that click
    with probability ``p``, behind a nonparalyzable dead time of ``window``.

    The triggers are a renewal process (Müller, NIM 112, 47, 1973), drawn by
    :func:`bernoulli_positions` with a skip of ``window``; the clicks in dead
    pulses are one binomial draw.  ``last`` indexes the trigger before
    (``-window - 1`` for none) from the first pulse, as the returned one
    does, so a train can be walked block by block."""
    live = min(max(last + window + 1, 0), size)  # the pulses before it are in the window of ``last``
    at = live + bernoulli_positions(rng, p, size - live, window)
    # the triggers' windows, the last one cut at the end
    dead = live + window * at.size - (max(int(at[-1]) + window + 1 - size, 0) if at.size else 0)
    return at.size + int(rng.binomial(dead, p)), at.size, int(at[-1]) if at.size else last


def simulate_dead_time(
    input_rate: float,
    dt: DeadTimeSpec,
    rep_rate_hz: float,
    n_pulses: int,
    seed: int,
) -> float:
    """Monte Carlo dead-time throughput on a discrete pulse train.

    Clicks are Bernoulli events, one chance per pulse.  A paralyzable stage
    triggers on a click more than ``round(tau * rep_rate)`` pulses after the
    one before, a nonparalyzable one on each step of
    :func:`nonparalyzable_walk`.  Reproducible for a fixed seed."""
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
    n = int(n_pulses)
    window = dead_time_window(dt, rep_rate_hz, n)
    if dt.model == "paralyzable":
        triggers = np.count_nonzero(np.diff(bernoulli_positions(rng, p_click, n), prepend=-window - 1) > window)
    else:
        triggers = nonparalyzable_walk(rng, p_click, n, window, -window - 1)[1]
    return int(triggers) / (n_pulses / rep_rate_hz)
