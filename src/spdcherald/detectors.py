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
# numpy's hypergeometric takes fewer than 1e9 good and bad items, so a longer
# train is walked in chunks of this many pulses
WALK_CHUNK = 1 << 29


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
        raise ValidationError("Monte Carlo requires an explicit seed (reproducibility)", "seed")
    if not (0 <= seed < SEED_LIMIT):
        raise ValidationError(f"Monte Carlo seed must lie in [0, 2**128), got {seed}", "seed")


def dead_time_window(dt: DeadTimeSpec, rep_rate_hz: float, n_pulses: int) -> int:
    """The dead time in pulses, ``round(tau * rep_rate)``, clamped to ``n_pulses``
    (a window past the train's end blocks what any longer one would)."""
    return int(round(min(dt.tau_s * rep_rate_hz, n_pulses)))


def bernoulli_positions(rng: np.random.Generator, p: float, size: int) -> np.ndarray:
    """Sorted indices of the successes among ``size`` Bernoulli(``p``) trials.

    Draws the gaps between successes (Devroye, *Non-Uniform Random Variate
    Generation*, 1986, ch. 2), so the cost scales with the number of
    successes rather than with ``size``.  A gap is ``1 + floor(E / q)`` with
    ``E`` standard exponential and ``q = -ln(1 - p)``.
    """
    if p <= 0.0 or size <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(size, dtype=np.int64)
    q = -math.log1p(-p)
    # a gap past the end is as good as any longer one; capping E there keeps
    # every gap within size + 2, so the int64 cast and the cumsum stay in
    # range however small p is
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


def nonparalyzable_walk(rng: np.random.Generator, p: float, size: int, window: int, last: int) -> tuple[int, int, int]:
    """Clicks, triggers and the last trigger among ``size`` pulses that click
    with probability ``p``, behind a nonparalyzable dead time of ``window``.

    The triggers are a renewal process (Müller, NIM 112, 47, 1973): the live
    pulses run Bernoulli trials one by one, and a success triggers and puts
    the next ``window`` pulses in its window.  After m trials with B(m)
    successes the walk has used ``m + window * B(m)`` pulses, so the trials
    run are the first m + 1, m the largest with ``m + window * B(m)`` below
    the live pulses r.  A binomial bridge finds m without placing a trigger:
    B(r) is Binomial(r, p), and bisection draws each B(mid) given its
    neighbours as a hypergeometric, about log2(r) scalar draws in all.  The
    clicks in the other pulses, all in a window, are one binomial draw.

    ``last`` indexes the trigger before (``-window - 1`` for none) from the
    first pulse, as the returned one does, so a train can be walked block by
    block.  The returned one is where a trigger would have to lie to carry
    the same window into the next block: the true last trigger, unless its
    window ends before the block does."""
    carried = min(max(last + window + 1, 0), size)  # the first pulses, in the window of ``last``
    r = size - carried
    lo, b_lo, hi, b_hi = 0, 0, r, int(rng.binomial(r, p))
    if window and b_hi:
        # invariant: trial lo + 1 runs and trial hi + 1 does not
        while hi - lo > 1:
            mid, good = (lo + hi) // 2, b_hi - b_lo
            if 0 < good < hi - lo:
                b_mid = b_lo + int(rng.hypergeometric(good, hi - lo - good, mid - lo))
            else:  # all trials between fail, or all succeed
                b_mid = b_lo + (mid - lo if good else 0)
            if mid + window * b_mid < r:
                lo, b_lo = mid, b_mid
            else:
                hi, b_hi = mid, b_mid
    # hi trials ran with b_hi triggers; the last window spills this far past the block
    spill = hi + window * b_hi - r
    clicks = b_hi + int(rng.binomial(size - hi, p))  # every pulse but a trial lies in a window
    return clicks, b_hi, size + spill - window - 1 if b_hi else last


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
    one before, a nonparalyzable one as :func:`nonparalyzable_walk` draws,
    over the train in chunks of :data:`WALK_CHUNK` pulses.  Reproducible for
    a fixed seed."""
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
        triggers, last = 0, -window - 1
        for start in range(0, n, WALK_CHUNK):
            size = min(WALK_CHUNK, n - start)
            _, n_trig, last = nonparalyzable_walk(rng, p_click, size, window, last)
            triggers += n_trig
            last -= size
    return int(triggers) / (n_pulses / rep_rate_hz)
