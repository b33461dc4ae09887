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

from .defaults import AFTERPULSE_PROB, DEAD_TIME_MODELS
from .errors import DomainError, ValidationError, check_seed, require_integer, require_range

# Monte Carlo pulses are processed in fixed-size blocks, so memory is per
# block.  The experiment's Monte Carlo draws each block from its own
# counter-based substream, so its results do not depend on how blocks are
# scheduled.  Changing this constant changes the sampled stream.
MC_BLOCK = 1 << 20
# numpy's hypergeometric takes fewer than 1e9 good and bad items, so a longer
# train is walked in chunks of this many pulses
WALK_CHUNK = 1 << 29


@dataclass(frozen=True)
class FreeRunningDetector:
    """A free-running click detector (the herald arm): efficiency and a
    Poissonian dark rate in counts/s."""

    efficiency: float
    dark_rate_cps: float

    def __post_init__(self):
        require_range("efficiency", self.efficiency, 0.0, 1.0, "efficiency")
        require_range("dark rate", self.dark_rate_cps, 0.0, field="dark_rate_cps")

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
    afterpulse_prob: float = AFTERPULSE_PROB

    def __post_init__(self):
        require_range("efficiency", self.efficiency, 0.0, 1.0, "efficiency")
        require_range("dark probability", self.dark_prob_per_gate, 0.0, 1.0, "dark_prob_per_gate")
        require_range("afterpulse probability", self.afterpulse_prob, 0.0, 1.0, "afterpulse_prob", hi_open=True)


@dataclass(frozen=True)
class DeadTimeSpec:
    """Dead time of the trigger electronics, in microseconds."""

    tau_us: float = 1.0
    model: str = DEAD_TIME_MODELS[0]

    def __post_init__(self):
        require_range("dead time", self.tau_us, 0.0, field="tau_us")
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
    if not (0.0 <= input_rate < math.inf):  # written as "inside" so that NaN fails the check
        raise DomainError(f"input rate must be finite and >= 0, got {input_rate}", "input_rate")
    tau = dt.tau_s
    if dt.model == "paralyzable":
        return input_rate * float(np.exp(-input_rate * tau))
    return input_rate / (1.0 + input_rate * tau)


def dead_time_window(dt: DeadTimeSpec, rep_rate_hz: float, n_pulses: int) -> int:
    """The dead time in pulses, ``round(tau * rep_rate)``, clamped to ``n_pulses``
    (a window past the train's end blocks what any longer one would)."""
    return int(round(min(dt.tau_s * rep_rate_hz, n_pulses)))


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


def paralyzable_triggers(rng: np.random.Generator, clicks: int, size: int, window: int, last: int) -> tuple[int, int]:
    """Triggers and the last click when ``clicks`` clicks fall among ``size``
    pulses, behind a paralyzable dead time of ``window``.

    The clicks take a uniform subset of the pulses, and one triggers when the
    click before it lies more than ``window`` pulses back: every click, not
    only a trigger, restarts the window.  ``last`` indexes the click before
    from the first pulse, as the returned one does, so a train can be walked
    block by block."""
    at = np.sort(rng.choice(size, clicks, replace=False, shuffle=False))
    triggers = int(np.count_nonzero(np.diff(at, prepend=last) > window))
    return triggers, int(at[-1]) if clicks else last


def simulate_dead_time(
    input_rate: float,
    dt: DeadTimeSpec,
    rep_rate_hz: float,
    n_pulses: int,
    seed: int,
) -> float:
    """Monte Carlo dead-time throughput on a discrete pulse train.

    Clicks are Bernoulli events, one chance per pulse, and the window is
    ``round(tau * rep_rate)`` pulses.  The train is walked in blocks that
    carry the window from one to the next, so memory is per block: a
    paralyzable stage draws each :data:`MC_BLOCK`-pulse block's click count
    as a binomial and triggers as :func:`paralyzable_triggers` places them, a
    nonparalyzable one as :func:`nonparalyzable_walk` draws over blocks of
    :data:`WALK_CHUNK` pulses.  Reproducible for a fixed seed."""
    require_range("input rate", input_rate, field="input_rate")
    if input_rate < 0.0:
        raise DomainError(f"input rate must be >= 0, got {input_rate}", "input_rate")
    require_range("rep_rate_hz", rep_rate_hz, 0.0, field="rep_rate_hz", lo_open=True)
    n = require_integer("n_pulses", n_pulses)
    require_range("n_pulses", n, 1, field="n_pulses")
    check_seed(seed)
    p_click = input_rate / rep_rate_hz
    if p_click > 1.0:
        raise DomainError("input rate exceeds one click per pulse", ("input_rate", "rep_rate_hz"))
    rng = np.random.Generator(np.random.Philox(key=seed))
    window = dead_time_window(dt, rep_rate_hz, n)
    paralyzable = dt.model == "paralyzable"
    block = MC_BLOCK if paralyzable else WALK_CHUNK
    triggers, last = 0, -window - 1
    for start in range(0, n, block):
        size = min(block, n - start)
        if paralyzable:
            n_trig, last = paralyzable_triggers(rng, int(rng.binomial(size, p_click)), size, window, last)
        else:
            _, n_trig, last = nonparalyzable_walk(rng, p_click, size, window, last)
        triggers += n_trig
        last -= size
    return triggers / (n_pulses / rep_rate_hz)
