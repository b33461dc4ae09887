"""Click-detector response and trigger dead-time throughput.

Detectors are threshold ("click") devices: any number of incident photons
produces at most one count per gate/pulse window.  Afterpulsing is modeled
as rate inflation only; its temporal structure is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

DETECTOR_MODES = ("gated", "free_running")
DEAD_TIME_MODELS = ("paralyzable", "nonparalyzable")
NO_CLICK = -(10**18)  # dead-time state before the first click


@dataclass(frozen=True)
class ClickDetectorSpec:
    """Efficiency, dark noise, and afterpulsing of a single-photon detector.

    Gated detectors declare a dark probability per gate; free-running ones a
    dark rate in counts/s.  Exactly one of the two must be set, matching the
    operating mode.
    """

    efficiency: float
    mode: str = "gated"
    dark_prob_per_gate: float | None = None
    dark_rate_cps: float | None = None
    afterpulse_prob: float = 0.0
    gate_width_ns: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.efficiency <= 1.0):
            raise ValidationError(f"efficiency must lie in [0, 1], got {self.efficiency}")
        if self.mode not in DETECTOR_MODES:
            raise ValidationError(f"unknown detector mode {self.mode!r}; expected one of {DETECTOR_MODES}")
        if not (0.0 <= self.afterpulse_prob < 1.0):
            raise ValidationError(f"afterpulse probability must lie in [0, 1), got {self.afterpulse_prob}")
        if self.mode == "gated":
            if self.dark_prob_per_gate is None or self.dark_rate_cps is not None:
                raise ValidationError("gated mode requires dark_prob_per_gate (and no dark_rate_cps)")
            if not (0.0 <= self.dark_prob_per_gate <= 1.0):
                raise ValidationError(f"dark probability must lie in [0, 1], got {self.dark_prob_per_gate}")
        else:
            if self.dark_rate_cps is None or self.dark_prob_per_gate is not None:
                raise ValidationError("free_running mode requires dark_rate_cps (and no dark_prob_per_gate)")
            if self.dark_rate_cps < 0.0:
                raise ValidationError(f"dark rate must be >= 0, got {self.dark_rate_cps}")

    def dark_probability(self, window_s: float | None = None) -> float:
        """Dark-count probability in one gate or one time window.

        Free-running mode needs the window duration; dark arrivals are
        Poissonian, so the per-window probability is ``1 - exp(-rate * T)``.
        """
        if self.mode == "gated":
            return self.dark_prob_per_gate
        if window_s is None:
            raise ValidationError("free_running dark probability needs a window duration")
        return float(-np.expm1(-self.dark_rate_cps * window_s))


@dataclass(frozen=True)
class DeadTimeSpec:
    """Dead time of the trigger electronics, in microseconds."""

    tau_us: float = 1.0
    model: str = "paralyzable"

    def __post_init__(self):
        if self.tau_us < 0.0:
            raise ValidationError(f"dead time must be >= 0, got {self.tau_us} us")
        if self.model not in DEAD_TIME_MODELS:
            raise ValidationError(f"unknown dead-time model {self.model!r}; expected one of {DEAD_TIME_MODELS}")

    @property
    def tau_s(self) -> float:
        return self.tau_us * 1e-6


def click_probability(
    incident_pmf: np.ndarray,
    spec: ClickDetectorSpec,
    window_s: float | None = None,
) -> float:
    """Click probability per gate for a photon-number pmf at the detector.

    Threshold response with independent dark counts:
    ``p = 1 - (1 - p_dark) * sum_n pmf[n] (1 - eta)^n``, inflated by the
    afterpulse term ``(1 + afterpulse_prob)``.
    """
    p = np.asarray(incident_pmf, dtype=float)
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError(f"incident pmf is not normalized (sum = {p.sum()!r})")
    if np.any(p < -1e-15):
        raise ValidationError("incident pmf has negative entries")
    d = spec.dark_probability(window_s)
    n = np.arange(p.size)
    no_photon_click = float((p * (1.0 - spec.efficiency) ** n).sum())
    prob = 1.0 - (1.0 - d) * no_photon_click
    return min(prob * (1.0 + spec.afterpulse_prob), 1.0)


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
    if model == "paralyzable" or window == 0:  # the two models agree at zero
        keep = np.diff(clicks, prepend=last) > window
        return keep, int(clicks[-1]) if clicks.size else last
    keep = np.zeros(clicks.size, dtype=bool)
    for j, idx in enumerate(clicks.tolist()):
        if idx - last > window:
            keep[j] = True
            last = idx
    return keep, last


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
    if input_rate < 0.0:
        raise DomainError(f"input rate must be >= 0, got {input_rate}")
    if n_pulses < 1:
        raise ValidationError("n_pulses must be >= 1")
    p_click = input_rate / rep_rate_hz
    if p_click > 1.0:
        raise DomainError("input rate exceeds one click per pulse")
    rng = np.random.Generator(np.random.Philox(key=seed))
    clicks = np.flatnonzero(rng.random(int(n_pulses)) < p_click)
    window = int(round(dt.tau_s * rep_rate_hz))
    keep, _ = dead_time_filter(clicks, window, dt.model, NO_CLICK)
    return int(keep.sum()) / (n_pulses / rep_rate_hz)


def afterpulse_inflation(base_rate: float, afterpulse_prob: float) -> float:
    """Rate inflation from afterpulses triggering further afterpulses.

    Geometric series: ``rate / (1 - p)``.
    """
    if not (0.0 <= afterpulse_prob < 1.0):
        raise DomainError(f"afterpulse probability must lie in [0, 1), got {afterpulse_prob}")
    if base_rate < 0.0:
        raise DomainError(f"rate must be >= 0, got {base_rate}")
    return base_rate / (1.0 - afterpulse_prob)
