"""Multiphoton security tradeoff for quantum key distribution.

Multiphoton emissions expose a key exchange to photon-number-splitting
attacks in a lossy channel: security requires the legitimate detection
probability to stay above the multiphoton fraction of the source.  Only that
necessary condition is evaluated here; error correction and privacy
amplification are out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .defaults import LOSS_DB_PER_KM
from .errors import ValidationError, require_finite
from .experiment import HeraldedStats, SetupConfig, analytic_at
from .pair_source import REFERENCE_CALIBRATION_PER_MW

DISTANCE_CAP_KM = 500.0
DISTANCE_RESOLUTION_KM = 0.1


@dataclass(frozen=True)
class ChannelSpec:
    """Fiber channel and receiver seen by the delivered photons."""

    loss_db_per_km: float = LOSS_DB_PER_KM
    receiver_efficiency: float = 0.10
    receiver_dark_per_pulse: float = 2.5e-4

    def __post_init__(self):
        for name in ("loss_db_per_km", "receiver_efficiency", "receiver_dark_per_pulse"):
            require_finite(name, getattr(self, name))
        if self.loss_db_per_km < 0.0:
            raise ValidationError(f"loss coefficient must be >= 0, got {self.loss_db_per_km}", "loss_db_per_km")
        if not (0.0 <= self.receiver_efficiency <= 1.0):
            raise ValidationError(
                f"receiver efficiency must lie in [0, 1], got {self.receiver_efficiency}", "receiver_efficiency"
            )
        if not (0.0 <= self.receiver_dark_per_pulse <= 1.0):
            raise ValidationError(
                f"receiver dark probability must lie in [0, 1], got {self.receiver_dark_per_pulse}",
                "receiver_dark_per_pulse",
            )

    def transmission(self, distance_km: float) -> float:
        return float(10.0 ** (-self.loss_db_per_km * distance_km / 10.0))


@dataclass(frozen=True)
class SecureDistance:
    """Largest secure channel length under the multiphoton bound."""

    km: float
    capped: bool = False
    insecure_at_zero: bool = False


@dataclass(frozen=True)
class TradeoffRow:
    """One operating point of the pump-power tradeoff."""

    mu: float
    pump_power_mw: float
    trigger_rate: float = math.nan  # NaN on an error row, as each value below
    p1: float = math.nan
    p2: float = math.nan
    max_secure_km: float = math.nan
    capped: bool = False
    insecure_at_zero: bool = False
    error: str | None = None


def multiphoton_fraction(stats: HeraldedStats) -> float:
    """Probability of delivering more than one photon per heralded pulse."""
    return math.fsum(stats.values[2:])


def expected_detection_probability(stats: HeraldedStats, channel: ChannelSpec, distance_km: float) -> float:
    """Receiver click probability per heralded pulse at a given distance.

    Evaluated in Python floats: P(n) has at most 65 entries, too few for
    numpy's per-call overhead to pay off."""
    miss = 1.0 - channel.transmission(distance_km) * channel.receiver_efficiency
    detected, none_of_n = 0.0, 1.0
    for p_n in stats.values:
        detected += p_n * (1.0 - none_of_n)
        none_of_n *= miss
    return detected + channel.receiver_dark_per_pulse


def max_secure_distance(stats: HeraldedStats, channel: ChannelSpec) -> SecureDistance:
    """Largest distance where the detection probability beats the
    multiphoton fraction, bisected to :data:`DISTANCE_RESOLUTION_KM` and
    capped at :data:`DISTANCE_CAP_KM`.  Thirteen halvings of [0, cap] make
    the result the last secure point of a grid of cap / 2**13 km (0.061 km).

    Receiver dark counts appear on both sides of the bound -- an
    eavesdropper can neither suppress nor exploit them -- so the condition
    reduces to photon-borne detections >= multiphoton fraction, and the
    distance does not depend on the dark probability.  (An error-rate bound
    that penalizes a noisy receiver is out of scope.)

    Returns 0 km with a flag when the condition already fails at zero
    distance, and the cap with a flag when it never fails below it.
    """

    threshold = multiphoton_fraction(stats) + channel.receiver_dark_per_pulse

    def secure(distance_km: float) -> bool:
        return expected_detection_probability(stats, channel, distance_km) >= threshold

    if not secure(0.0):
        return SecureDistance(0.0, insecure_at_zero=True)
    if secure(DISTANCE_CAP_KM):
        return SecureDistance(DISTANCE_CAP_KM, capped=True)
    lo, hi = 0.0, DISTANCE_CAP_KM
    while hi - lo > DISTANCE_RESOLUTION_KM:
        mid = 0.5 * (lo + hi)
        if secure(mid):
            lo = mid
        else:
            hi = mid
    return SecureDistance(lo)


def pump_sweep(
    base_config: SetupConfig,
    mu_values,
    channel: ChannelSpec,
    pairs_per_pulse_per_mw: float = REFERENCE_CALIBRATION_PER_MW,
) -> list[TradeoffRow]:
    """Source rate versus multiphoton contamination across pump powers.

    Each row is the analytic forward model (dead time included) at one mean pair
    number, from :func:`~spdcherald.experiment.analytic_at` on the one setup,
    whose none-of table and herald weights every row reads; pump power follows
    from the linear calibration, and a calibration of 0 gives none.  A failing
    row is reported with its error message instead of being dropped.
    """
    mu_list = [float(m) for m in mu_values]
    if not mu_list:
        raise ValidationError("mu values must not be empty", "mu_values")
    if any(m <= 0.0 for m in mu_list):
        raise ValidationError("mu values must be positive", "mu_values")
    if sorted(mu_list) != mu_list:
        raise ValidationError("mu values must be sorted ascending", "mu_values")
    if not (pairs_per_pulse_per_mw >= 0.0):  # written as "inside" so that NaN fails the check
        raise ValidationError(f"pump calibration must be >= 0, got {pairs_per_pulse_per_mw}", "pairs_per_pulse_per_mw")
    rows: list[TradeoffRow] = []
    for mu in mu_list:
        pump_mw = mu / pairs_per_pulse_per_mw if pairs_per_pulse_per_mw > 0 else math.nan
        try:
            counts, stats = analytic_at(base_config, mu)
            distance = max_secure_distance(stats, channel)
            rows.append(
                TradeoffRow(
                    mu=mu,
                    pump_power_mw=pump_mw,
                    trigger_rate=counts.trigger_rate,
                    p1=stats.probability(1),
                    p2=stats.probability(2),
                    max_secure_km=distance.km,
                    capped=distance.capped,
                    insecure_at_zero=distance.insecure_at_zero,
                )
            )
        except Exception as exc:  # noqa: BLE001 - per-row errors are data
            rows.append(TradeoffRow(mu=mu, pump_power_mw=pump_mw, error=f"{type(exc).__name__}: {exc}"))
    return rows
