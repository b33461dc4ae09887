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
from .errors import ValidationError, require_range
from .experiment import HeraldedStats, SetupConfig, analytic_at
from .pair_source import REFERENCE_CALIBRATION_PER_MW

DISTANCE_CAP_KM = 500.0
DISTANCE_RESOLUTION_KM = 0.1
GRID_INTERVALS = 2**13  # the fewest halvings of the cap that reach the resolution
GRID_STEP_KM = DISTANCE_CAP_KM / GRID_INTERVALS  # 0.061 km, exact in binary


@dataclass(frozen=True)
class ChannelSpec:
    """Fiber channel and receiver seen by the delivered photons."""

    loss_db_per_km: float = LOSS_DB_PER_KM
    receiver_efficiency: float = 0.10
    receiver_dark_per_pulse: float = 2.5e-4

    def __post_init__(self):
        require_range("loss coefficient", self.loss_db_per_km, 0.0, field="loss_db_per_km")
        require_range("receiver efficiency", self.receiver_efficiency, 0.0, 1.0, "receiver_efficiency")
        require_range("receiver dark probability", self.receiver_dark_per_pulse, 0.0, 1.0, "receiver_dark_per_pulse")

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
    multiphoton fraction: the last secure point of a grid of
    :data:`DISTANCE_CAP_KM` / 2**13 km (0.061 km, finer than
    :data:`DISTANCE_RESOLUTION_KM`).  The search starts at the grid index the
    P(n) moments predict (:func:`_grid_guess`), tests it and its neighbour,
    and gallops outward and halves only where those two do not bracket the
    boundary.  The predicate falls with distance, so this is the point that
    13 halvings of [0, cap] would find.

    Receiver dark counts appear on both sides of the bound -- an
    eavesdropper can neither suppress nor exploit them -- so the condition
    reduces to photon-borne detections >= multiphoton fraction, and the
    distance does not depend on the dark probability.  (An error-rate bound
    that penalizes a noisy receiver is out of scope.)

    Returns 0 km with a flag when the condition already fails at zero
    distance, and the cap with a flag when it never fails below it.
    """
    p_multi = multiphoton_fraction(stats)
    threshold = p_multi + channel.receiver_dark_per_pulse
    # lo is the highest grid index known secure and hi the lowest known
    # insecure, -1 and GRID_INTERVALS + 1 while none is known
    lo, hi, stride = -1, GRID_INTERVALS + 1, 1
    probe = _grid_guess(stats, channel, p_multi)
    while hi - lo > 1:
        if expected_detection_probability(stats, channel, probe * GRID_STEP_KM) >= threshold:
            lo = probe
        else:
            hi = probe
        if lo < 0:
            probe = max(hi - stride, 0)
        elif hi > GRID_INTERVALS:
            probe = min(lo + stride, GRID_INTERVALS)
        else:
            probe = (lo + hi) // 2
        stride *= 2
    if lo < 0:
        return SecureDistance(0.0, insecure_at_zero=True)
    if lo == GRID_INTERVALS:
        return SecureDistance(DISTANCE_CAP_KM, capped=True)
    return SecureDistance(lo * GRID_STEP_KM)


def _grid_guess(stats: HeraldedStats, channel: ChannelSpec, p_multi: float) -> int:
    """Grid index of the last secure point as the P(n) moments predict it.

    With g1 = <n> and g2 = <n(n-1)>/2 (:attr:`HeraldedStats.moments`),
    photon-borne detections at receiver transmission x are g1*x - g2*x**2 +
    O(x**3); setting them equal to the multiphoton fraction and solving to
    first order gives the boundary x, whose distance is 10/loss *
    log10(eta/x).  Where no guess can be formed (no multiphoton mass, a blind
    receiver, a lossless or subnormal loss, an index that is not finite) the
    search starts at an end of the grid.
    """
    g1, g2 = stats.moments
    if not (p_multi > 0.0 and g1 > 0.0):
        return GRID_INTERVALS  # nothing beyond one photon to beat
    eta, loss = channel.receiver_efficiency, channel.loss_db_per_km
    if eta == 0.0:
        return 0  # nothing is detected
    x = p_multi / g1
    x += g2 * x * x / g1
    if not x > 0.0:
        return GRID_INTERVALS  # a boundary transmission that underflows
    if loss == 0.0:
        return GRID_INTERVALS if x <= eta else 0  # every distance is the same
    index = 10.0 * (math.log10(eta) - math.log10(x)) / loss / GRID_STEP_KM
    if not math.isfinite(index):
        return GRID_INTERVALS if index > 0.0 else 0
    return min(max(math.floor(index), 0), GRID_INTERVALS)


def pump_sweep(
    base_config: SetupConfig,
    mu_values,
    channel: ChannelSpec,
    pairs_per_pulse_per_mw: float = REFERENCE_CALIBRATION_PER_MW,
) -> list[TradeoffRow]:
    """Source rate versus multiphoton contamination across pump powers.

    Each row is the analytic forward model (dead time included) at one mean pair
    number, from :func:`~spdcherald.experiment.analytic_at` on the one setup,
    whose none-of table every row reads; pump power follows from the linear
    calibration, and a calibration of 0 gives none.  A failing row is
    reported with its error message instead of being dropped.
    """
    mu_list = [float(m) for m in mu_values]
    if not mu_list:
        raise ValidationError("mu values must not be empty", "mu_values")
    if not all(m > 0.0 for m in mu_list):  # written as "inside" so that NaN fails the check
        raise ValidationError("mu values must be positive", "mu_values")
    if sorted(mu_list) != mu_list:
        raise ValidationError("mu values must be sorted ascending", "mu_values")
    require_range("pump calibration", pairs_per_pulse_per_mw, 0.0, field="pairs_per_pulse_per_mw")
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
