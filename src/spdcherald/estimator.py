"""Inverse problem: reconstruct source parameters from measured count rates.

Given singles rates in both arms, the coincidence-per-trigger probability,
and the calibrated optics and detectors of a :class:`SetupConfig`, the
estimator recovers the mean pair number mu, the total pair rate, and both
mode-coupling coefficients, then closes the loop by computing the heralded
photon-number statistics through the forward model at the estimate.

The inversion is the exact inverse of the forward count model for the
setup's own pair-number law.  Each click probability has the form
``p = floor + (1 - d)(1 - G(1 - beta))``, with ``G`` the law's generating
function and ``d`` the dark probability: the herald dark for signal singles,
the per-gate dark for idler singles (after dividing out the afterpulse
inflation ``1 + p_ap``), and the window dark for coincidences.  ``G^-1`` of
the law, :meth:`~spdcherald.pair_source.PairNumberDistribution.detected_mean`,
turns each generating value into a mean detected pair number
``x = mu * beta``: ``-ln g`` (poissonian), ``1/g - 1`` (thermal),
``M expm1(-ln g / M)`` (M thermal modes).  Singles give ``mu beta_s`` and
``mu beta_i``, coincidences ``mu beta_s beta_i``; their ratios give mu and
both arm survivals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

from .errors import DomainError, EstimationError, InfeasibleCountsError, ValidationError
from .experiment import CountRates, HeraldedStats, SetupConfig, _analytic_heralded
from .pair_source import PairNumberDistribution, power_table


class KnownLosses:
    """Identity shim: the calibration is the :class:`SetupConfig` itself.

    Its one caller is ``perfbench/ops.py``, ``KnownLosses.from_setup(config)``;
    a later benchmark-only change deletes that call and this class.
    """

    @staticmethod
    def from_setup(config: SetupConfig) -> SetupConfig:
        return config


@dataclass(frozen=True)
class SourceEstimate:
    """Reconstructed source parameters and the implied heralded statistics."""

    mu: float
    pair_rate: float
    alpha_signal: float
    alpha_idler: float
    heralded: HeraldedStats

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "pair_rate_per_s": self.pair_rate,
            "alpha_signal": self.alpha_signal,
            "alpha_idler": self.alpha_idler,
            "heralded": self.heralded.to_dict(),
        }


def _mean_detected(setup: SetupConfig, p_click: float, floor: float, dark: float, what: str) -> float:
    """Solve ``p = floor + (1 - dark)(1 - G(1 - beta))`` for ``x = mu beta``."""
    if p_click <= floor:
        raise InfeasibleCountsError(
            f"{what}: click probability {p_click:.3e} does not exceed the dark floor {floor:.3e}"
        )
    if p_click >= 1.0:
        raise InfeasibleCountsError(f"{what}: click probability {p_click:.3e} must be < 1")
    # 1 - g, kept apart from g so that small rates lose no digits
    return setup.pair_distribution().detected_mean((p_click - floor) / (1.0 - dark))


def _calibration(setup: SetupConfig, *fields: str) -> float:
    """Product of an arm's calibrated transmissions and efficiency; zero is an input error."""
    values = attrgetter(*fields)(setup)  # a tuple: each arm has two or three factors
    product = math.prod(values)
    if product == 0.0:
        named = tuple(name for name, value in zip(fields, values) if value == 0.0) or fields
        raise ValidationError(f"calibrated {' * '.join(named)} is 0, so the counts cannot be inverted", named)
    return product


def _check_unit_interval(value: float, what: str) -> float:
    if not (0.0 <= value <= 1.0):
        raise InfeasibleCountsError(f"{what} inferred as {value:.6f}, outside [0, 1]")
    return value


def estimate_source(counts: CountRates, setup: SetupConfig) -> SourceEstimate:
    """Reconstruct (mu, alpha_signal, alpha_idler) and heralded P(n) from counts.

    ``setup`` supplies the repetition rate, the pair-number law and its modes,
    the calibrated transmissions and efficiencies, the afterpulse
    probability and the dark probabilities; its mu, couplings, dead time and
    gate rate are ignored (the gate rate comes from ``counts``).  The heralded
    P(n) is the analytic core's at the estimate; no setup is built for it.

    Raises :class:`InfeasibleCountsError` naming the violated bound whenever
    the counts cannot be produced by any parameter set under the declared
    losses (e.g. singles below the dark floor, couplings outside [0, 1]), and
    :class:`ValidationError` naming a calibrated factor that is zero, or the
    counts where the law refuses the mean they imply.
    """
    cal_s = _calibration(setup, "t_signal_optics", "herald.efficiency")
    cal_i = _calibration(setup, "t_idler_optics", "t_delay_fiber", "idler_detector.efficiency")
    if counts.trigger_rate <= 0.0 or counts.signal_singles <= 0.0:
        raise EstimationError("signal singles and trigger rate must be positive to invert")
    if counts.gate_rate <= 0.0:
        raise EstimationError("a positive gate rate is required to invert idler singles")
    ap = 1.0 + setup.idler_detector.afterpulse_prob
    d_s = setup.herald_dark_prob
    d_i = setup.idler_detector.dark_prob_per_gate
    d_w = setup.coincidence_dark_prob

    p_sig = counts.signal_singles / setup.rep_rate_hz
    if p_sig >= 1.0:
        raise InfeasibleCountsError(f"signal singles imply {p_sig:.3f} clicks per pulse (> 1)")
    x_s = _mean_detected(setup, p_sig, d_s, d_s, "signal singles")
    x_i = _mean_detected(setup, counts.idler_singles / counts.gate_rate / ap, d_i, d_i, "idler singles")

    p_ct = counts.per_trigger_coincidence_prob / ap
    if not (0.0 <= p_ct <= 1.0):
        raise InfeasibleCountsError(f"per-trigger coincidence probability {p_ct:.3e} outside [0, 1]")
    # coincidence and herald: a window dark with any herald, or else a
    # detected partner of a detected signal photon
    x_si = _mean_detected(setup, p_ct * p_sig, d_w * p_sig, d_w, "coincidences")

    mu = x_s * x_i / x_si
    alpha_s = _check_unit_interval(x_si / x_i / cal_s, "alpha_signal")
    alpha_i = _check_unit_interval(x_si / x_s / cal_i, "alpha_idler")
    # multiplied as SetupConfig.herald_survival and output_survival multiply: the setup's P(n) bit for bit
    b_s = alpha_s * setup.t_signal_optics * setup.herald.efficiency
    try:
        pmf = PairNumberDistribution(setup.law, mu, setup.modes).pmf_vector()
        heralded = _analytic_heralded(pmf, d_s, power_table((1.0 - b_s,))[0], alpha_i * setup.t_idler_optics)
    except ValidationError as exc:
        if exc.field != "mean":
            raise
        # the mean is inferred, so the counts it came from are at fault, not the scenario's mu
        raise ValidationError(
            f"the counts imply a mean pair number the model refuses: {exc}",
            ("signal_singles", "idler_singles", "coincidences"),
        ) from None
    return SourceEstimate(
        mu=mu,
        pair_rate=mu * setup.rep_rate_hz,
        alpha_signal=alpha_s,
        alpha_idler=alpha_i,
        heralded=heralded,
    )


@dataclass(frozen=True)
class WcpComparison:
    """Attenuated-coherent-source equivalent at matched single-photon yield."""

    mu_coherent: float
    p2_coherent: float
    suppression_ratio: float | None

    def to_dict(self) -> dict:
        return {
            "mu_coherent": self.mu_coherent,
            "p2_coherent": self.p2_coherent,
            "suppression_ratio": self.suppression_ratio,
        }


MAX_P1_COHERENT = math.exp(-1.0)  # maximum of mu e^-mu
NEWTON_MAX_STEPS = 64  # 27 suffice one ulp below 1/e, where convergence is slowest


def equivalent_wcp(p1: float, p2_source: float | None = None) -> WcpComparison:
    """Coherent source with the same P(1): smaller root of ``mu e^-mu = p1``.

    Newton on ``ln mu - mu = ln p1`` from ``mu = p1`` (concave, increasing on
    (0, 1): the iterates rise monotonically to the root).  Returns the root
    (to 1e-12), the coherent two-photon probability ``mu^2 e^-mu / 2``, and,
    when ``p2_source`` is given, how many times the coherent source exceeds it.
    """
    if not (p1 > 0.0):  # written as "inside" so that NaN fails the check
        raise DomainError(f"P(1) must be positive, got {p1}")
    if p1 > MAX_P1_COHERENT:
        raise EstimationError(
            f"no coherent state reaches P(1) = {p1:.6f}; the maximum of mu*exp(-mu) is 1/e"
        )
    if p1 == MAX_P1_COHERENT:
        mu_c = 1.0
    else:
        mu_c, log_p1 = p1, math.log(p1)
        for _ in range(NEWTON_MAX_STEPS):
            nxt = mu_c - (math.log(mu_c) - mu_c - log_p1) * mu_c / (1.0 - mu_c)
            if not (mu_c < nxt < 1.0):
                break
            mu_c = nxt
    p2_c = mu_c**2 * math.exp(-mu_c) / 2.0
    ratio = None
    if p2_source is not None:
        if not (p2_source > 0.0):
            raise DomainError(f"p2_source must be positive, got {p2_source}")
        ratio = p2_c / p2_source
    return WcpComparison(mu_coherent=mu_c, p2_coherent=p2_c, suppression_ratio=ratio)
