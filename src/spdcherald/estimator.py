"""Inverse problem: reconstruct source parameters from measured count rates.

Given singles rates in both arms, the coincidence-per-trigger probability,
and the known optical/detector parameters, the estimator recovers the mean
pair number mu, the total pair rate, and both mode-coupling coefficients,
then closes the loop by recomputing the heralded photon-number statistics
through the forward model at the estimate.

The inversion assumes poissonian pair statistics (the regime of a pulsed
many-mode source at low mean pair number), which makes the forward count
model exactly invertible in closed form: each click probability maps to a
Bernoulli-survival exponent through a logarithm.  Dark counts are subtracted
(the subtraction can be disabled for sensitivity studies) and afterpulse
inflation divided out first.  A final fixed-point pass re-inverts the forward
model at the estimate and applies the (multiplicative) residual correction;
with the closed-form inversion this residual is numerically negligible and
serves as a consistency guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .detectors import ClickDetectorSpec, DeadTimeSpec
from .errors import DomainError, EstimationError, InfeasibleCountsError, ValidationError
from .experiment import CountRates, HeraldedStats, SetupConfig, heralded_photon_statistics, simulate_counts


@dataclass(frozen=True)
class KnownLosses:
    """Calibrated transmissions and detector parameters used for inversion."""

    t_signal_optics: float = 0.466
    t_idler_optics: float = 0.817
    t_delay_fiber: float = 0.765
    eta_herald: float = 0.547
    eta_idler: float = 0.10
    dark_herald_rate: float = 90.0
    dark_idler_per_gate: float = 2.5e-4
    rep_rate_hz: float = 8.2e7
    afterpulse_prob: float = 1.0e-3

    def __post_init__(self):
        for name in ("t_signal_optics", "t_idler_optics", "t_delay_fiber", "eta_herald", "eta_idler"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ValidationError(f"{name} must lie in (0, 1], got {value}")
        if not (0.0 <= self.dark_idler_per_gate < 1.0):
            raise ValidationError(f"dark_idler_per_gate must lie in [0, 1), got {self.dark_idler_per_gate}")
        if self.dark_herald_rate < 0.0:
            raise ValidationError(f"dark_herald_rate must be >= 0, got {self.dark_herald_rate}")
        if self.rep_rate_hz <= 0.0:
            raise ValidationError(f"rep_rate_hz must be > 0, got {self.rep_rate_hz}")
        if not (0.0 <= self.afterpulse_prob < 1.0):
            raise ValidationError(f"afterpulse_prob must lie in [0, 1), got {self.afterpulse_prob}")

    @classmethod
    def from_setup(cls, config: SetupConfig) -> "KnownLosses":
        return cls(
            t_signal_optics=config.t_signal_optics,
            t_idler_optics=config.t_idler_optics,
            t_delay_fiber=config.t_delay_fiber,
            eta_herald=config.herald.efficiency,
            eta_idler=config.idler_detector.efficiency,
            dark_herald_rate=config.herald.dark_rate_cps,
            dark_idler_per_gate=config.idler_detector.dark_prob_per_gate,
            rep_rate_hz=config.rep_rate_hz,
            afterpulse_prob=config.idler_detector.afterpulse_prob,
        )


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


def _survival_exponent(p_click: float, dark: float, what: str) -> float:
    """Solve ``p = 1 - (1 - dark) exp(-x)`` for the survival exponent x."""
    if p_click <= dark:
        raise InfeasibleCountsError(
            f"{what}: click probability {p_click:.3e} does not exceed the dark floor {dark:.3e}"
        )
    if p_click >= 1.0:
        raise InfeasibleCountsError(f"{what}: click probability {p_click:.3e} must be < 1")
    return -math.log((1.0 - p_click) / (1.0 - dark))


def _check_unit_interval(value: float, what: str) -> float:
    if not (0.0 <= value <= 1.0):
        raise InfeasibleCountsError(f"{what} inferred as {value:.6f}, outside [0, 1]")
    return value


def _invert(counts: CountRates, known: KnownLosses, subtract_dark: bool):
    """Closed-form inversion; returns (mu, alpha_signal, alpha_idler)."""
    if counts.trigger_rate <= 0.0 or counts.signal_singles <= 0.0:
        raise EstimationError("signal singles and trigger rate must be positive to invert")
    if counts.gate_rate <= 0.0:
        raise EstimationError("a positive gate rate is required to invert idler singles")
    ap = 1.0 + known.afterpulse_prob
    d_s = known.dark_herald_rate / known.rep_rate_hz if subtract_dark else 0.0
    d_i = known.dark_idler_per_gate if subtract_dark else 0.0

    p_sig = counts.signal_singles / known.rep_rate_hz
    if p_sig >= 1.0:
        raise InfeasibleCountsError(f"signal singles imply {p_sig:.3f} clicks per pulse (> 1)")
    mu_beta_s = _survival_exponent(p_sig, d_s, "signal singles")

    p_idl = (counts.idler_singles / counts.gate_rate) / ap
    mu_beta_i = _survival_exponent(p_idl, d_i, "idler singles")

    p_ct = counts.per_trigger_coincidence_prob / ap
    if not (0.0 <= p_ct <= 1.0):
        raise InfeasibleCountsError(f"per-trigger coincidence probability {p_ct:.3e} outside [0, 1]")
    p_coinc_and_herald = p_ct * p_sig
    g = (1.0 - p_coinc_and_herald - d_i * (1.0 - p_sig)) / (1.0 - d_i)
    if not (0.0 < g <= 1.0):
        raise InfeasibleCountsError(
            f"coincidences inconsistent with dark counts: survival generating value {g:.6f}"
        )
    mu_beta_s_beta_i = -math.log(g)
    if mu_beta_s_beta_i > mu_beta_s:
        raise InfeasibleCountsError(
            "coincidence rate implies a conditional detection probability above 1"
        )

    beta_i = mu_beta_s_beta_i / mu_beta_s
    denom_i = known.t_idler_optics * known.t_delay_fiber * known.eta_idler
    alpha_i = _check_unit_interval(beta_i / denom_i, "alpha_idler")
    if beta_i <= 0.0:
        raise InfeasibleCountsError("coincidences are all accounted for by dark counts")
    mu = mu_beta_i / beta_i
    denom_s = known.t_signal_optics * known.eta_herald
    alpha_s = _check_unit_interval(mu_beta_s / denom_s / mu, "alpha_signal")
    return mu, alpha_s, alpha_i


def _setup_from(known: KnownLosses, counts: CountRates, mu, alpha_s, alpha_i) -> SetupConfig:
    herald = ClickDetectorSpec(
        efficiency=known.eta_herald, mode="free_running", dark_rate_cps=known.dark_herald_rate
    )
    idler = ClickDetectorSpec(
        efficiency=known.eta_idler,
        mode="gated",
        dark_prob_per_gate=known.dark_idler_per_gate,
        afterpulse_prob=known.afterpulse_prob,
    )
    return SetupConfig(
        rep_rate_hz=known.rep_rate_hz,
        mu=mu,
        alpha_signal=alpha_s,
        alpha_idler=alpha_i,
        t_signal_optics=known.t_signal_optics,
        t_idler_optics=known.t_idler_optics,
        t_delay_fiber=known.t_delay_fiber,
        herald=herald,
        idler_detector=idler,
        trigger_dead_time=DeadTimeSpec(tau_us=0.0),
        gate_rate_hz=counts.gate_rate,
    )


def estimate_source(
    counts: CountRates,
    known: KnownLosses,
    subtract_dark: bool = True,
    refine: bool = True,
) -> SourceEstimate:
    """Reconstruct (mu, alpha_signal, alpha_idler) and heralded P(n) from counts.

    Raises :class:`InfeasibleCountsError` naming the violated bound whenever
    the counts cannot be produced by any parameter set under the declared
    losses (e.g. singles below the dark floor, couplings outside [0, 1]).
    """
    mu, alpha_s, alpha_i = _invert(counts, known, subtract_dark)
    if refine:
        # one fixed-point pass: invert the forward model at the estimate and
        # divide out any residual bias of the inversion itself
        model_counts = simulate_counts(_setup_from(known, counts, mu, alpha_s, alpha_i))
        mu_m, alpha_s_m, alpha_i_m = _invert(model_counts, known, subtract_dark)
        mu = _guard_positive(mu * mu / mu_m, "mu")
        alpha_s = _check_unit_interval(alpha_s * alpha_s / alpha_s_m, "alpha_signal (refined)")
        alpha_i = _check_unit_interval(alpha_i * alpha_i / alpha_i_m, "alpha_idler (refined)")
    heralded = heralded_photon_statistics(_setup_from(known, counts, mu, alpha_s, alpha_i))
    return SourceEstimate(
        mu=mu,
        pair_rate=mu * known.rep_rate_hz,
        alpha_signal=alpha_s,
        alpha_idler=alpha_i,
        heralded=heralded,
    )


def _guard_positive(value: float, what: str) -> float:
    if not (value > 0.0) or not math.isfinite(value):
        raise InfeasibleCountsError(f"{what} refined to a non-positive value {value!r}")
    return value


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
    if p1 <= 0.0:
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
        if p2_source <= 0.0:
            raise DomainError(f"p2_source must be positive, got {p2_source}")
        ratio = p2_c / p2_source
    return WcpComparison(mu_coherent=mu_c, p2_coherent=p2_c, suppression_ratio=ratio)
