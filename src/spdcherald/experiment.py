"""Forward model of the full source chain: count rates, heralded photon
statistics, and Hanbury Brown-Twiss g2, in analytic and Monte Carlo modes.

Model conventions
-----------------
* Pairs are perfectly correlated before loss: a pulse with n pairs puts n
  photons in each arm.  Every loss stage thins photon numbers binomially and
  all stages of one arm collapse into a single survival probability.
* A herald is any signal-arm click: true pair, multi-pair, or dark count.
* The "source output" reference plane for heralded statistics is the idler
  fiber output, after mode coupling and the idler collection optics, before
  the synchronization fiber and the detector.
* Coincidences follow the heralded-pair convention: a coincidence is a click
  caused by the detected partner photon of a heralding pair (or an idler
  dark count / afterpulse).  Untagged extra-pair photons contribute to the
  heralded statistics but not to the coincidence counter.  This is the
  low-mean-pair-number reading under which count rates and the inverse
  estimator are mutually consistent.
* Trigger formation applies the configured dead time to the herald click
  stream; the surviving triggers are an unbiased sample of heralds, so
  per-trigger conditional quantities equal per-herald ones.

The Monte Carlo mode simulates the identical chain pulse by pulse with a
counter-based generator; fixed (config, n_pulses, seed) gives bit-identical
results, independent of how the pulse stream is chunked internally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .detectors import NO_CLICK, ClickDetectorSpec, DeadTimeSpec, dead_time_filter, dead_time_throughput
from .errors import EstimationError, ValidationError
from .pair_source import PairNumberDistribution, thin

# Monte Carlo pulses are processed in fixed-size blocks; each block draws from
# its own counter-based substream, so results do not depend on how blocks are
# scheduled.  Changing this constant changes the sampled stream.
MC_BLOCK = 1 << 20
MC_MIN_PULSES = 1_000_000
MC_SEED_LIMIT = 1 << 128  # Philox keys are 128 bits


def _default_herald_detector() -> ClickDetectorSpec:
    return ClickDetectorSpec(efficiency=0.547, mode="free_running", dark_rate_cps=90.0)


def _default_idler_detector() -> ClickDetectorSpec:
    return ClickDetectorSpec(
        efficiency=0.10,
        mode="gated",
        dark_prob_per_gate=2.5e-4,
        afterpulse_prob=1.0e-3,
        gate_width_ns=1.0,
    )


@dataclass(frozen=True)
class SetupConfig:
    """Complete parameterization of the source and detection chain.

    The defaults reproduce the reference 390 -> 521 + 1550 nm setup: 82 MHz
    pump, mean pair number 0.0829, mode couplings 16.87% / 22.00%, arm
    transmissions 46.6% / 81.7%, a 76.5% synchronization fiber, a 54.7%
    free-running herald detector with 90 cps dark counts, a 10% gated idler
    detector with 2.5e-4 dark counts per gate and 0.1% afterpulsing, and a
    1 us paralyzable trigger dead time.
    """

    rep_rate_hz: float = 8.2e7
    mu: float = 0.0829
    law: str = "poissonian"
    modes: int | None = None
    alpha_signal: float = 0.1687
    alpha_idler: float = 0.2200
    t_signal_optics: float = 0.466
    t_idler_optics: float = 0.817
    t_delay_fiber: float = 0.765
    herald: ClickDetectorSpec = field(default_factory=_default_herald_detector)
    idler_detector: ClickDetectorSpec = field(default_factory=_default_idler_detector)
    trigger_dead_time: DeadTimeSpec = field(default_factory=DeadTimeSpec)
    gate_rate_hz: float = 205000.0
    coincidence_window: int = 1

    def __post_init__(self):
        if self.rep_rate_hz <= 0.0:
            raise ValidationError(f"repetition rate must be > 0, got {self.rep_rate_hz}")
        if self.gate_rate_hz <= 0.0:
            raise ValidationError(f"gate rate must be > 0, got {self.gate_rate_hz}")
        for name in ("alpha_signal", "alpha_idler", "t_signal_optics", "t_idler_optics", "t_delay_fiber"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValidationError(f"{name} must lie in [0, 1], got {value}")
        if self.coincidence_window < 1:
            raise ValidationError(f"coincidence window must be >= 1 gate, got {self.coincidence_window}")
        if self.herald.mode != "free_running":
            raise ValidationError("the herald detector runs free (gating is on the idler side)")
        if self.idler_detector.mode != "gated":
            raise ValidationError("the idler detector operates in gated mode")
        # validate the pair-number law eagerly
        self.pair_distribution()

    def pair_distribution(self) -> PairNumberDistribution:
        return PairNumberDistribution(law=self.law, mean=self.mu, modes=self.modes)

    # --- per-photon survival probabilities of the two arms ---
    @property
    def herald_survival(self) -> float:
        """Pair photon -> herald click: coupling, signal optics, efficiency."""
        return self.alpha_signal * self.t_signal_optics * self.herald.efficiency

    @property
    def output_survival(self) -> float:
        """Pair photon -> source output plane (idler fiber output)."""
        return self.alpha_idler * self.t_idler_optics

    @property
    def downstream_survival(self) -> float:
        """Source output -> idler detector click, given the photon got there."""
        return self.t_delay_fiber * self.idler_detector.efficiency

    @property
    def idler_click_survival(self) -> float:
        return self.output_survival * self.downstream_survival

    @property
    def herald_dark_prob(self) -> float:
        return self.herald.dark_probability(window_s=1.0 / self.rep_rate_hz)

    @property
    def coincidence_dark_prob(self) -> float:
        """Idler dark probability within the coincidence window (in gates)."""
        d = self.idler_detector.dark_prob_per_gate
        return float(-np.expm1(self.coincidence_window * np.log1p(-d))) if d > 0 else 0.0


@dataclass(frozen=True)
class CountRates:
    """Observable rates of the chain, all in counts per second."""

    signal_singles: float
    idler_singles: float
    coincidences: float
    trigger_rate: float
    gate_rate: float
    per_trigger_coincidence_prob: float

    def __post_init__(self):
        for name in ("signal_singles", "idler_singles", "coincidences", "trigger_rate", "gate_rate"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be >= 0")

    def to_dict(self) -> dict:
        return {
            "signal_singles_cps": self.signal_singles,
            "idler_singles_cps": self.idler_singles,
            "coincidences_cps": self.coincidences,
            "trigger_rate_cps": self.trigger_rate,
            "gate_rate_hz": self.gate_rate,
            "per_trigger_coincidence_prob": self.per_trigger_coincidence_prob,
        }


@dataclass(frozen=True)
class HeraldedStats:
    """Photon-number probabilities at the source output, given a herald."""

    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", arr)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("heralded statistics must be a non-empty vector")
        if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
            raise ValidationError("heralded probabilities must lie in [0, 1]")
        if abs(arr.sum() - 1.0) > 1e-9:
            raise ValidationError(f"heralded probabilities must sum to 1, got {arr.sum()!r}")

    def probability(self, n: int) -> float:
        return float(self.p[n]) if n < self.p.size else 0.0

    def mean_photons(self) -> float:
        return float((np.arange(self.p.size) * self.p).sum())

    def second_factorial_moment(self) -> float:
        n = np.arange(self.p.size)
        return float((n * (n - 1) * self.p).sum())

    def to_dict(self) -> dict:
        return {"p": [float(v) for v in self.p]}


@dataclass(frozen=True)
class G2Result:
    """Second-order correlation estimate with its statistical error."""

    value: float
    stderr: float
    arm: str
    mode: str


HBT_ARMS = ("signal_unconditioned", "idler_heralded")


def _validate_mc_args(mode: str, n_pulses, seed) -> None:
    if mode not in ("analytic", "monte_carlo"):
        raise ValidationError(f"unknown mode {mode!r}; expected 'analytic' or 'monte_carlo'")
    if mode == "monte_carlo":
        if seed is None:
            raise ValidationError("monte_carlo mode requires an explicit seed (reproducibility)")
        if not (0 <= seed < MC_SEED_LIMIT):
            raise ValidationError(f"monte_carlo seed must lie in [0, 2**128), got {seed}")
        if n_pulses is None or n_pulses < MC_MIN_PULSES:
            raise ValidationError(f"monte_carlo mode requires n_pulses >= {MC_MIN_PULSES}")


def _pgf(pmf: np.ndarray, x: float) -> float:
    """E[x^n] over a truncated pair-number pmf."""
    return float((pmf * x ** np.arange(pmf.size)).sum())


def _analytic_probabilities(config: SetupConfig) -> dict:
    """Exact per-pulse click probabilities of the chain (threshold detectors)."""
    pmf = config.pair_distribution().pmf_vector()
    bs = config.herald_survival
    bi = config.idler_click_survival
    ds = config.herald_dark_prob
    di = config.idler_detector.dark_prob_per_gate
    dw = config.coincidence_dark_prob
    ap = 1.0 + config.idler_detector.afterpulse_prob

    p_herald = 1.0 - (1.0 - ds) * _pgf(pmf, 1.0 - bs)
    p_idler_gate = (1.0 - (1.0 - di) * _pgf(pmf, 1.0 - bi)) * ap
    # coincidence AND herald, heralded-pair convention: the partner photon of
    # at least one detected signal photon is itself detected, or the idler
    # gate fires dark; a dark herald can only coincide with a dark idler.
    p_coinc_and_herald = (
        1.0
        - (1.0 - dw) * _pgf(pmf, 1.0 - bs * bi)
        - dw * (1.0 - ds) * _pgf(pmf, 1.0 - bs)
    ) * ap
    return {
        "pmf": pmf,
        "p_herald": p_herald,
        "p_idler_gate": min(p_idler_gate, 1.0),
        "p_coinc_and_herald": p_coinc_and_herald,
    }


def simulate_counts(
    config: SetupConfig,
    mode: str = "analytic",
    n_pulses: int | None = None,
    seed: int | None = None,
) -> CountRates:
    """Count rates of the full chain.

    Analytic mode evaluates the exact per-pulse click probabilities over the
    pair-number law; Monte Carlo simulates the pulse train and agrees within
    counting error.
    """
    _validate_mc_args(mode, n_pulses, seed)
    if mode == "monte_carlo":
        return _simulate_counts_mc(config, int(n_pulses), int(seed))
    probs = _analytic_probabilities(config)
    signal_singles = config.rep_rate_hz * probs["p_herald"]
    trigger_rate = dead_time_throughput(signal_singles, config.trigger_dead_time)
    idler_singles = config.gate_rate_hz * probs["p_idler_gate"]
    per_trigger = (
        probs["p_coinc_and_herald"] / probs["p_herald"] if probs["p_herald"] > 0.0 else 0.0
    )
    return CountRates(
        signal_singles=signal_singles,
        idler_singles=idler_singles,
        coincidences=trigger_rate * per_trigger,
        trigger_rate=trigger_rate,
        gate_rate=config.gate_rate_hz,
        per_trigger_coincidence_prob=per_trigger,
    )


def heralded_photon_statistics(
    config: SetupConfig,
    mode: str = "analytic",
    n_pulses: int | None = None,
    seed: int | None = None,
) -> HeraldedStats:
    """P(n) of photons at the source output, conditioned on a herald click.

    Includes the partner photons of the heralding pair and all extra-pair
    photons delivered in the same pulse.
    """
    _validate_mc_args(mode, n_pulses, seed)
    if mode == "monte_carlo":
        return _heralded_stats_mc(config, int(n_pulses), int(seed))
    pmf = config.pair_distribution().pmf_vector()
    bs = config.herald_survival
    b_out = config.output_survival
    ds = config.herald_dark_prob
    herald_given_n = 1.0 - (1.0 - ds) * (1.0 - bs) ** np.arange(pmf.size)
    p_herald = float((pmf * herald_given_n).sum())
    if p_herald <= 0.0:
        raise EstimationError("herald probability is zero; cannot condition on a herald")
    # photons at the output are an independent thinning of the same pairs
    p_m = thin(pmf * herald_given_n, b_out) / p_herald
    # trim the all-but-zero tail; renormalize within the stated tolerance
    last = int(np.max(np.nonzero(p_m > 1e-15)[0])) if np.any(p_m > 1e-15) else 0
    p_m = p_m[: last + 1]
    return HeraldedStats(p=p_m / p_m.sum())


def hbt_g2(
    config: SetupConfig,
    arm: str = "signal_unconditioned",
    splitter_ratio: float = 0.5,
    mode: str = "analytic",
    n_pulses: int | None = None,
    seed: int | None = None,
) -> G2Result:
    """Zero-delay second-order correlation of one arm behind a beam splitter.

    Analytic mode returns the normalized second factorial moment
    ``<n(n-1)>/<n>^2`` of the arm's photon-number distribution (exact, and
    independent of splitting ratio and loss).  Monte Carlo estimates the
    click-based ``p_12 / (p_1 p_2)`` over same-pulse windows.
    """
    if arm not in HBT_ARMS:
        raise ValidationError(f"unknown HBT arm {arm!r}; expected one of {HBT_ARMS}")
    if not (0.0 < splitter_ratio < 1.0):
        raise ValidationError(f"splitter ratio must lie in (0, 1), got {splitter_ratio}")
    _validate_mc_args(mode, n_pulses, seed)
    if mode == "monte_carlo":
        return _hbt_g2_mc(config, arm, splitter_ratio, int(n_pulses), int(seed))
    if arm == "signal_unconditioned":
        if config.mu <= 0.0:
            raise EstimationError("signal arm flux is zero; g2 is undefined")
        return G2Result(config.pair_distribution().second_order_coherence(), 0.0, arm, mode)
    stats = heralded_photon_statistics(config, mode="analytic")
    mean = stats.mean_photons()
    if mean <= 0.0:
        raise EstimationError("heralded idler flux is zero; g2 is undefined")
    return G2Result(stats.second_factorial_moment() / mean**2, 0.0, arm, mode)


# --------------------------------------------------------------------------
# Monte Carlo machinery
# --------------------------------------------------------------------------


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    # Philox is counter based; jumped() yields a disjoint stream per block.
    return np.random.Generator(np.random.Philox(key=seed).jumped(block_index))


def _draw_pairs(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    return np.searchsorted(cdf, rng.random(size), side="right").astype(np.int64)


def _simulate_counts_mc(config: SetupConfig, n_pulses: int, seed: int) -> CountRates:
    pmf = config.pair_distribution().pmf_vector()
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    bs = config.herald_survival
    b_out = config.output_survival
    eta_down = config.downstream_survival
    ds = config.herald_dark_prob
    di = config.idler_detector.dark_prob_per_gate
    dw = config.coincidence_dark_prob
    ap = config.idler_detector.afterpulse_prob
    window = int(round(config.trigger_dead_time.tau_s * config.rep_rate_hz))
    model = config.trigger_dead_time.model
    last = NO_CLICK  # herald -> trigger dead-time state, carried across blocks

    heralds = 0
    triggers = 0
    coinc_counts = 0
    idler_counts = 0
    done = 0
    block = 0
    while done < n_pulses:
        size = min(MC_BLOCK, n_pulses - done)
        rng = _block_rng(seed, block)
        n = _draw_pairs(rng, cdf, size)
        k_s = rng.binomial(n, bs)
        dark_s = rng.random(size) < ds
        herald = (k_s > 0) | dark_s
        m_partner = rng.binomial(k_s, b_out)  # heralded-pair photons at the output
        det_partner = rng.binomial(m_partner, eta_down)
        m_extra = rng.binomial(n - k_s, b_out)
        det_extra = rng.binomial(m_extra, eta_down)
        dark_window = rng.random(size) < dw
        coinc = (det_partner > 0) | dark_window
        ap_coinc = rng.random(size) < ap
        dark_gate = rng.random(size) < di
        idler_click = ((det_partner + det_extra) > 0) | dark_gate
        ap_idler = rng.random(size) < ap

        heralds += int(herald.sum())
        herald_idx = np.flatnonzero(herald)
        keep, last = dead_time_filter(herald_idx + done, window, model, last)
        trig_local = herald_idx[keep]
        triggers += int(trig_local.size)
        c = coinc[trig_local]
        coinc_counts += int(c.sum()) + int((c & ap_coinc[trig_local]).sum())
        idler_counts += int(idler_click.sum()) + int((idler_click & ap_idler).sum())
        done += size
        block += 1

    duration = n_pulses / config.rep_rate_hz
    return CountRates(
        signal_singles=heralds / duration,
        idler_singles=(idler_counts / n_pulses) * config.gate_rate_hz,
        coincidences=coinc_counts / duration,
        trigger_rate=triggers / duration,
        gate_rate=config.gate_rate_hz,
        per_trigger_coincidence_prob=coinc_counts / triggers if triggers else 0.0,
    )


def _heralded_stats_mc(config: SetupConfig, n_pulses: int, seed: int) -> HeraldedStats:
    pmf = config.pair_distribution().pmf_vector()
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    bs = config.herald_survival
    b_out = config.output_survival
    ds = config.herald_dark_prob

    hist = np.zeros(pmf.size + 1, dtype=np.int64)
    heralds = 0
    done = 0
    block = 0
    while done < n_pulses:
        size = min(MC_BLOCK, n_pulses - done)
        rng = _block_rng(seed, block)
        n = _draw_pairs(rng, cdf, size)
        k_s = rng.binomial(n, bs)
        dark_s = rng.random(size) < ds
        herald = (k_s > 0) | dark_s
        m = rng.binomial(n, b_out)  # photons at the source output
        counts = np.bincount(m[herald], minlength=hist.size)
        hist[: counts.size] += counts[: hist.size]
        heralds += int(herald.sum())
        done += size
        block += 1
    if heralds == 0:
        raise EstimationError("no heralds in the Monte Carlo sample; cannot condition")
    last = int(np.max(np.nonzero(hist)[0]))
    return HeraldedStats(p=hist[: last + 1] / heralds)


def _hbt_g2_mc(
    config: SetupConfig, arm: str, ratio: float, n_pulses: int, seed: int
) -> G2Result:
    pmf = config.pair_distribution().pmf_vector()
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    ds = config.herald_dark_prob
    n1 = n2 = n12 = 0
    windows = 0
    done = 0
    block = 0
    while done < n_pulses:
        size = min(MC_BLOCK, n_pulses - done)
        rng = _block_rng(seed, block)
        n = _draw_pairs(rng, cdf, size)
        if arm == "signal_unconditioned":
            # fiber-coupled signal light split on the HBT coupler, one
            # herald-grade detector per port
            k = rng.binomial(n, config.alpha_signal * config.t_signal_optics)
            a = rng.binomial(k, ratio)
            b = k - a
            eta = config.herald.efficiency
            click_a = (rng.binomial(a, eta) > 0) | (rng.random(size) < ds)
            click_b = (rng.binomial(b, eta) > 0) | (rng.random(size) < ds)
            select = np.ones(size, dtype=bool)
        else:
            k_s = rng.binomial(n, config.herald_survival)
            dark_s = rng.random(size) < ds
            select = (k_s > 0) | dark_s
            m = rng.binomial(n, config.output_survival)
            a = rng.binomial(m, ratio)
            b = m - a
            # ideal click detectors at the source output plane
            click_a = a > 0
            click_b = b > 0
        click_a &= select
        click_b &= select
        windows += int(select.sum())
        n1 += int(click_a.sum())
        n2 += int(click_b.sum())
        n12 += int((click_a & click_b).sum())
        done += size
        block += 1
    if n1 == 0 or n2 == 0:
        raise EstimationError(f"zero singles on an HBT output ({n1}, {n2}); cannot estimate g2")
    g2 = n12 * windows / (n1 * n2)
    if n12 == 0:
        # upper-bound style error when no coincidences were seen
        stderr = windows / (n1 * n2)
    else:
        stderr = g2 * float(np.sqrt(1.0 / n12 + 1.0 / n1 + 1.0 / n2))
    return G2Result(float(g2), float(stderr), arm, "monte_carlo")


def reference_setup(**overrides) -> SetupConfig:
    """The default configuration, optionally with replaced fields."""
    return replace(SetupConfig(), **overrides) if overrides else SetupConfig()
