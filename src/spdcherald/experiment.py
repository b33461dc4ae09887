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

The Monte Carlo mode simulates the identical chain from per-photon survival
probabilities, never from the analytic sums.  One pass, :func:`_mc_tally`,
walks the pulse train block by block, and each block draws its heralds
first: behind a nonparalyzable dead time,
:func:`~spdcherald.detectors.nonparalyzable_walk` draws the herald and
trigger counts; behind a paralyzable one a binomial draws the herald count
and :func:`~spdcherald.detectors.paralyzable_triggers` counts the triggers
last.  Given the herald count, multinomials by pair number give the herald
classes and the other pulses.  The pass then makes the draws of the one
reduction asked for and adds them to a record of integer tallies; count
rates, heralded P(n) and g2 are arithmetic on that record, and all three
condition on the same heralds; a herald's photons are drawn from the one
Binomial(n, b) table that the analytic heralded law sums,
:func:`~spdcherald.pair_source.thinning_table`.  Each block draws from its
own counter-based substream and only the dead time is carried between
blocks, so fixed (config, n_pulses, seed) gives bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .detectors import (
    MC_BLOCK,
    DeadTimeSpec,
    FreeRunningDetector,
    GatedDetector,
    dead_time_throughput,
    dead_time_window,
    nonparalyzable_walk,
    paralyzable_triggers,
)
from .defaults import COINCIDENCE_WINDOW, GATE_RATE_HZ, HBT_ARMS, LAWS
from .errors import DomainError, EstimationError, ValidationError, check_run, require_integer, require_range
from .pair_source import PairNumberDistribution, power_table, thinning_table


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
    law: str = LAWS[0]
    modes: int | None = None
    alpha_signal: float = 0.1687
    alpha_idler: float = 0.2200
    t_signal_optics: float = 0.466
    t_idler_optics: float = 0.817
    t_delay_fiber: float = 0.765
    herald: FreeRunningDetector = FreeRunningDetector(efficiency=0.547, dark_rate_cps=90.0)
    idler_detector: GatedDetector = GatedDetector(efficiency=0.10, dark_prob_per_gate=2.5e-4, afterpulse_prob=1.0e-3)
    trigger_dead_time: DeadTimeSpec = DeadTimeSpec()
    gate_rate_hz: float = GATE_RATE_HZ
    coincidence_window: int = COINCIDENCE_WINDOW
    _distribution: PairNumberDistribution = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_range("repetition rate", self.rep_rate_hz, 0.0, field="rep_rate_hz", lo_open=True)
        require_range("gate rate", self.gate_rate_hz, 0.0, field="gate_rate_hz", lo_open=True)
        for name in ("alpha_signal", "alpha_idler", "t_signal_optics", "t_idler_optics", "t_delay_fiber"):
            require_range(name, getattr(self, name), 0.0, 1.0, name)
        window = require_integer("coincidence_window", self.coincidence_window)
        require_range("coincidence window", window, 1, field="coincidence_window")
        if not isinstance(self.herald, FreeRunningDetector):
            raise ValidationError("the herald detector runs free (gating is on the idler side)")
        if not isinstance(self.idler_detector, GatedDetector):
            raise ValidationError("the idler detector operates in gated mode")
        # the pair-number law, validated eagerly and kept
        object.__setattr__(self, "_distribution", PairNumberDistribution(self.law, self.mu, self.modes))

    def pair_distribution(self) -> PairNumberDistribution:
        return self._distribution

    @cached_property
    def pmf(self) -> np.ndarray:
        """The truncated pair-number pmf, built once per setup (a law cut at
        MAX_PAIRS is refused naming the mean); every analytic and Monte Carlo
        path reads this one."""
        return self._distribution.pmf_vector()

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
    def idler_click_survival(self) -> float:
        """Pair photon -> idler click: the output plane, then the delay fiber and the detector."""
        return self.output_survival * (self.t_delay_fiber * self.idler_detector.efficiency)

    @cached_property
    def herald_dark_prob(self) -> float:
        return self.herald.dark_probability(1.0 / self.rep_rate_hz)

    @cached_property
    def coincidence_dark_prob(self) -> float:
        """Idler dark probability within the coincidence window (in gates)."""
        d = self.idler_detector.dark_prob_per_gate
        if d >= 1.0:  # dark in every gate; log1p(-1) would divide by zero
            return 1.0
        return float(-np.expm1(self.coincidence_window * np.log1p(-d))) if d > 0 else 0.0

    @cached_property
    def none_of(self) -> np.ndarray:
        """Per pair number n <= MAX_PAIRS, the chances that none of n pairs gives a
        detected signal photon, a detected idler photon and a detected pair: the
        rows ``(1 - b_s)^n``, ``(1 - b_i)^n`` and ``(1 - b_s b_i)^n`` of a cached,
        read-only power table.  The analytic and Monte Carlo paths read the
        prefix of their pmf's length."""
        bs, bi = self.herald_survival, self.idler_click_survival
        return power_table((1.0 - bs, 1.0 - bi, 1.0 - bs * bi))


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
            require_range(name, getattr(self, name), 0.0, field=name)
        # coincidences over a subnormal trigger rate overflow
        require_range("per_trigger_coincidence_prob", self.per_trigger_coincidence_prob,
                      field=("coincidences", "trigger_rate"))

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
    values: list[float] = field(init=False, repr=False, compare=False)  # p as Python floats, for scalar loops

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", arr)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("heralded statistics must be a non-empty vector")
        values = arr.tolist()
        # written as "inside" so that NaN fails the check
        if not all(-1e-12 <= v <= 1.0 + 1e-12 for v in values):
            raise ValidationError("heralded probabilities must lie in [0, 1]")
        if abs(arr.sum() - 1.0) > 1e-9:
            raise ValidationError(f"heralded probabilities must sum to 1, got {arr.sum()!r}")
        object.__setattr__(self, "values", values)

    def probability(self, n: int) -> float:
        if n < 0:
            raise DomainError(f"photon number must be >= 0, got {n}")
        return self.values[n] if n < len(self.values) else 0.0

    @property
    def moments(self) -> tuple[float, float]:
        """``(<n>, <n(n-1)>/2)``: G'(1) and G''(1)/2 of G(z) = sum P(n) z**n,
        by Horner's scheme at z = 1 in one pass over ``values``.  Not cached:
        each reader reads it once, and ``functools.cached_property`` costs
        more than the pass over a short P(n)."""
        g0 = g1 = g2 = 0.0
        for p_n in reversed(self.values):
            g2 += g1
            g1 += g0
            g0 += p_n
        return g1, g2

    def to_dict(self) -> dict:
        return {"p": list(self.values)}


@dataclass(frozen=True)
class G2Result:
    """Second-order correlation estimate with its statistical error."""

    value: float
    stderr: float
    arm: str
    mode: str


def _analytic_counts(config: SetupConfig, pmf: np.ndarray) -> CountRates:
    """Exact count rates of ``config``'s optics over ``pmf``."""
    ds, dw = config.herald_dark_prob, config.coincidence_dark_prob
    ap = 1.0 + config.idler_detector.afterpulse_prob

    # no detected signal photon, no detected idler photon, no detected pair
    no_signal, no_idler, no_pair = (pmf * config.none_of[:, : pmf.size]).sum(axis=1).tolist()
    p_herald = 1.0 - (1.0 - ds) * no_signal
    p_idler_gate = min((1.0 - (1.0 - config.idler_detector.dark_prob_per_gate) * no_idler) * ap, 1.0)
    # coincidence AND herald, heralded-pair convention: the partner photon of
    # at least one detected signal photon is itself detected, or the idler
    # gate fires dark; a dark herald can only coincide with a dark idler.
    p_coinc_and_herald = (1.0 - (1.0 - dw) * no_pair - dw * (1.0 - ds) * no_signal) * ap
    signal_singles = config.rep_rate_hz * p_herald
    trigger_rate = dead_time_throughput(signal_singles, config.trigger_dead_time)
    per_trigger = p_coinc_and_herald / p_herald if p_herald > 0.0 else 0.0
    return CountRates(
        signal_singles=signal_singles,
        idler_singles=config.gate_rate_hz * p_idler_gate,
        coincidences=trigger_rate * per_trigger,
        trigger_rate=trigger_rate,
        gate_rate=config.gate_rate_hz,
        per_trigger_coincidence_prob=per_trigger,
    )


def _analytic_heralded(config: SetupConfig, pmf: np.ndarray) -> HeraldedStats:
    """Heralded P(n) of ``config``'s optics over ``pmf``."""
    heralding = pmf * (1.0 - (1.0 - config.herald_dark_prob) * config.none_of[0, : pmf.size])
    p_herald = float(heralding.sum())
    if p_herald <= 0.0:
        raise EstimationError("herald probability is zero; cannot condition on a herald")
    # photons at the output are an independent thinning of the same pairs
    p_m = heralding @ thinning_table(config.output_survival, heralding.size) / p_herald
    # trim the all-but-zero tail; renormalize within the stated tolerance
    kept = (p_m > 1e-15).nonzero()[0]
    p_m = p_m[: kept[-1] + 1 if kept.size else 1]
    return HeraldedStats(p=p_m / p_m.sum())


def analytic_at(config: SetupConfig, mu: float) -> tuple[CountRates, HeraldedStats]:
    """``simulate_counts`` and ``heralded_photon_statistics`` of ``replace(config, mu=mu)``, or
    its error, on ``config``'s own tables: a pump sweep's rows share one setup's."""
    pmf = PairNumberDistribution(config.law, mu, config.modes).pmf_vector()
    return _analytic_counts(config, pmf), _analytic_heralded(config, pmf)


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
    check_run(mode, n_pulses, seed)
    if mode == "monte_carlo":
        tally = _mc_tally(config, n_pulses, seed, "counts")
        duration = tally.pulses / config.rep_rate_hz
        return CountRates(
            signal_singles=tally.heralds / duration,
            idler_singles=(tally.idler_clicks / tally.pulses) * config.gate_rate_hz,
            coincidences=tally.coincidences / duration,
            trigger_rate=tally.triggers / duration,
            gate_rate=config.gate_rate_hz,
            per_trigger_coincidence_prob=tally.coincidences / tally.triggers if tally.triggers else 0.0,
        )
    return _analytic_counts(config, config.pmf)


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
    check_run(mode, n_pulses, seed)
    if mode == "monte_carlo":
        tally = _mc_tally(config, n_pulses, seed, "photons")
        if tally.heralds == 0:
            raise EstimationError("no heralds in the Monte Carlo sample; cannot condition")
        return HeraldedStats(p=tally.photons[: np.flatnonzero(tally.photons)[-1] + 1] / tally.heralds)
    return _analytic_heralded(config, config.pmf)


def hbt_g2(
    config: SetupConfig,
    arm: str = HBT_ARMS[0],
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
        raise ValidationError(f"unknown HBT arm {arm!r}; expected one of {HBT_ARMS}", "arm")
    require_range("splitter ratio", splitter_ratio, 0.0, 1.0, "splitter_ratio", lo_open=True, hi_open=True)
    check_run(mode, n_pulses, seed)
    if mode == "monte_carlo":
        t = _mc_tally(config, n_pulses, seed, arm, splitter_ratio)
        if t.n1 == 0 or t.n2 == 0:
            raise EstimationError(f"zero singles on an HBT output ({t.n1}, {t.n2}); cannot estimate g2")
        g2 = t.n12 * t.windows / (t.n1 * t.n2)
        # an upper-bound style error when no coincidences were seen
        stderr = g2 * float(np.sqrt(1.0 / t.n12 + 1.0 / t.n1 + 1.0 / t.n2)) if t.n12 else t.windows / (t.n1 * t.n2)
        return G2Result(float(g2), float(stderr), arm, mode)
    if arm == "signal_unconditioned":
        if config.mu <= 0.0:
            raise EstimationError("signal arm flux is zero; g2 is undefined")
        return G2Result(config.pair_distribution().second_order_coherence(), 0.0, arm, mode)
    mean, half = heralded_photon_statistics(config, mode="analytic").moments
    if mean <= 0.0:
        raise EstimationError("heralded idler flux is zero; g2 is undefined")
    return G2Result(2.0 * half / mean**2, 0.0, arm, mode)


# --------------------------------------------------------------------------
# Monte Carlo machinery
# --------------------------------------------------------------------------


@dataclass
class _Tally:
    """Integer tallies of one Monte Carlo pass over ``pulses`` pulses.  Every
    pass counts the heralds; the other fields are its reduction's, zero (or
    None) under the others."""

    pulses: int
    heralds: int = 0
    triggers: int = 0  # counts: heralds that pass the trigger dead time
    coincidences: int = 0  # counts, afterpulses included
    idler_clicks: int = 0  # counts, one idler gate per pulse, afterpulses included
    photons: np.ndarray | None = None  # photons: heralds by photon number at the output plane
    n1: int = 0  # an HBT arm: port a's clicks, port b's, both ports' and the windows
    n2: int = 0
    n12: int = 0
    windows: int = 0


def _mc_tally(config: SetupConfig, n_pulses: int, seed: int, reduction: str, ratio: float = 0.5) -> _Tally:
    """The pulse train by block: the herald count H, then tables by pair
    number n given H, then the draws of ``reduction`` alone, tallied.

    A pulse with n pairs heralds with its partner detected at ``1 - (1 - b_s
    b_i)^n``, from a signal photon without one at ``(1 - b_s b_i)^n - (1 -
    b_s)^n`` and dark only at ``(1 - b_s)^n d_s``; ``p_h`` sums these over
    the pmf.  Behind a nonparalyzable dead time, :func:`nonparalyzable_walk`
    draws H and the trigger count.  Behind a paralyzable one H is
    Binomial(size, p_h), and only the "counts" reduction counts the triggers,
    after the tables, as :func:`paralyzable_triggers` places the heralds.

    ``reduction`` is "counts" (triggers, coincidences and idler clicks),
    "photons" (the heralds' photon numbers at the output plane) or an HBT
    arm behind a splitter of ``ratio``.  Each block draws from its own
    substream, so which reduction is asked changes none of the tables."""
    n_pulses, seed = int(n_pulses), int(seed)
    pmf = config.pmf / config.pmf.sum()
    no_signal, no_idler, no_partner = config.none_of[:, : pmf.size]
    ds = config.herald_dark_prob
    herald = pmf[:, None] * np.stack([1.0 - no_partner, np.maximum(no_partner - no_signal, 0.0), no_signal * ds], 1)
    no_herald = pmf * no_signal * (1.0 - ds)
    p_herald = min(float(herald.sum()), 1.0)  # an ulp above 1 when every pulse heralds
    # the laws of a herald's and another pulse's (n, class); "or 1": a law that never occurs is drawn zero times
    given_herald, given_none = herald.ravel() / (p_herald or 1.0), no_herald / (no_herald.sum() or 1.0)

    tally = _Tally(n_pulses)
    if reduction == "counts":
        # per pair, the signal photon is detected with b_s and the idler
        # photon with b_i, independently, so no idler photon given a signal
        # photon without a detected partner is P(signal, no idler) /
        # P(signal, no partner), per pair number
        signal_only = no_partner - no_signal
        no_idler_given_signal = np.divide(
            no_idler * (1.0 - no_signal), signal_only, out=np.ones(pmf.size), where=signal_only > 0.0
        )
        # idler gate firing (photon or dark) for pulses without a signal
        # photon (row 0) and with one but no detected partner (row 1)
        loud_gate = 1.0 - (1.0 - config.idler_detector.dark_prob_per_gate) * np.stack(
            [no_idler, np.minimum(no_idler_given_signal, 1.0)]
        )
        dw = config.coincidence_dark_prob
        ap = config.idler_detector.afterpulse_prob
    elif reduction == "photons":
        # a herald's n pairs put Binomial(n, b_out) photons at the output plane
        output = thinning_table(config.output_survival, pmf.size)
        tally.photons = np.zeros(pmf.size, dtype=np.int64)
    else:
        # signal arm: fiber-coupled signal light split on the HBT coupler, one
        # herald-grade detector per port, every pulse a window; idler arm: ideal
        # click detectors at the source output plane, the heralds the windows
        signal_arm = reduction == "signal_unconditioned"
        b, dark = (config.herald_survival, config.herald_dark_prob) if signal_arm else (config.output_survival, 0.0)
        ports = _hbt_ports(pmf.size, b * ratio, b * (1.0 - ratio), dark)

    paralyzable = config.trigger_dead_time.model == "paralyzable"
    window = dead_time_window(config.trigger_dead_time, config.rep_rate_hz, n_pulses)
    last = -window - 1  # the last blocking herald, relative to the block's first pulse
    # a new Philox draws OS entropy for a seed sequence that a key overrides,
    # so one serves the run and only its counter is set per block
    bits = np.random.Philox(key=seed)
    state = bits.state
    for block, start in enumerate(range(0, n_pulses, MC_BLOCK)):
        size = min(MC_BLOCK, n_pulses - start)
        # counter word 2 = block is Philox's jumped(block): a disjoint stream per block
        state["state"]["counter"][:] = [0, 0, block, 0]
        bits.state = state
        rng = np.random.Generator(bits)
        if paralyzable:
            n_heralds = int(rng.binomial(size, p_herald))
        else:
            n_heralds, n_trig, last = nonparalyzable_walk(rng, p_herald, size, window, last)
        partner, signal, dark = rng.multinomial(n_heralds, given_herald).reshape(-1, 3).T
        heralds = partner + signal + dark
        pulses = heralds + rng.multinomial(size - n_heralds, given_none)
        tally.heralds += n_heralds
        if reduction == "counts":
            if paralyzable:
                n_trig, last = paralyzable_triggers(rng, n_heralds, size, window, last)
            tagged = int(partner.sum())
            # which heralds pass the dead time does not depend on their class,
            # so the partner-tagged triggers are a hypergeometric draw
            coinc = int(rng.hypergeometric(tagged, n_heralds - tagged, n_trig))
            # a trigger without a detected partner coincides only with a window dark
            coinc += int(rng.binomial(n_trig - coinc, dw))
            # one idler gate per pulse, counted per pair number and signal outcome
            quiet_pulses = np.stack([pulses - partner - signal, signal])
            idler = tagged + int(rng.binomial(quiet_pulses, loud_gate).sum())
            tally.triggers += n_trig
            tally.coincidences += coinc + int(rng.binomial(coinc, ap))
            tally.idler_clicks += idler + int(rng.binomial(idler, ap))
        elif reduction == "photons":
            tally.photons += rng.multinomial(heralds, output).sum(axis=0)
        else:
            windows = pulses if signal_arm else heralds
            # the windows of one pair number split into the port outcomes by one multinomial draw
            a_only, b_only, both, _ = rng.multinomial(windows, ports).sum(axis=0).tolist()
            tally.n1 += a_only + both
            tally.n2 += b_only + both
            tally.n12 += both
            tally.windows += int(windows.sum())
        last -= size
    return tally


def _hbt_ports(size: int, pa: float, pb: float, dark: float) -> np.ndarray:
    """Per pair number n < ``size``, the chances that a window's two click
    detectors behind a splitter fire a only, b only, both and neither.

    Each pair's photon clicks port a with ``pa`` or port b with ``pb``, and
    each port also clicks dark with ``dark``.
    """
    none_a, none_b, none = power_table((1.0 - pa, 1.0 - pb, 1.0 - (pa + pb)))[:, :size]
    quiet_a = (1.0 - dark) * none_a
    quiet_b = (1.0 - dark) * none_b
    quiet = (1.0 - dark) ** 2 * none
    pvals = np.stack([quiet_b - quiet, quiet_a - quiet, 1.0 - quiet_a - quiet_b + quiet, quiet], axis=1)
    return np.maximum(pvals, 0.0)


def reference_setup(**overrides) -> SetupConfig:
    """The default configuration, optionally with replaced fields."""
    return replace(SetupConfig(), **overrides) if overrides else SetupConfig()
