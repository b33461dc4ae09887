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

The Monte Carlo mode simulates the identical chain event by event.  One
sampler visits only the pulses that carry a pair, found by geometric gaps
(Devroye 1986, ch. 2), and the herald dark clicks, a second gap stream.
Per-pulse draws are made only where pulse order matters: heralds feed the
dead time.  Tallies that do not depend on order (idler gate and window
darks, afterpulses, HBT port clicks) are one binomial or multinomial draw
per block and pair number, so empty pulses cost nothing each.  Count rates,
heralded P(n) and g2 are reductions of that sampler.  Each block draws from
its own counter-based substream, so fixed (config, n_pulses, seed) gives
bit-identical results, independent of how the blocks are scheduled.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .detectors import (
    NO_CLICK,
    ClickDetectorSpec,
    DeadTimeSpec,
    bernoulli_positions,
    check_seed,
    dead_time_filter,
    dead_time_throughput,
)
from .errors import EstimationError, ValidationError, require_finite
from .pair_source import MAX_PAIRS, PairNumberDistribution, thin

# Monte Carlo pulses are processed in fixed-size blocks; each block draws from
# its own counter-based substream, so results do not depend on how blocks are
# scheduled.  Changing this constant changes the sampled stream.
MC_BLOCK = 1 << 20
MC_MIN_PULSES = 1_000_000


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
        require_finite("repetition rate", self.rep_rate_hz)
        require_finite("gate rate", self.gate_rate_hz)
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
            require_finite(name, getattr(self, name))
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be >= 0")
        require_finite("per_trigger_coincidence_prob", self.per_trigger_coincidence_prob)

    @classmethod
    def from_dict(cls, record) -> CountRates:
        """Rates from a :meth:`to_dict` record; the per-trigger probability is derived."""
        keys = ("signal_singles_cps", "idler_singles_cps", "coincidences_cps", "trigger_rate_cps", "gate_rate_hz")
        try:
            signal, idler, coinc, trigger, gate = (float(record[key]) for key in keys)
        except KeyError as exc:
            raise ValidationError(f"counts record is missing the {exc} field") from None
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"counts record must map each rate to a number: {exc}") from None
        return cls(signal, idler, coinc, trigger, gate, coinc / trigger if trigger > 0 else 0.0)

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
        check_seed(seed)
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


_PAIRS = np.arange(MAX_PAIRS + 1)  # every pair number a pulse can carry


def _none_of(p: float) -> np.ndarray:
    """Probability, per pair number n, that none of n independent trials of
    probability ``p`` succeeds."""
    return (1.0 - p) ** _PAIRS


@dataclass(frozen=True)
class _Block:
    """The pulses of one block that carry at least one pair."""

    rng: np.random.Generator  # the block's substream, for the draws that follow
    start: int  # pulse index of the block's first pulse
    size: int
    pulses: np.ndarray  # sorted indices within the block
    pairs: np.ndarray  # pair number of each of those pulses (>= 1)

    def pair_histogram(self, select: np.ndarray | slice = slice(None), empty: int = 0) -> np.ndarray:
        """Number of selected occupied pulses per pair number, plus ``empty``
        pulses without pairs."""
        hist = np.bincount(self.pairs[select], minlength=_PAIRS.size)
        hist[0] += empty
        return hist


def _mc_blocks(config: SetupConfig, n_pulses: int, seed: int) -> Iterator[_Block]:
    """The event-driven pulse train, block by block.

    Occupied pulses are found by geometric gaps at ``1 - pmf[0]``; their pair
    numbers come from the zero-truncated pmf, the same truncated vector the
    analytic mode sums over.
    """
    pmf = config.pair_distribution().pmf_vector()
    tail = np.cumsum(pmf[1:])
    cdf = tail / tail[-1] if tail.size else tail
    p_occupied = 1.0 - pmf[0]
    for block, start in enumerate(range(0, n_pulses, MC_BLOCK)):
        size = min(MC_BLOCK, n_pulses - start)
        rng = _block_rng(seed, block)
        pulses = bernoulli_positions(rng, p_occupied, size)
        pairs = 1 + np.searchsorted(cdf, rng.random(pulses.size), side="right")
        yield _Block(rng, start, size, pulses, pairs)


def _heralds(blk: _Block, config: SetupConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Herald clicks of a block.

    One uniform ``u`` per occupied pulse decides whether a signal photon is
    detected, ``u < 1 - (1 - b_s)^n``; callers reuse it for events nested in
    that one.  Herald dark clicks are a second geometric-gap stream.  Returns
    ``u``, which occupied pulses herald, and the positions of the dark
    heralds on empty pulses.
    """
    u = blk.rng.random(blk.pulses.size)
    heralded = u < 1.0 - _none_of(config.herald_survival)[blk.pairs]
    dark = bernoulli_positions(blk.rng, config.herald_dark_prob, blk.size)
    j = np.searchsorted(blk.pulses, dark)
    on_pair = j < blk.pulses.size
    on_pair[on_pair] = blk.pulses[j[on_pair]] == dark[on_pair]
    heralded[j[on_pair]] = True
    return u, heralded, dark[~on_pair]


def _simulate_counts_mc(config: SetupConfig, n_pulses: int, seed: int) -> CountRates:
    bs = config.herald_survival
    bi = config.idler_click_survival
    dw = config.coincidence_dark_prob
    ap = config.idler_detector.afterpulse_prob
    window = int(round(config.trigger_dead_time.tau_s * config.rep_rate_hz))
    model = config.trigger_dead_time.model
    # Per pair, the signal photon is detected with b_s and the idler photon
    # with b_i, independently.  A pulse's herald photon (some signal detected)
    # contains its partner event (some pair detected on both sides), so the
    # herald's uniform u also decides the partner: u < 1 - (1 - b_s b_i)^n.
    no_signal = _none_of(bs)
    no_partner = _none_of(bs * bi)
    no_idler = _none_of(bi)
    # no idler photon given a signal photon without a detected partner:
    # P(signal, no idler) / P(signal, no partner), per pair number
    signal_only = no_partner - no_signal
    no_idler_given_signal = np.divide(
        no_idler * (1.0 - no_signal), signal_only, out=np.ones(_PAIRS.size), where=signal_only > 0.0
    )
    # idler gate silent (no photon, no dark) for pulses without a signal
    # photon (row 0) and with one but no detected partner (row 1)
    quiet_gate = (1.0 - config.idler_detector.dark_prob_per_gate) * np.stack(
        [no_idler, np.minimum(no_idler_given_signal, 1.0)]
    )
    last = NO_CLICK  # herald -> trigger dead-time state, carried across blocks

    heralds = triggers = coinc_counts = idler_counts = 0
    for blk in _mc_blocks(config, n_pulses, seed):
        rng = blk.rng
        u, heralded, dark_only = _heralds(blk, config)
        partner = u < 1.0 - no_partner[blk.pairs]
        signal = u < 1.0 - no_signal[blk.pairs]

        # triggers: the dead time acts on every herald in pulse order
        at = np.concatenate([blk.pulses[heralded], dark_only])
        tagged = np.concatenate([partner[heralded], np.zeros(dark_only.size, dtype=bool)])
        order = np.argsort(at)
        keep, last = dead_time_filter(at[order] + blk.start, window, model, last)
        n_trig = int(keep.sum())
        # a trigger without a detected partner coincides only with a window dark
        coinc = int(tagged[order][keep].sum())
        coinc += int(rng.binomial(n_trig - coinc, dw))

        # one idler gate per pulse, counted per pair number and signal outcome
        quiet_pulses = np.stack(
            [blk.pair_histogram(~signal, empty=blk.size - blk.pulses.size), blk.pair_histogram(signal & ~partner)]
        )
        idler = int(partner.sum()) + int(rng.binomial(quiet_pulses, 1.0 - quiet_gate).sum())

        heralds += at.size
        triggers += n_trig
        coinc_counts += coinc + int(rng.binomial(coinc, ap))
        idler_counts += idler + int(rng.binomial(idler, ap))

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
    hist = np.zeros(_PAIRS.size, dtype=np.int64)
    for blk in _mc_blocks(config, n_pulses, seed):
        _, heralded, dark_only = _heralds(blk, config)
        m = blk.rng.binomial(blk.pairs[heralded], config.output_survival)  # photons at the output
        hist += np.bincount(m, minlength=hist.size)
        hist[0] += dark_only.size
    heralds = int(hist.sum())
    if heralds == 0:
        raise EstimationError("no heralds in the Monte Carlo sample; cannot condition")
    last = int(np.max(np.nonzero(hist)[0]))
    return HeraldedStats(p=hist[: last + 1] / heralds)


def _hbt_tally(rng: np.random.Generator, pulses: np.ndarray, pa: float, pb: float, dark: float) -> np.ndarray:
    """Singles and coincidences ``[n1, n2, n12]`` of two click detectors
    behind a splitter.

    ``pulses[n]`` windows hold n pairs; each pair's photon clicks port a with
    ``pa`` or port b with ``pb``, and each port also clicks dark with
    ``dark``.  The windows of one pair number split into a-only, b-only, both
    and neither by one multinomial draw.
    """
    quiet_a = (1.0 - dark) * _none_of(pa)
    quiet_b = (1.0 - dark) * _none_of(pb)
    quiet = (1.0 - dark) ** 2 * _none_of(pa + pb)
    pvals = np.stack([quiet_b - quiet, quiet_a - quiet, 1.0 - quiet_a - quiet_b + quiet, quiet], axis=1)
    a_only, b_only, both, _ = rng.multinomial(pulses, np.maximum(pvals, 0.0)).sum(axis=0)
    return np.array([a_only + both, b_only + both, both])


def _hbt_g2_mc(
    config: SetupConfig, arm: str, ratio: float, n_pulses: int, seed: int
) -> G2Result:
    tally = np.zeros(3, dtype=np.int64)
    windows = 0
    for blk in _mc_blocks(config, n_pulses, seed):
        if arm == "signal_unconditioned":
            # fiber-coupled signal light split on the HBT coupler, one
            # herald-grade detector per port; every pulse is a window
            pulses = blk.pair_histogram(empty=blk.size - blk.pulses.size)
            b = config.herald_survival
            dark = config.herald_dark_prob
        else:
            # ideal click detectors at the source output plane; heralds are the windows
            _, heralded, dark_only = _heralds(blk, config)
            pulses = blk.pair_histogram(heralded, empty=dark_only.size)
            b = config.output_survival
            dark = 0.0
        tally += _hbt_tally(blk.rng, pulses, b * ratio, b * (1.0 - ratio), dark)
        windows += int(pulses.sum())
    n1, n2, n12 = (int(v) for v in tally)
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
