import functools
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spdcherald import experiment, pair_source
from spdcherald.detectors import DEAD_TIME_MODELS, DeadTimeSpec, FreeRunningDetector, GatedDetector, dead_time_window
from spdcherald.errors import DomainError, EstimationError, ValidationError
from spdcherald.experiment import (
    HBT_ARMS,
    MC_BLOCK,
    CountRates,
    G2Result,
    HeraldedStats,
    SetupConfig,
    _mc_tally,
    hbt_g2,
    heralded_photon_statistics,
    reference_setup,
    simulate_counts,
)

# frozen from the exact series sums of the reference configuration
REF_SIGNAL_SINGLES = 291888.034
REF_IDLER_SINGLES = 285.0195
REF_TRIGGER = 217997.207
REF_COINCIDENCES = 3058.640
REF_PER_TRIGGER = 0.01403064
REF_P0 = 0.8084417
REF_P1 = 0.1888711
REF_P2 = 2.667867e-3
REF_G2_HERALDED = 0.1444749

MC_PULSES = 10_000_000


def quiet_setup(**overrides):
    """Reference chain with dark counts and afterpulsing switched off."""
    base = dict(
        herald=FreeRunningDetector(efficiency=0.547, dark_rate_cps=0.0),
        idler_detector=GatedDetector(
            efficiency=0.10, dark_prob_per_gate=0.0, afterpulse_prob=0.0
        ),
    )
    base.update(overrides)
    return reference_setup(**base)


class TestConfigValidation:
    def test_defaults_are_valid(self):
        cfg = SetupConfig()
        assert cfg.mu == 0.0829
        assert cfg.trigger_dead_time.model == "paralyzable"

    def test_probability_ranges(self):
        with pytest.raises(ValidationError):
            reference_setup(alpha_signal=1.2)
        with pytest.raises(ValidationError):
            reference_setup(t_delay_fiber=-0.1)

    def test_detector_modes_enforced(self):
        gated = GatedDetector(efficiency=0.5, dark_prob_per_gate=1e-4)
        with pytest.raises(ValidationError, match="herald detector runs free"):
            reference_setup(herald=gated)
        free = FreeRunningDetector(efficiency=0.5, dark_rate_cps=90.0)
        with pytest.raises(ValidationError, match="idler detector operates in gated mode"):
            reference_setup(idler_detector=free)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: reference_setup(rep_rate_hz=v),
            lambda v: reference_setup(gate_rate_hz=v),
            lambda v: reference_setup(mu=v),
            lambda v: reference_setup(trigger_dead_time=DeadTimeSpec(tau_us=v)),
            lambda v: FreeRunningDetector(efficiency=0.5, dark_rate_cps=v),
        ],
        ids=["rep_rate_hz", "gate_rate_hz", "mu", "tau_us", "dark_rate_cps"],
    )
    def test_non_finite_values_rejected(self, build, value):
        with pytest.raises(ValidationError, match="finite"):
            build(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "signal_singles",
            "idler_singles",
            "coincidences",
            "trigger_rate",
            "gate_rate",
            "per_trigger_coincidence_prob",
        ],
    )
    def test_non_finite_count_rates_rejected(self, field, value):
        counts = simulate_counts(reference_setup())
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            replace(counts, **{field: value})

    def test_bad_law_rejected(self):
        with pytest.raises(ValidationError):
            reference_setup(law="gaussian")


class TestAnalyticCounts:
    def test_reference_rates(self):
        counts = simulate_counts(reference_setup())
        assert counts.signal_singles == pytest.approx(REF_SIGNAL_SINGLES, rel=1e-6)
        assert counts.idler_singles == pytest.approx(REF_IDLER_SINGLES, rel=1e-6)
        assert counts.trigger_rate == pytest.approx(REF_TRIGGER, rel=1e-6)
        assert counts.coincidences == pytest.approx(REF_COINCIDENCES, rel=1e-6)
        assert counts.per_trigger_coincidence_prob == pytest.approx(REF_PER_TRIGGER, rel=1e-5)

    def test_per_trigger_consistency(self):
        counts = simulate_counts(reference_setup())
        assert counts.per_trigger_coincidence_prob == pytest.approx(
            counts.coincidences / counts.trigger_rate, rel=1e-12
        )

    def test_vacuum_gives_zero(self):
        counts = simulate_counts(quiet_setup(mu=0.0))
        assert counts.signal_singles == 0.0
        assert counts.idler_singles == 0.0
        assert counts.coincidences == 0.0
        assert counts.trigger_rate == 0.0

    def test_vacuum_with_dark_counts(self):
        counts = simulate_counts(reference_setup(mu=0.0))
        assert counts.signal_singles == pytest.approx(90.0, rel=1e-6)
        assert counts.idler_singles == pytest.approx(205000.0 * 2.5e-4 * 1.001, rel=1e-9)
        assert counts.per_trigger_coincidence_prob == pytest.approx(2.5e-4 * 1.001, rel=1e-6)

    def test_idler_singles_closed_form(self):
        # threshold click on a thinned poissonian, inflated by afterpulsing
        cfg = reference_setup()
        p_click = 1.0 - (1.0 - 2.5e-4) * math.exp(-cfg.mu * cfg.idler_click_survival)
        counts = simulate_counts(cfg)
        assert counts.idler_singles == pytest.approx(cfg.gate_rate_hz * p_click * 1.001, rel=1e-12)

    def test_afterpulse_inflates_by_one_plus_p(self):
        def counts(afterpulse):
            idler = GatedDetector(
                efficiency=0.10, dark_prob_per_gate=2.5e-4, afterpulse_prob=afterpulse
            )
            return simulate_counts(reference_setup(idler_detector=idler))

        base, inflated = counts(0.0), counts(1.0e-3)
        assert inflated.idler_singles == pytest.approx(base.idler_singles * 1.001, rel=1e-12)
        assert inflated.coincidences == pytest.approx(base.coincidences * 1.001, rel=1e-12)

    def test_idler_singles_monotone_in_efficiency_dark_and_mean(self):
        def idler(eta=0.10, dark=2.5e-4, mu=0.0829):
            spec = GatedDetector(efficiency=eta, dark_prob_per_gate=dark)
            return simulate_counts(reference_setup(mu=mu, idler_detector=spec)).idler_singles

        for rates in (
            [idler(eta=e) for e in (0.05, 0.1, 0.3, 0.9)],
            [idler(dark=d) for d in (0.0, 1e-4, 1e-3, 1e-2)],
            [idler(mu=m) for m in (0.001, 0.01, 0.1, 0.2)],
        ):
            assert sorted(rates) == rates and len(set(rates)) == len(rates)

    def test_trigger_monotone_in_mu(self):
        triggers = [
            simulate_counts(reference_setup(mu=m)).trigger_rate
            for m in (0.01, 0.05, 0.0829, 0.15, 0.25)
        ]
        assert sorted(triggers) == triggers

    def test_physical_bound_on_coincidences(self):
        # per-trigger coincidence probability never beats delivering at least
        # one photon through the downstream path, plus dark counts
        for mu in (0.02, 0.0829, 0.2):
            for alpha_i in (0.1, 0.22, 0.6):
                cfg = reference_setup(mu=mu, alpha_idler=alpha_i)
                counts = simulate_counts(cfg)
                stats = heralded_photon_statistics(cfg)
                bound = (
                    (1.0 - stats.probability(0)) * cfg.t_delay_fiber * cfg.idler_detector.efficiency
                    + cfg.idler_detector.dark_prob_per_gate
                )
                assert counts.per_trigger_coincidence_prob <= bound + 1e-6

    def test_coincidence_window_adds_accidentals(self):
        one = simulate_counts(reference_setup())
        two = simulate_counts(reference_setup(coincidence_window=2))
        gain = two.per_trigger_coincidence_prob - one.per_trigger_coincidence_prob
        assert 0.0 < gain < 2.0 * 2.5e-4

    def test_thermal_law_raises_coincidences(self):
        po = simulate_counts(reference_setup())
        th = simulate_counts(reference_setup(law="thermal"))
        assert th.per_trigger_coincidence_prob > po.per_trigger_coincidence_prob


class TestHeraldedStats:
    def test_reference_values(self):
        stats = heralded_photon_statistics(reference_setup())
        assert stats.probability(0) == pytest.approx(REF_P0, rel=1e-6)
        assert stats.probability(1) == pytest.approx(REF_P1, rel=1e-6)
        assert stats.probability(2) == pytest.approx(REF_P2, rel=1e-6)

    def test_normalization(self):
        stats = heralded_photon_statistics(reference_setup())
        assert abs(stats.p.sum() - 1.0) < 1e-9

    def test_p2_monotone_in_mu(self):
        p2 = [
            heralded_photon_statistics(reference_setup(mu=m)).probability(2)
            for m in (0.01, 0.05, 0.0829, 0.15, 0.25)
        ]
        assert sorted(p2) == p2

    def test_lossless_low_gain_limit(self):
        cfg = quiet_setup(mu=1e-6, alpha_idler=1.0, t_idler_optics=1.0)
        stats = heralded_photon_statistics(cfg)
        assert stats.probability(1) > 0.999

    def test_cannot_condition_without_heralds(self):
        with pytest.raises(EstimationError):
            heralded_photon_statistics(quiet_setup(mu=0.0))

    def test_stats_validation(self):
        with pytest.raises(ValidationError):
            HeraldedStats(p=np.array([0.5, 0.4]))
        with pytest.raises(ValidationError):
            HeraldedStats(p=np.array([1.2, -0.2]))

    @pytest.mark.parametrize("p", [[], [[0.5, 0.5]]])
    def test_stats_must_be_a_non_empty_vector(self, p):
        with pytest.raises(ValidationError, match="must be a non-empty vector"):
            HeraldedStats(p=np.array(p))

    @pytest.mark.parametrize("n", [-1, -9])
    def test_negative_photon_number_rejected(self, n):
        # -1 read the last entry (2.4e-15) and -9 raised a raw IndexError
        stats = heralded_photon_statistics(reference_setup())
        with pytest.raises(DomainError, match=f"photon number must be >= 0, got {n}"):
            stats.probability(n)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, bad):
        # NaN failed every comparison, so [nan, 0.5, 0.5] passed as a pmf
        with pytest.raises(ValidationError, match=r"lie in \[0, 1\]"):
            HeraldedStats(p=np.array([bad, 0.5, 0.5]))
        with pytest.raises(ValidationError):
            HeraldedStats(p=np.array([0.5, 0.5, bad]))


def pgf_per_point(pmf, x):
    """E[x^n] at one point: the generating function one power call at a time."""
    return float((pmf * x ** np.arange(pmf.size)).sum())


def heralded_reference(cfg, pmf):
    """P(n) at the output given a herald, with every intermediate built in turn."""
    herald_given_n = 1.0 - (1.0 - cfg.herald_dark_prob) * (1.0 - cfg.herald_survival) ** np.arange(pmf.size)
    p_herald = float((pmf * herald_given_n).sum())
    p_m = pair_source.thin(pmf * herald_given_n, cfg.output_survival) / p_herald
    last = int(np.max(np.nonzero(p_m > 1e-15)[0])) if np.any(p_m > 1e-15) else 0
    p_m = p_m[: last + 1]
    return p_m / p_m.sum()


class TestAnalyticBitIdentity:
    """The analytic core evaluated in one pass equals the per-step references bit for bit.
    mu = 5 cuts the thermal and 3-mode laws at MAX_PAIRS: their setups refuse the
    mean, and the core is checked on the law's MAX_PAIRS + 1 head instead."""

    CASES = [
        dict(law=law, modes=modes, mu=mu, coincidence_window=window)
        for (law, modes), window in zip(
            [("poissonian", None), ("thermal", None), ("multimode_thermal", 3), ("multimode_thermal", 160)], (1, 2, 3, 1)
        )
        for mu in (1e-4, 0.003, 0.0829, 0.4, 1.0, 5.0)
    ]

    @staticmethod
    def cut(cfg):
        """Whether the case is one that mu = 5 cuts at MAX_PAIRS: thermal, or 3 modes."""
        return cfg.mu == 5.0 and cfg.modes in (None, 3) and cfg.law != "poissonian"

    def pmf(self, cfg):
        """``cfg``'s pmf, or the 65-entry head of a law it refuses as cut, after pinning the refusal."""
        if not self.cut(cfg):
            return cfg.pmf
        with pytest.raises(ValidationError, match="is cut at MAX_PAIRS = 64 pairs") as info:
            cfg.pmf
        assert info.value.field == "mean"
        return cfg.pair_distribution()._head(pair_source.MAX_PAIRS + 1)

    @pytest.mark.parametrize("case", CASES)
    def test_generating_values(self, case):
        cfg = reference_setup(**case)
        pmf = self.pmf(cfg)
        bs, bi = cfg.herald_survival, cfg.idler_click_survival
        got = (pmf * cfg.none_of[:, : pmf.size]).sum(axis=1).tolist()
        assert got == [pgf_per_point(pmf, x) for x in (1.0 - bs, 1.0 - bi, 1.0 - bs * bi)]

    @pytest.mark.parametrize("case", CASES)
    def test_heralded_statistics(self, case):
        cfg = reference_setup(**case)
        pmf = self.pmf(cfg)
        for setup in (cfg, replace(cfg, alpha_idler=1.0, t_idler_optics=1.0)):
            got = experiment._analytic_heralded(setup, pmf)
            assert np.array_equal(got.p, heralded_reference(setup, pmf))
            if not self.cut(cfg):  # a whole law: the public path reads the same pmf
                assert np.array_equal(heralded_photon_statistics(setup).p, got.p)


class TestMonteCarlo:
    def test_requires_seed_and_pulses(self):
        cfg = reference_setup()
        with pytest.raises(ValidationError):
            simulate_counts(cfg, mode="monte_carlo", n_pulses=MC_PULSES)
        with pytest.raises(ValidationError):
            simulate_counts(cfg, mode="monte_carlo", n_pulses=1000, seed=1)
        with pytest.raises(ValidationError):
            simulate_counts(cfg, mode="other")

    @pytest.mark.parametrize(
        "pulses,seed,field",
        [(1_000_000.7, 1, "n_pulses"), (math.inf, 1, "n_pulses"), (2e6, 1, "n_pulses"), (1_000_000, 1.5, "seed")],
    )
    def test_non_integral_run_values_are_rejected(self, pulses, seed, field):
        # neither truncated to an int nor left to overflow in the conversion
        kw = dict(mode="monte_carlo", n_pulses=pulses, seed=seed)
        for run in (
            lambda: simulate_counts(reference_setup(), **kw),
            lambda: heralded_photon_statistics(reference_setup(), **kw),
            lambda: hbt_g2(reference_setup(), **kw),
        ):
            with pytest.raises(ValidationError, match=f"{field} must be an integer") as info:
                run()
            assert info.value.field == field

    @pytest.mark.parametrize(
        "law,mu,modes,truncated",
        [
            ("thermal", 1.43, None, False),
            ("thermal", 1.45, None, True),
            ("multimode_thermal", 2.52, 2, False),
            ("multimode_thermal", 2.54, 2, True),
            ("poissonian", 19.8, None, False),
            ("poissonian", 20.0, None, True),
            ("thermal", 30.0, None, True),
            # terms that sum short of 1 - TAIL_MASS by rounding alone
            ("multimode_thermal", 0.9275587785042025, 10**5, False),
            ("poissonian", 17.73813145632555, None, False),
        ],
    )
    def test_refuses_exactly_the_laws_the_pmf_truncates(self, law, mu, modes, truncated):
        # the Monte Carlo renormalised a truncated pmf and drew from its head alone;
        # the pmf refuses such a law once, for the analytic core and the Monte Carlo alike
        config = reference_setup(law=law, mu=mu, modes=modes)
        mc = dict(mode="monte_carlo", n_pulses=1_000_000, seed=1)
        idler_g2 = functools.partial(hbt_g2, arm="idler_heralded")  # the signal arm's analytic g2 reads no pmf
        for reduction, run in itertools.product((simulate_counts, heralded_photon_statistics, idler_g2), (mc, {})):
            if truncated:
                with pytest.raises(ValidationError, match=r"is cut at MAX_PAIRS = 64 pairs, dropping tail mass") as info:
                    reduction(config, **run)
                assert info.value.field == "mean"
            else:
                reduction(config, **run)

    def test_numpy_integer_run_values_are_accepted(self):
        kw = dict(mode="monte_carlo", n_pulses=1_000_000, seed=9)
        numpy_kw = dict(mode="monte_carlo", n_pulses=np.int64(1_000_000), seed=np.uint32(9))
        assert simulate_counts(reference_setup(), **numpy_kw) == simulate_counts(reference_setup(), **kw)

    def test_bit_identical_for_fixed_seed(self):
        cfg = reference_setup()
        a = simulate_counts(cfg, mode="monte_carlo", n_pulses=1_000_000, seed=9)
        b = simulate_counts(cfg, mode="monte_carlo", n_pulses=1_000_000, seed=9)
        assert a == b
        c = simulate_counts(cfg, mode="monte_carlo", n_pulses=1_000_000, seed=10)
        assert a != c

    def test_paralyzable_stream_is_pinned(self):
        # the reference setup's MC results on seed 2026, frozen: one block,
        # then counts and P(n) over four blocks, whose substreams are counters 0-3
        cfg = reference_setup()
        kw = dict(mode="monte_carlo", n_pulses=1_000_000, seed=2026)
        assert simulate_counts(cfg, **kw) == CountRates(
            294134.0, 280.235, 4100.0, 218120.0, 205000.0, 0.018796992481203006
        )
        assert heralded_photon_statistics(cfg, **kw).p.tolist() == [
            0.8023417897964873, 0.19598550320602173, 0.0016727069974909396
        ]
        assert hbt_g2(cfg, arm="signal_unconditioned", **kw) == G2Result(
            1.8116664069944817, 0.7420450395404604, "signal_unconditioned", "monte_carlo"
        )
        assert hbt_g2(cfg, arm="idler_heralded", **kw) == G2Result(
            0.06033438740496535, 0.04290971285543325, "idler_heralded", "monte_carlo"
        )
        kw["n_pulses"] = 3 * MC_BLOCK + 5
        assert simulate_counts(cfg, **kw).coincidences == 3466.9185210569362
        assert heralded_photon_statistics(cfg, **kw).p.tolist() == [
            0.8040164963241886, 0.19347319347319347, 0.002510310202617895
        ]

    def test_nonparalyzable_stream_is_pinned(self):
        # as above, behind a nonparalyzable dead time and an uneven splitter: one block, then four
        cfg = reference_setup(trigger_dead_time=DeadTimeSpec(1.0, "nonparalyzable"))
        kw = dict(mode="monte_carlo", n_pulses=1_000_000, seed=2026)
        assert simulate_counts(cfg, **kw) == CountRates(
            291674.0, 290.075, 4100.0, 225828.0, 205000.0, 0.01815541031227306
        )
        assert heralded_photon_statistics(cfg, **kw).p.tolist() == [
            0.8161371942648299, 0.1810514478493112, 0.0028113578858588698
        ]
        assert hbt_g2(cfg, arm="signal_unconditioned", splitter_ratio=0.3, **kw) == G2Result(
            0.361619186067536, 0.3618524017540742, "signal_unconditioned", "monte_carlo"
        )
        assert hbt_g2(cfg, arm="idler_heralded", splitter_ratio=0.3, **kw) == G2Result(
            0.12872445656107506, 0.07517349574713388, "idler_heralded", "monte_carlo"
        )
        kw["n_pulses"] = 3 * MC_BLOCK + 5
        assert simulate_counts(cfg, **kw) == CountRates(
            290074.20528061345, 284.45675459423927, 3571.1867472541376, 225115.10035975717, 205000.0,
            0.01586382584529875,
        )
        assert heralded_photon_statistics(cfg, **kw).p.tolist() == [
            0.8164090582314881, 0.18134435657800144, 0.002156721782890007, 8.986340762041697e-05
        ]
        assert hbt_g2(cfg, arm="signal_unconditioned", splitter_ratio=0.3, **kw) == G2Result(
            0.23750494151869292, 0.1680120797802119, "signal_unconditioned", "monte_carlo"
        )
        assert hbt_g2(cfg, arm="idler_heralded", splitter_ratio=0.3, **kw) == G2Result(
            0.25385307268153, 0.05671218229797745, "idler_heralded", "monte_carlo"
        )

    def test_counts_agree_with_analytic_within_3_sigma(self):
        cfg = reference_setup()
        mc = simulate_counts(cfg, mode="monte_carlo", n_pulses=MC_PULSES, seed=42)
        an = simulate_counts(cfg)
        duration = MC_PULSES / cfg.rep_rate_hz
        for name in ("signal_singles", "trigger_rate", "coincidences"):
            expected = getattr(an, name)
            sigma = math.sqrt(expected * duration) / duration
            assert abs(getattr(mc, name) - expected) < 3.0 * sigma, name
        # idler singles are a per-gate probability scaled to the gate rate
        p = an.idler_singles / an.gate_rate
        sigma_idler = math.sqrt(p / MC_PULSES) * an.gate_rate
        assert abs(mc.idler_singles - an.idler_singles) < 3.0 * sigma_idler

    def test_stats_agree_with_analytic_within_3_sigma(self):
        cfg = reference_setup()
        mc = heralded_photon_statistics(cfg, mode="monte_carlo", n_pulses=MC_PULSES, seed=7)
        an = heralded_photon_statistics(cfg)
        n_heralds = MC_PULSES * simulate_counts(cfg).signal_singles / cfg.rep_rate_hz
        for k in range(3):
            p = an.probability(k)
            sigma = math.sqrt(p * (1.0 - p) / n_heralds)
            assert abs(mc.probability(k) - p) < 3.0 * sigma, k

    def test_block_boundaries_do_not_bias_dead_time(self):
        # trigger rate estimated across block joins matches the formula
        cfg = reference_setup()
        mc = simulate_counts(cfg, mode="monte_carlo", n_pulses=3 * (1 << 20), seed=13)
        an = simulate_counts(cfg)
        duration = 3 * (1 << 20) / cfg.rep_rate_hz
        sigma = math.sqrt(an.trigger_rate * duration) / duration
        assert abs(mc.trigger_rate - an.trigger_rate) < 3.0 * sigma

    def test_nonparalyzable_mode_runs(self):
        cfg = reference_setup(trigger_dead_time=DeadTimeSpec(1.0, "nonparalyzable"))
        mc = simulate_counts(cfg, mode="monte_carlo", n_pulses=2_000_000, seed=3)
        an = simulate_counts(cfg)
        duration = 2_000_000 / cfg.rep_rate_hz
        sigma = math.sqrt(an.trigger_rate * duration) / duration
        assert abs(mc.trigger_rate - an.trigger_rate) < 3.0 * sigma

    def test_vacuum_heralds_only_dark_counts(self):
        cfg = reference_setup(
            mu=0.0, herald=FreeRunningDetector(efficiency=0.547, dark_rate_cps=9e4)
        )
        n = 2_000_000
        mc = simulate_counts(cfg, mode="monte_carlo", n_pulses=n, seed=4)
        an = simulate_counts(cfg)
        heralds = an.signal_singles * n / cfg.rep_rate_hz
        assert abs(mc.signal_singles * n / cfg.rep_rate_hz - heralds) < 5.0 * math.sqrt(heralds)
        stats = heralded_photon_statistics(cfg, mode="monte_carlo", n_pulses=n, seed=4)
        assert stats.p.tolist() == [1.0]
        with pytest.raises(EstimationError):
            hbt_g2(cfg, arm="idler_heralded", mode="monte_carlo", n_pulses=n, seed=4)

    def test_negligible_dark_rate_gives_no_dark_herald(self):
        # 1e-12 cps is ~1.2e-20 per pulse: a gap between dark clicks far beyond int64
        cfg = reference_setup(
            mu=0.0, herald=FreeRunningDetector(efficiency=0.547, dark_rate_cps=1e-12)
        )
        kw = dict(mode="monte_carlo", n_pulses=3 * MC_BLOCK, seed=8)
        mc = simulate_counts(cfg, **kw)
        assert mc.signal_singles == 0.0 and mc.trigger_rate == 0.0
        with pytest.raises(EstimationError):
            heralded_photon_statistics(cfg, **kw)
        with pytest.raises(EstimationError):
            hbt_g2(cfg, **kw)

    def test_memory_stays_per_event(self):
        tracemalloc.start()
        try:
            simulate_counts(reference_setup(), mode="monte_carlo", n_pulses=2 * MC_BLOCK, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _count_z(observed: float, expected: float, var: float) -> float:
    """z of an event count; the variance is floored at one count, so a single
    event where far fewer were expected is not an outlier."""
    return (observed - expected) / math.sqrt(max(var, 1.0))


# every law x coincidence window x dead-time model, each on its own seed
EVERY_CONFIGURATION = [
    (seed, *c)
    for seed, c in enumerate(
        itertools.product(("poissonian", "thermal", "multimode_thermal"), (1, 3), ("paralyzable", "nonparalyzable")),
        start=2024,
    )
]


def _counts_and_pn_z(cfg: SetupConfig, n: int, seed: int) -> dict:
    """z of each MC count rate and of the MC heralded P(0..2) against the
    analytic model, for ``n`` pulses on ``seed``."""
    duration = n / cfg.rep_rate_hz
    ap = cfg.idler_detector.afterpulse_prob
    an = simulate_counts(cfg)
    mc = simulate_counts(cfg, mode="monte_carlo", n_pulses=n, seed=seed)

    p_herald = an.signal_singles / cfg.rep_rate_hz
    p_gate = an.idler_singles / an.gate_rate / (1.0 + ap)  # click probability per gate
    triggers = an.trigger_rate * duration
    if cfg.trigger_dead_time.model == "nonparalyzable":
        # a renewal count: gaps of W + Geometric(p_h) pulses
        gap = dead_time_window(cfg.trigger_dead_time, cfg.rep_rate_hz, n) + 1.0 / p_herald
        trigger_var = n * (1.0 - p_herald) / p_herald**2 / gap**3
    else:
        trigger_var = triggers
    p_coinc = an.per_trigger_coincidence_prob / (1.0 + ap)
    # a count is a click plus, with probability ap, its afterpulse
    z = {
        "signal_singles": _count_z(mc.signal_singles * duration, p_herald * n, n * p_herald * (1.0 - p_herald)),
        "idler_singles": _count_z(
            mc.idler_singles / an.gate_rate * n,
            an.idler_singles / an.gate_rate * n,
            n * (p_gate * (1.0 + 3.0 * ap) - (p_gate * (1.0 + ap)) ** 2),
        ),
        "trigger_rate": _count_z(mc.trigger_rate * duration, triggers, trigger_var),
        "coincidences": _count_z(
            mc.coincidences * duration, an.coincidences * duration, triggers * p_coinc * (1.0 + 3.0 * ap)
        ),
    }
    heralds = n * p_herald
    stats_an = heralded_photon_statistics(cfg)
    stats_mc = heralded_photon_statistics(cfg, mode="monte_carlo", n_pulses=n, seed=seed)
    for k in range(3):
        p = stats_an.probability(k)
        z[f"P({k})"] = _count_z(stats_mc.probability(k) * heralds, p * heralds, heralds * p * (1.0 - p))
    return z


@pytest.mark.parametrize("seed,law,window,model", EVERY_CONFIGURATION)
def test_monte_carlo_agrees_with_analytic_on_every_configuration(seed, law, window, model):
    cfg = reference_setup(
        law=law,
        modes=3 if law == "multimode_thermal" else None,
        coincidence_window=window,
        trigger_dead_time=DeadTimeSpec(1.0, model),
    )
    n = 2_000_000
    z = _counts_and_pn_z(cfg, n, seed)
    g2_mc = hbt_g2(cfg, arm="idler_heralded", mode="monte_carlo", n_pulses=n, seed=seed)
    g2_an = hbt_g2(cfg, arm="idler_heralded")
    # its error is set by the coincidence count n12 (with none seen, z is the expected n12)
    z["g2"] = (g2_mc.value - g2_an.value) / g2_mc.stderr
    assert all(abs(v) <= 5.0 for v in z.values()), z


DENSE_PULSES = 20_000_000


def _dense_setup(law: str, mu: float, window: int, model: str) -> SetupConfig:
    return reference_setup(
        law=law,
        mu=mu,
        modes=2 if law == "multimode_thermal" else None,
        coincidence_window=window,
        trigger_dead_time=DeadTimeSpec(1.0, model),
    )


# every law x mu in {0.6, 0.9} x coincidence window, nonparalyzable (whose
# analytic rate p / (1 + pW) is exact on a pulse train), each on its own seed
DENSE_CONFIGURATIONS = [
    (seed, *c)
    for seed, c in enumerate(
        itertools.product(("poissonian", "thermal", "multimode_thermal"), (0.6, 0.9), (1, 3)), start=3024
    )
]


@pytest.mark.parametrize("seed,law,mu,window", DENSE_CONFIGURATIONS)
def test_monte_carlo_agrees_with_analytic_at_dense_mu(seed, law, mu, window):
    # click-based idler g2 is left out: it sits below the photon-number value
    # the analytic mode returns, by under 5 sigma at this size
    z = _counts_and_pn_z(_dense_setup(law, mu, window, "nonparalyzable"), DENSE_PULSES, seed)
    assert all(abs(v) <= 5.0 for v in z.values()), z


@pytest.mark.xfail(
    strict=True,
    reason="the analytic paralyzable trigger rate is the continuous R exp(-R tau); herald clicks come once "
    "per pulse, where it is R (1 - p)^W, 6% lower at multimode mu = 0.9 with 2 modes",
)
def test_paralyzable_trigger_rate_at_dense_mu():
    cfg = _dense_setup("multimode_thermal", 0.9, 1, "paralyzable")
    an = simulate_counts(cfg)
    mc = simulate_counts(cfg, mode="monte_carlo", n_pulses=DENSE_PULSES, seed=9)
    triggers = an.trigger_rate * DENSE_PULSES / cfg.rep_rate_hz
    assert abs(_count_z(mc.trigger_rate * DENSE_PULSES / cfg.rep_rate_hz, triggers, triggers)) <= 5.0


class TestOneKernel:
    CFG = reference_setup(law="thermal", mu=0.6, herald=FreeRunningDetector(efficiency=0.547, dark_rate_cps=9e4))

    REDUCTIONS = ("counts", "photons", *HBT_ARMS)

    def test_tallies_partition_the_pulses(self):
        # run-level, over three blocks: every pulse is a window of the signal
        # arm, and every herald one of the idler arm and one photon number
        n = 2 * MC_BLOCK + 12_345
        counts, photons, signal, idler = (_mc_tally(self.CFG, n, 5, r) for r in self.REDUCTIONS)
        heralds = counts.heralds
        assert {t.pulses for t in (counts, photons, signal, idler)} == {n}
        assert 0 < counts.triggers < heralds < n
        assert 0 < counts.coincidences < counts.triggers and 0 < counts.idler_clicks < n
        assert photons.photons.sum() == heralds and photons.photons[1] > 0
        assert signal.windows == n and idler.windows == heralds
        for t in (signal, idler):
            assert 0 < t.n12 < min(t.n1, t.n2) and max(t.n1, t.n2) < t.windows
        # a pass tallies only its own reduction
        assert counts.photons is None and counts.windows == 0
        assert photons.triggers == photons.coincidences == photons.idler_clicks == photons.windows == 0
        assert signal.triggers == 0 and signal.photons is None

    def test_reductions_condition_on_the_same_heralds(self):
        kw = dict(mode="monte_carlo", n_pulses=3_000_000, seed=21)
        heralds = simulate_counts(self.CFG, **kw).signal_singles * kw["n_pulses"] / self.CFG.rep_rate_hz
        for reduction in self.REDUCTIONS:
            tally = _mc_tally(self.CFG, kw["n_pulses"], kw["seed"], reduction)
            assert heralds == pytest.approx(tally.heralds, rel=0, abs=1e-9), reduction
        per_n = heralded_photon_statistics(self.CFG, **kw).p * heralds
        assert np.all(np.abs(per_n - np.round(per_n)) < 1e-9), per_n
        other = heralded_photon_statistics(self.CFG, mode="monte_carlo", n_pulses=3_000_000, seed=22).p * heralds
        assert not np.all(np.abs(other - np.round(other)) < 1e-9)

    @pytest.mark.parametrize("model", DEAD_TIME_MODELS)
    @pytest.mark.parametrize("block,n", [(MC_BLOCK, 3 * MC_BLOCK + 777), (1000, 1_000_000)])
    def test_herald_process_follows_the_pulse_train_laws(self, monkeypatch, model, block, n):
        # heralds at p_h per pulse; triggers at p / (1 + pW), whose gaps W +
        # Geometric(p) give the renewal variance, or at p (1 - p)^W; with
        # 1000-pulse blocks a dead time lost at the joins would show
        monkeypatch.setattr(experiment, "MC_BLOCK", block)
        cfg = replace(self.CFG, trigger_dead_time=DeadTimeSpec(1.0, model))
        p = simulate_counts(cfg).signal_singles / cfg.rep_rate_hz
        w = round(cfg.trigger_dead_time.tau_s * cfg.rep_rate_hz)
        tally = _mc_tally(cfg, n, 17, "counts")
        assert abs(_count_z(tally.heralds, p * n, n * p * (1.0 - p))) <= 5.0
        if model == "nonparalyzable":
            gap = w + 1.0 / p
            z = _count_z(tally.triggers, n / gap, n * (1.0 - p) / p**2 / gap**3)
        else:
            z = _count_z(tally.triggers, n * p * (1.0 - p) ** w, n * p * (1.0 - p) ** w)
        assert abs(z) <= 5.0, z

    def test_thin_and_the_photons_reduction_read_one_table(self, monkeypatch):
        # the analytic P(n) sums the cached Binomial(n, b_out) table, and the
        # Monte Carlo draws from the very same object, never through thin
        real, tables = pair_source.thinning_table, []

        def spy(survival, size):
            tables.append(real(survival, size))
            return tables[-1]

        monkeypatch.setattr(pair_source, "thinning_table", spy)
        monkeypatch.setattr(experiment, "thinning_table", spy)
        heralded_photon_statistics(self.CFG)
        heralded_photon_statistics(self.CFG, mode="monte_carlo", n_pulses=MC_BLOCK, seed=3)
        assert len(tables) == 2
        assert tables[0] is tables[1]

    def test_zero_herald_probability_divides_by_nothing(self):
        cfg = quiet_setup(mu=0.0)  # no pair and no dark count: p_h = 0
        kw = dict(mode="monte_carlo", n_pulses=MC_BLOCK + 5, seed=2)
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            tallies = [_mc_tally(cfg, kw["n_pulses"], kw["seed"], r) for r in self.REDUCTIONS]
            mc = simulate_counts(cfg, **kw)
        # run-level, over two blocks: no herald, no trigger, every pulse a vacuum window
        assert [t.heralds for t in tallies] == [0, 0, 0, 0] and tallies[0].triggers == 0
        assert tallies[1].photons.tolist() == [0] and tallies[2].windows == MC_BLOCK + 5
        assert tallies[2].n1 == tallies[2].n2 == tallies[3].windows == 0
        assert mc.signal_singles == mc.trigger_rate == mc.coincidences == 0.0

    @pytest.mark.parametrize("model,triggers", [("paralyzable", 1), ("nonparalyzable", -(-1_000_000 // 83))])
    def test_every_pulse_heralds(self, model, triggers):
        # 1e20 dark counts per second: the herald probability sums to an ulp above 1
        cfg = reference_setup(
            herald=FreeRunningDetector(efficiency=0.547, dark_rate_cps=1e20), trigger_dead_time=DeadTimeSpec(1.0, model)
        )
        mc = simulate_counts(cfg, mode="monte_carlo", n_pulses=1_000_000, seed=1)
        assert mc.signal_singles == cfg.rep_rate_hz
        assert mc.trigger_rate * 1_000_000 / cfg.rep_rate_hz == pytest.approx(triggers, rel=1e-12)

    @pytest.mark.parametrize("model", DEAD_TIME_MODELS)
    def test_dead_time_longer_than_the_run_keeps_one_trigger(self, model):
        # a window of 8.2e21 pulses, past int64 once added to a pulse index;
        # nothing blocks the first herald
        cfg = replace(self.CFG, trigger_dead_time=DeadTimeSpec(1e20, model))
        n = 2 * MC_BLOCK + 3
        assert _mc_tally(cfg, n, 6, "counts").triggers == 1
        mc = simulate_counts(cfg, mode="monte_carlo", n_pulses=n, seed=6)
        assert mc.trigger_rate * n / cfg.rep_rate_hz == pytest.approx(1.0, rel=1e-12)

    def test_monte_carlo_never_reaches_the_analytic_path(self, monkeypatch):
        def analytic(*args, **kwargs):
            raise AssertionError("the Monte Carlo reached the analytic path")

        for name in ("thin", "_analytic_counts", "_analytic_heralded"):
            monkeypatch.setattr(experiment, name, analytic)
        monkeypatch.setattr(pair_source, "thin", analytic)
        with pytest.raises(AssertionError, match="analytic path"):
            simulate_counts(self.CFG)
        kw = dict(mode="monte_carlo", n_pulses=MC_BLOCK, seed=3)
        simulate_counts(self.CFG, **kw)
        heralded_photon_statistics(self.CFG, **kw)
        for arm in HBT_ARMS:
            hbt_g2(self.CFG, arm=arm, **kw)


class TestG2:
    def test_poissonian_signal_arm_is_exactly_one(self):
        result = hbt_g2(reference_setup())
        assert result.value == 1.0
        assert result.stderr == 0.0

    def test_thermal_signal_arm_is_two(self):
        result = hbt_g2(reference_setup(law="thermal"))
        assert result.value == pytest.approx(2.0, abs=1e-6)

    def test_multimode_signal_arm(self):
        result = hbt_g2(reference_setup(law="multimode_thermal", modes=4))
        assert result.value == pytest.approx(1.25, abs=1e-9)

    def test_heralded_idler_reference(self):
        result = hbt_g2(reference_setup(), arm="idler_heralded")
        assert result.value == pytest.approx(REF_G2_HERALDED, rel=1e-5)
        assert 0.104 <= result.value <= 0.156  # about 2 P2 / (P1 + 2 P2)^2
        assert result.value < 0.3

    def test_analytic_value_independent_of_splitter(self):
        a = hbt_g2(reference_setup(), splitter_ratio=0.3)
        b = hbt_g2(reference_setup(), splitter_ratio=0.5)
        assert a.value == b.value

    def test_mc_signal_arm_consistent_with_one(self):
        result = hbt_g2(
            reference_setup(), mode="monte_carlo", n_pulses=MC_PULSES, seed=3
        )
        assert abs(result.value - 1.0) < 3.0 * result.stderr
        assert result.stderr > 0.0

    def test_mc_heralded_idler_consistent_with_analytic(self):
        mc = hbt_g2(
            reference_setup(), arm="idler_heralded", mode="monte_carlo", n_pulses=MC_PULSES, seed=3
        )
        an = hbt_g2(reference_setup(), arm="idler_heralded")
        assert abs(mc.value - an.value) < 3.0 * mc.stderr

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            hbt_g2(reference_setup(), arm="idler")
        with pytest.raises(ValidationError):
            hbt_g2(reference_setup(), splitter_ratio=0.0)

    def test_zero_flux_rejected(self):
        with pytest.raises(EstimationError):
            hbt_g2(quiet_setup(mu=0.0))
