import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import spdcherald.estimator as estimator
import spdcherald.experiment as experiment
from spdcherald.detectors import DeadTimeSpec, FreeRunningDetector, GatedDetector
from spdcherald.errors import DomainError, EstimationError, InfeasibleCountsError, ValidationError
from spdcherald.estimator import (
    WcpComparison,
    equivalent_wcp,
    estimate_source,
)
from spdcherald.experiment import CountRates, reference_setup, simulate_counts


def reference_counts(scale=1.0, rep_scale=1.0):
    return CountRates(
        signal_singles=2.90e5 * scale,
        idler_singles=285.0 * scale,
        coincidences=3053.0 * scale,
        trigger_rate=2.16e5 * scale,
        gate_rate=2.05e5 * scale,
        per_trigger_coincidence_prob=3053.0 / 2.16e5,
    )


class TestEstimateFromReferenceCounts:
    def test_reference_inversion(self):
        est = estimate_source(reference_counts(), reference_setup())
        # frozen from the closed-form inversion oracle
        assert est.mu == pytest.approx(0.0822733, rel=1e-5)
        assert est.pair_rate == pytest.approx(6.7464e6, rel=1e-4)
        assert est.alpha_signal == pytest.approx(0.1688832, rel=1e-5)
        assert est.alpha_idler == pytest.approx(0.2216573, rel=1e-5)

    def test_reference_inversion_matches_published_values(self):
        est = estimate_source(reference_counts(), reference_setup())
        assert est.mu == pytest.approx(0.0829, rel=0.05)
        assert est.pair_rate == pytest.approx(6.8e6, rel=0.05)
        assert est.alpha_idler == pytest.approx(0.220, rel=0.10)
        assert est.alpha_signal == pytest.approx(0.169, rel=0.10)

    def test_pair_rate_definition(self):
        est = estimate_source(reference_counts(), reference_setup())
        assert est.pair_rate == pytest.approx(est.mu * 8.2e7, rel=1e-9)

    def test_heralded_closure(self):
        est = estimate_source(reference_counts(), reference_setup())
        assert abs(est.heralded.p.sum() - 1.0) < 1e-9
        assert est.heralded.probability(1) == pytest.approx(0.19, abs=0.01)

    def test_dark_subtraction_toggle(self):
        # the same counts against a setup that declares no dark counts: the
        # idler darks, 18% of the idler clicks, are then read as photons
        dark = estimate_source(reference_counts(), reference_setup())
        quiet = estimate_source(
            reference_counts(),
            reference_setup(
                herald=FreeRunningDetector(efficiency=0.547, dark_rate_cps=0.0),
                idler_detector=GatedDetector(
                    efficiency=0.10, dark_prob_per_gate=0.0, afterpulse_prob=1.0e-3
                ),
            ),
        )
        assert quiet.mu == pytest.approx(0.09860023645, rel=1e-9)
        assert quiet.mu / dark.mu == pytest.approx(1.198, rel=1e-3)

    def test_one_forward_call_per_inversion(self, monkeypatch):
        calls = Counter()
        for fn in (experiment.simulate_counts, experiment.heralded_photon_statistics):

            def counted(*args, _fn=fn, **kwargs):
                calls[_fn.__name__] += 1
                return _fn(*args, **kwargs)

            for module in (experiment, estimator):
                if getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, counted)
        estimate_source(reference_counts(), reference_setup())
        assert calls == {"heralded_photon_statistics": 1}

    def test_ignores_the_setup_source_and_timing(self):
        base = estimate_source(reference_counts(), reference_setup())
        other = estimate_source(
            reference_counts(),
            reference_setup(
                mu=0.5,
                alpha_signal=0.9,
                alpha_idler=0.01,
                gate_rate_hz=1.0,
                trigger_dead_time=DeadTimeSpec(tau_us=3.0, model="nonparalyzable"),
            ),
        )
        assert other.mu == base.mu
        assert other.alpha_signal == base.alpha_signal
        assert other.alpha_idler == base.alpha_idler
        assert (other.heralded.p == base.heralded.p).all()


class TestRoundTrip:
    @pytest.mark.parametrize("mu", [0.01, 0.05, 0.0829, 0.2])
    @pytest.mark.parametrize("alpha_s,alpha_i", [(0.1687, 0.22), (0.5, 0.6)])
    def test_recovers_simulated_configuration(self, mu, alpha_s, alpha_i):
        cfg = reference_setup(mu=mu, alpha_signal=alpha_s, alpha_idler=alpha_i)
        counts = simulate_counts(cfg)
        est = estimate_source(counts, cfg)
        assert est.mu == pytest.approx(mu, rel=1e-6)
        assert est.alpha_signal == pytest.approx(alpha_s, rel=1e-6)
        assert est.alpha_idler == pytest.approx(alpha_i, rel=1e-6)

    @given(
        law=st.sampled_from(["poissonian", "thermal", "multimode_thermal"]),
        modes=st.integers(1, 10),
        window=st.integers(1, 3),
        herald_dark=st.floats(0.0, 1e4),
        idler_dark=st.floats(0.0, 1e-3),
        model=st.sampled_from(["paralyzable", "nonparalyzable"]),
        mu=st.floats(5e-3, 0.6),
    )
    def test_round_trip_exact_for_every_setting(self, law, modes, window, herald_dark, idler_dark, model, mu):
        cfg = reference_setup(
            law=law,
            modes=modes if law == "multimode_thermal" else None,
            mu=mu,
            coincidence_window=window,
            herald=FreeRunningDetector(efficiency=0.547, dark_rate_cps=herald_dark),
            idler_detector=GatedDetector(
                efficiency=0.10, dark_prob_per_gate=idler_dark, afterpulse_prob=1.0e-3
            ),
            trigger_dead_time=DeadTimeSpec(tau_us=1.0, model=model),
        )
        est = estimate_source(simulate_counts(cfg), cfg)
        assert est.mu == pytest.approx(mu, rel=1e-9)
        assert est.alpha_signal == pytest.approx(cfg.alpha_signal, rel=1e-9)
        assert est.alpha_idler == pytest.approx(cfg.alpha_idler, rel=1e-9)

    @given(
        law=st.sampled_from(["poissonian", "thermal", "multimode_thermal"]),
        mu=st.floats(5e-3, 0.6),
        alpha_s=st.floats(0.05, 0.9),
        alpha_i=st.floats(0.05, 0.9),
        t_idler=st.floats(0.4, 1.0),
        window=st.integers(1, 3),
    )
    def test_round_trip_across_couplings(self, law, mu, alpha_s, alpha_i, t_idler, window):
        cfg = reference_setup(
            law=law,
            modes=3 if law == "multimode_thermal" else None,
            mu=mu,
            alpha_signal=alpha_s,
            alpha_idler=alpha_i,
            t_idler_optics=t_idler,
            coincidence_window=window,
        )
        est = estimate_source(simulate_counts(cfg), cfg)
        # the forward click probabilities carry ~1e-16 absolute error (a
        # truncated pmf sum), which is ~1e-8 of mu b_s b_i at the smallest
        # couplings drawn here
        assert est.mu == pytest.approx(mu, rel=1e-7)
        assert est.alpha_signal == pytest.approx(alpha_s, rel=1e-7)
        assert est.alpha_idler == pytest.approx(alpha_i, rel=1e-7)

    @pytest.mark.parametrize("factor", [0.5, 2.0, 10.0])
    def test_scale_invariance(self, factor):
        base = estimate_source(reference_counts(), reference_setup())
        scaled = estimate_source(
            reference_counts(scale=factor),
            reference_setup(
                rep_rate_hz=8.2e7 * factor,
                herald=FreeRunningDetector(efficiency=0.547, dark_rate_cps=90.0 * factor),
            ),
        )
        assert scaled.mu == pytest.approx(base.mu, rel=1e-9)
        assert scaled.alpha_signal == pytest.approx(base.alpha_signal, rel=1e-9)
        assert scaled.alpha_idler == pytest.approx(base.alpha_idler, rel=1e-9)


class TestInfeasibleCounts:
    def test_signal_below_dark_floor(self):
        counts = CountRates(10.0, 285.0, 3053.0, 2.16e5, 2.05e5, 3053.0 / 2.16e5)
        with pytest.raises(InfeasibleCountsError, match="dark floor"):
            estimate_source(counts, reference_setup())

    def test_idler_below_dark_floor(self):
        counts = CountRates(2.9e5, 10.0, 3053.0, 2.16e5, 2.05e5, 3053.0 / 2.16e5)
        with pytest.raises(InfeasibleCountsError, match="dark floor"):
            estimate_source(counts, reference_setup())

    def test_excess_coincidences(self):
        # conditional detection would exceed the idler singles budget
        counts = CountRates(2.9e5, 285.0, 2.1e5, 2.16e5, 2.05e5, 2.1e5 / 2.16e5)
        with pytest.raises(InfeasibleCountsError):
            estimate_source(counts, reference_setup())

    def test_coupling_above_unity(self):
        # signal singles far above what unit coupling could deliver at the
        # pair number implied by the other observables
        counts = CountRates(5.0e6, 285.0, 3053.0, 2.16e5, 2.05e5, 3053.0 / 2.16e5)
        with pytest.raises(InfeasibleCountsError, match="alpha"):
            estimate_source(counts, reference_setup())

    @pytest.mark.parametrize(
        "field,override",
        [
            ("t_signal_optics", {"t_signal_optics": 0.0}),
            (
                "herald.efficiency",
                {"herald": FreeRunningDetector(efficiency=0.0, dark_rate_cps=90.0)},
            ),
            ("t_idler_optics", {"t_idler_optics": 0.0}),
            ("t_delay_fiber", {"t_delay_fiber": 0.0}),
            (
                "idler_detector.efficiency",
                {"idler_detector": GatedDetector(efficiency=0.0, dark_prob_per_gate=2.5e-4)},
            ),
        ],
    )
    def test_zero_calibration_is_a_named_input_error(self, field, override):
        with pytest.raises(ValidationError, match=f"calibrated {field} is 0"):
            estimate_source(reference_counts(), reference_setup(**override))

    def test_zero_gate_rate_rejected(self):
        counts = CountRates(2.9e5, 285.0, 3053.0, 2.16e5, 0.0, 3053.0 / 2.16e5)
        with pytest.raises(EstimationError, match="a positive gate rate is required"):
            estimate_source(counts, reference_setup())

    def test_idler_click_probability_of_one_rejected(self):
        # 2.1e5 idler clicks at 2.05e5 gates: 1.023 per gate once afterpulsing is divided out
        counts = CountRates(2.9e5, 2.1e5, 3053.0, 2.16e5, 2.05e5, 3053.0 / 2.16e5)
        with pytest.raises(InfeasibleCountsError, match=r"idler singles: click probability 1\.023e\+00 must be < 1"):
            estimate_source(counts, reference_setup())

    def test_a_refused_inferred_mean_names_the_counts(self):
        # the counts imply mu ~ 552, a poissonian law the pmf cuts at 64 pairs; its
        # heralded P(n) was read from a head holding about 1e-153 of the law
        counts = CountRates(2.0e7, 20000.0, 100.0, 2.16e5, 2.05e5, 100.0 / 2.16e5)
        with pytest.raises(ValidationError, match=r"the counts imply a mean pair number the model refuses: "
                           r"the poissonian pmf at mean 551\.\d+ is cut at MAX_PAIRS = 64 pairs") as info:
            estimate_source(counts, reference_setup())
        assert info.value.field == ("signal_singles", "idler_singles", "coincidences")

    def test_zero_rates_rejected(self):
        counts = CountRates(0.0, 285.0, 3053.0, 2.16e5, 2.05e5, 0.0)
        with pytest.raises(EstimationError):
            estimate_source(counts, reference_setup())


class TestEquivalentWcp:
    def test_reference_root(self):
        cmp = equivalent_wcp(0.1871, p2_source=2.4e-3)
        assert cmp.mu_coherent * math.exp(-cmp.mu_coherent) == pytest.approx(0.1871, abs=1e-9)
        assert cmp.mu_coherent == pytest.approx(0.23718, abs=1e-4)
        assert cmp.mu_coherent == pytest.approx(0.2375, abs=1e-3)
        assert cmp.p2_coherent == pytest.approx(0.0221883, rel=1e-4)
        assert cmp.suppression_ratio == pytest.approx(9.245, abs=0.01)
        assert 8.3 <= cmp.suppression_ratio <= 10.3

    def test_without_source_p2(self):
        cmp = equivalent_wcp(0.1871)
        assert isinstance(cmp, WcpComparison)
        assert cmp.suppression_ratio is None

    @pytest.mark.parametrize("p1", [1e-4, 0.01, 0.1, 0.2, 0.3, 0.36])
    def test_smaller_root_selected(self, p1):
        cmp = equivalent_wcp(p1)
        assert cmp.mu_coherent < 1.0
        assert cmp.mu_coherent * math.exp(-cmp.mu_coherent) == pytest.approx(p1, abs=1e-9)

    def test_small_p1_limit(self):
        p1, p2_source = 1e-6, 2.4e-3
        cmp = equivalent_wcp(p1, p2_source=p2_source)
        assert cmp.mu_coherent == pytest.approx(p1, rel=1e-5)
        assert cmp.suppression_ratio == pytest.approx(p1**2 / (2.0 * p2_source), rel=1e-5)

    @pytest.mark.parametrize("p1", [1e-12, 1e-9, 1e-6, 1e-3, 0.3678, math.exp(-1.0) - 1e-9])
    def test_root_accurate_to_rounding(self, p1):
        mu = equivalent_wcp(p1).mu_coherent
        assert p1 <= mu < 1.0
        assert mu * math.exp(-mu) == pytest.approx(p1, rel=1e-14, abs=0.0)

    def test_maximum_p1(self):
        assert equivalent_wcp(math.exp(-1.0)).mu_coherent == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            equivalent_wcp(0.0)
        with pytest.raises(EstimationError):
            equivalent_wcp(0.5)
        with pytest.raises(DomainError):
            equivalent_wcp(0.1, p2_source=0.0)

    def test_nan_rejected(self):
        # "<= 0" is false for NaN: mu_coherent and the suppression ratio came out NaN
        with pytest.raises(DomainError, match=r"P\(1\) must be positive, got nan"):
            equivalent_wcp(math.nan)
        with pytest.raises(DomainError, match="p2_source must be positive, got nan"):
            equivalent_wcp(0.2, p2_source=math.nan)
