import math

import pytest
from hypothesis import given, strategies as st

from spdcherald.detectors import ClickDetectorSpec
from spdcherald.errors import DomainError, EstimationError, InfeasibleCountsError
from spdcherald.estimator import (
    KnownLosses,
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
        est = estimate_source(reference_counts(), KnownLosses())
        # frozen from the closed-form inversion oracle
        assert est.mu == pytest.approx(0.0822733, rel=1e-5)
        assert est.pair_rate == pytest.approx(6.7464e6, rel=1e-4)
        assert est.alpha_signal == pytest.approx(0.1688832, rel=1e-5)
        assert est.alpha_idler == pytest.approx(0.2216573, rel=1e-5)

    def test_reference_inversion_matches_published_values(self):
        est = estimate_source(reference_counts(), KnownLosses())
        assert est.mu == pytest.approx(0.0829, rel=0.05)
        assert est.pair_rate == pytest.approx(6.8e6, rel=0.05)
        assert est.alpha_idler == pytest.approx(0.220, rel=0.10)
        assert est.alpha_signal == pytest.approx(0.169, rel=0.10)

    def test_pair_rate_definition(self):
        est = estimate_source(reference_counts(), KnownLosses())
        assert est.pair_rate == pytest.approx(est.mu * 8.2e7, rel=1e-9)

    def test_heralded_closure(self):
        est = estimate_source(reference_counts(), KnownLosses())
        assert abs(est.heralded.p.sum() - 1.0) < 1e-9
        assert est.heralded.probability(1) == pytest.approx(0.19, abs=0.01)

    def test_dark_subtraction_toggle(self):
        on = estimate_source(reference_counts(), KnownLosses(), subtract_dark=True)
        off = estimate_source(reference_counts(), KnownLosses(), subtract_dark=False)
        assert off.mu != on.mu
        assert off.mu == pytest.approx(on.mu, rel=0.05)

    def test_refinement_is_stable(self):
        raw = estimate_source(reference_counts(), KnownLosses(), refine=False)
        refined = estimate_source(reference_counts(), KnownLosses(), refine=True)
        assert refined.mu == pytest.approx(raw.mu, rel=1e-9)
        assert refined.alpha_idler == pytest.approx(raw.alpha_idler, rel=1e-9)


class TestRoundTrip:
    @pytest.mark.parametrize("mu", [0.01, 0.05, 0.0829, 0.2])
    @pytest.mark.parametrize("alpha_s,alpha_i", [(0.1687, 0.22), (0.5, 0.6)])
    def test_recovers_simulated_configuration(self, mu, alpha_s, alpha_i):
        cfg = reference_setup(mu=mu, alpha_signal=alpha_s, alpha_idler=alpha_i)
        counts = simulate_counts(cfg)
        est = estimate_source(counts, KnownLosses.from_setup(cfg))
        assert est.mu == pytest.approx(mu, rel=1e-6)
        assert est.alpha_signal == pytest.approx(alpha_s, rel=1e-6)
        assert est.alpha_idler == pytest.approx(alpha_i, rel=1e-6)

    @given(
        mu=st.floats(5e-3, 0.2),
        alpha_s=st.floats(0.05, 0.9),
        alpha_i=st.floats(0.05, 0.9),
        t_idler=st.floats(0.4, 1.0),
    )
    def test_round_trip_within_one_percent(self, mu, alpha_s, alpha_i, t_idler):
        cfg = reference_setup(
            mu=mu, alpha_signal=alpha_s, alpha_idler=alpha_i, t_idler_optics=t_idler
        )
        est = estimate_source(simulate_counts(cfg), KnownLosses.from_setup(cfg))
        assert abs(est.mu / mu - 1.0) < 0.01
        assert abs(est.alpha_signal / alpha_s - 1.0) < 0.01
        assert abs(est.alpha_idler / alpha_i - 1.0) < 0.01

    @pytest.mark.parametrize("factor", [0.5, 2.0, 10.0])
    def test_scale_invariance(self, factor):
        base = estimate_source(reference_counts(), KnownLosses())
        scaled = estimate_source(
            reference_counts(scale=factor),
            KnownLosses(rep_rate_hz=8.2e7 * factor, dark_herald_rate=90.0 * factor),
        )
        assert scaled.mu == pytest.approx(base.mu, rel=1e-9)
        assert scaled.alpha_signal == pytest.approx(base.alpha_signal, rel=1e-9)
        assert scaled.alpha_idler == pytest.approx(base.alpha_idler, rel=1e-9)


class TestInfeasibleCounts:
    def test_signal_below_dark_floor(self):
        counts = CountRates(10.0, 285.0, 3053.0, 2.16e5, 2.05e5, 3053.0 / 2.16e5)
        with pytest.raises(InfeasibleCountsError, match="dark floor"):
            estimate_source(counts, KnownLosses())

    def test_idler_below_dark_floor(self):
        counts = CountRates(2.9e5, 10.0, 3053.0, 2.16e5, 2.05e5, 3053.0 / 2.16e5)
        with pytest.raises(InfeasibleCountsError, match="dark floor"):
            estimate_source(counts, KnownLosses())

    def test_excess_coincidences(self):
        # conditional detection would exceed the idler singles budget
        counts = CountRates(2.9e5, 285.0, 2.1e5, 2.16e5, 2.05e5, 2.1e5 / 2.16e5)
        with pytest.raises(InfeasibleCountsError):
            estimate_source(counts, KnownLosses())

    def test_coupling_above_unity(self):
        # signal singles far above what unit coupling could deliver at the
        # pair number implied by the other observables
        counts = CountRates(5.0e6, 285.0, 3053.0, 2.16e5, 2.05e5, 3053.0 / 2.16e5)
        with pytest.raises(InfeasibleCountsError, match="alpha"):
            estimate_source(counts, KnownLosses())

    def test_zero_rates_rejected(self):
        counts = CountRates(0.0, 285.0, 3053.0, 2.16e5, 2.05e5, 0.0)
        with pytest.raises(EstimationError):
            estimate_source(counts, KnownLosses())


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
