import math

import numpy as np
import pytest

from spdcherald.detectors import (
    ClickDetectorSpec,
    DeadTimeSpec,
    afterpulse_inflation,
    click_probability,
    NO_CLICK,
    dead_time_filter,
    dead_time_throughput,
    simulate_dead_time,
)
from spdcherald.errors import DomainError, ValidationError
from spdcherald.pair_source import PairNumberDistribution


def gated(eta=0.10, dark=2.5e-4, afterpulse=0.0):
    return ClickDetectorSpec(
        efficiency=eta, mode="gated", dark_prob_per_gate=dark, afterpulse_prob=afterpulse
    )


class TestSpecValidation:
    def test_gated_needs_per_gate_dark(self):
        with pytest.raises(ValidationError):
            ClickDetectorSpec(efficiency=0.5, mode="gated", dark_rate_cps=90.0)

    def test_free_running_needs_rate(self):
        with pytest.raises(ValidationError):
            ClickDetectorSpec(efficiency=0.5, mode="free_running", dark_prob_per_gate=1e-4)

    def test_both_darks_rejected(self):
        with pytest.raises(ValidationError):
            ClickDetectorSpec(
                efficiency=0.5, mode="gated", dark_prob_per_gate=1e-4, dark_rate_cps=90.0
            )

    def test_efficiency_range(self):
        with pytest.raises(ValidationError):
            ClickDetectorSpec(efficiency=1.2, mode="gated", dark_prob_per_gate=0.0)

    def test_free_running_dark_needs_window(self):
        spec = ClickDetectorSpec(efficiency=0.547, mode="free_running", dark_rate_cps=90.0)
        with pytest.raises(ValidationError):
            spec.dark_probability()
        per_pulse = spec.dark_probability(window_s=1.0 / 8.2e7)
        assert per_pulse == pytest.approx(90.0 / 8.2e7, rel=1e-6)


class TestClickProbability:
    def test_vacuum_gives_dark_only(self):
        vacuum = np.array([1.0])
        assert click_probability(vacuum, gated()) == pytest.approx(2.5e-4, rel=1e-12)

    def test_single_photon_unit_efficiency(self):
        one = np.array([0.0, 1.0])
        spec = gated(eta=1.0, dark=0.0)
        assert click_probability(one, spec) == 1.0

    def test_gated_idler_reference_rate(self):
        # delivered mean 1.14e-3 with efficiency already folded in upstream
        pmf = PairNumberDistribution("poissonian", 1.14e-3).pmf_vector()
        p = click_probability(pmf, gated(eta=1.0))
        expected = 1.0 - (1.0 - 2.5e-4) * math.exp(-1.14e-3)
        assert p == pytest.approx(expected, rel=1e-12)
        assert p == pytest.approx(1.39e-3, rel=5e-3)
        assert p * 205e3 == pytest.approx(285.0, rel=0.01)

    def test_monotone_in_efficiency_dark_and_mean(self):
        pmf = PairNumberDistribution("poissonian", 0.05).pmf_vector()
        etas = [click_probability(pmf, gated(eta=e)) for e in (0.05, 0.1, 0.3, 0.9)]
        assert sorted(etas) == etas
        darks = [click_probability(pmf, gated(dark=d)) for d in (0.0, 1e-4, 1e-3, 1e-2)]
        assert sorted(darks) == darks
        means = [
            click_probability(PairNumberDistribution("poissonian", m).pmf_vector(), gated())
            for m in (0.001, 0.01, 0.1, 0.2)
        ]
        assert sorted(means) == means

    def test_unnormalized_pmf_rejected(self):
        with pytest.raises(ValidationError):
            click_probability(np.array([0.5, 0.4]), gated())

    def test_afterpulse_inflates(self):
        pmf = PairNumberDistribution("poissonian", 0.01).pmf_vector()
        base = click_probability(pmf, gated())
        inflated = click_probability(pmf, gated(afterpulse=1e-3))
        assert inflated == pytest.approx(base * 1.001, rel=1e-12)


class TestDeadTime:
    def test_zero_tau_identity(self):
        dt = DeadTimeSpec(tau_us=0.0)
        assert dead_time_throughput(2.9e5, dt) == 2.9e5

    def test_paralyzable_reference(self):
        out = dead_time_throughput(2.9e5, DeadTimeSpec(tau_us=1.0, model="paralyzable"))
        assert out == pytest.approx(2.9e5 * math.exp(-0.29), rel=1e-12)
        assert out == pytest.approx(2.16e5, rel=0.02)

    def test_nonparalyzable_reference(self):
        out = dead_time_throughput(2.9e5, DeadTimeSpec(tau_us=1.0, model="nonparalyzable"))
        assert out == pytest.approx(2.9e5 / 1.29, rel=1e-12)
        assert out == pytest.approx(2.248e5, rel=1e-3)

    @pytest.mark.parametrize("rate", [1e3, 1e5, 2.9e5, 5e5])
    def test_ordering(self, rate):
        par = dead_time_throughput(rate, DeadTimeSpec(1.0, "paralyzable"))
        non = dead_time_throughput(rate, DeadTimeSpec(1.0, "nonparalyzable"))
        assert par <= non <= rate

    def test_limits_as_tau_vanishes(self):
        rate = 3.3e5
        for model in ("paralyzable", "nonparalyzable"):
            seq = [dead_time_throughput(rate, DeadTimeSpec(tau, model)) for tau in (1.0, 0.1, 0.01, 0.001)]
            assert sorted(seq) == seq
            assert seq[-1] == pytest.approx(rate, rel=1e-3)

    def test_monte_carlo_matches_closed_form(self):
        # discrete pulse-train oracle vs the continuous formula
        n = 4_000_000
        rep = 8.2e7
        for model in ("paralyzable", "nonparalyzable"):
            dt = DeadTimeSpec(1.0, model)
            mc = simulate_dead_time(2.9e5, dt, rep, n, seed=11)
            closed = dead_time_throughput(2.9e5, dt)
            duration = n / rep
            sigma = math.sqrt(closed * duration) / duration
            assert abs(mc - closed) < 3.0 * sigma

    def test_monte_carlo_trigger_rate_band(self):
        # per-pulse click probability 3.54e-3 at 82 MHz through 1 us
        mc = simulate_dead_time(
            3.54e-3 * 8.2e7, DeadTimeSpec(1.0, "paralyzable"), 8.2e7, 4_000_000, seed=5
        )
        assert mc == pytest.approx(2.16e5, rel=0.02)

    @pytest.mark.parametrize("rate_tau", [0.1, 0.3, 0.5])
    def test_monte_carlo_converges_below_half_occupancy(self, rate_tau):
        rate = rate_tau / 1e-6
        dt = DeadTimeSpec(1.0, "paralyzable")
        n = 2_000_000
        rep = 8.2e7
        mc = simulate_dead_time(rate, dt, rep, n, seed=2)
        closed = dead_time_throughput(rate, dt)
        duration = n / rep
        sigma = math.sqrt(closed * duration) / duration
        assert abs(mc - closed) < 3.0 * sigma

    def test_validation(self):
        with pytest.raises(ValidationError):
            DeadTimeSpec(tau_us=-1.0)
        with pytest.raises(ValidationError):
            DeadTimeSpec(model="other")
        with pytest.raises(DomainError):
            dead_time_throughput(-1.0, DeadTimeSpec())


class TestAfterpulseInflation:
    def test_geometric_series(self):
        assert afterpulse_inflation(1000.0, 0.001) == pytest.approx(1001.0, abs=0.1)

    def test_zero_identity(self):
        assert afterpulse_inflation(123.4, 0.0) == 123.4

    def test_half(self):
        assert afterpulse_inflation(1000.0, 0.5) == 2000.0

    def test_domain(self):
        with pytest.raises(DomainError):
            afterpulse_inflation(1000.0, 1.0)
        with pytest.raises(DomainError):
            afterpulse_inflation(-1.0, 0.1)


class TestDeadTimeFilter:
    CLICKS = np.array([0, 3, 5, 10, 12, 20])

    @pytest.mark.parametrize(
        "model,expected",
        [
            # every click restarts the dead window
            ("paralyzable", [True, False, False, True, False, True]),
            # only accepted clicks restart it
            ("nonparalyzable", [True, False, True, True, False, True]),
        ],
    )
    def test_hand_worked_stream(self, model, expected):
        keep, last = dead_time_filter(self.CLICKS, 4, model, NO_CLICK)
        assert keep.tolist() == expected
        assert last == 20

    @pytest.mark.parametrize("model", ["paralyzable", "nonparalyzable"])
    def test_zero_window_and_empty_stream(self, model):
        keep, last = dead_time_filter(self.CLICKS, 0, model, NO_CLICK)
        assert keep.all() and last == 20
        keep, last = dead_time_filter(self.CLICKS[:0], 4, model, 7)
        assert keep.size == 0 and last == 7

    @pytest.mark.parametrize("model", ["paralyzable", "nonparalyzable"])
    def test_blockwise_equals_whole_stream(self, model):
        rng = np.random.default_rng(1)
        clicks = np.sort(rng.choice(20_000, 3_000, replace=False))
        whole, _ = dead_time_filter(clicks, 9, model, NO_CLICK)
        parts, last = [], NO_CLICK
        for block in np.array_split(clicks, 11):
            keep, last = dead_time_filter(block, 9, model, last)
            parts.append(keep)
        assert np.array_equal(np.concatenate(parts), whole)
        assert 0 < whole.sum() < clicks.size
