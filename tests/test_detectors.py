import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spdcherald.detectors import (
    DeadTimeSpec,
    FreeRunningDetector,
    GatedDetector,
    bernoulli_positions,
    NO_CLICK,
    dead_time_filter,
    dead_time_throughput,
    simulate_dead_time,
)
from spdcherald.errors import DomainError, ValidationError


class TestSpecValidation:
    # each arm's type holds only the dark quantity its mode defines
    def test_gated_needs_per_gate_dark(self):
        with pytest.raises(TypeError):
            GatedDetector(efficiency=0.5, dark_rate_cps=90.0)

    def test_free_running_needs_rate(self):
        with pytest.raises(TypeError):
            FreeRunningDetector(efficiency=0.5, dark_prob_per_gate=1e-4)

    def test_both_darks_rejected(self):
        with pytest.raises(TypeError):
            GatedDetector(efficiency=0.5, dark_prob_per_gate=1e-4, dark_rate_cps=90.0)

    def test_efficiency_range(self):
        with pytest.raises(ValidationError):
            GatedDetector(efficiency=1.2, dark_prob_per_gate=0.0)
        with pytest.raises(ValidationError):
            FreeRunningDetector(efficiency=math.nan, dark_rate_cps=0.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: GatedDetector(efficiency=0.5, dark_prob_per_gate=1.5),
            lambda: GatedDetector(efficiency=0.5, dark_prob_per_gate=math.nan),
            lambda: GatedDetector(efficiency=0.5, dark_prob_per_gate=0.0, afterpulse_prob=1.0),
            lambda: FreeRunningDetector(efficiency=0.5, dark_rate_cps=-1.0),
        ],
        ids=["dark_above_1", "dark_nan", "afterpulse_1", "negative_rate"],
    )
    def test_dark_and_afterpulse_ranges(self, build):
        with pytest.raises(ValidationError):
            build()

    def test_free_running_dark_needs_window(self):
        spec = FreeRunningDetector(efficiency=0.547, dark_rate_cps=90.0)
        with pytest.raises(TypeError):
            spec.dark_probability()
        per_pulse = spec.dark_probability(1.0 / 8.2e7)
        assert per_pulse == pytest.approx(90.0 / 8.2e7, rel=1e-6)


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

    @settings(max_examples=400)
    @given(
        gaps=st.sampled_from([3, 40, 400]).flatmap(lambda most: st.lists(st.integers(1, most), max_size=300)),
        start=st.integers(0, 10**6),
        window=st.integers(0, 200),
        offset=st.one_of(st.none(), st.integers(1, 250)),
    )
    def test_nonparalyzable_matches_the_per_click_loop(self, gaps, start, window, offset):
        # empty, single-click, dense (gaps of 1-3) and sparse streams; the
        # blocking click before them is none or up to 250 pulses before the first
        clicks = start + np.cumsum(np.array(gaps, dtype=np.int64))
        last = NO_CLICK if offset is None else start + 1 - offset
        keep, after = dead_time_filter(clicks, window, "nonparalyzable", last)
        expected_keep, expected_after = _nonparalyzable_loop(clicks, window, last)
        assert keep.dtype == bool and np.array_equal(keep, expected_keep)
        assert after == expected_after and type(after) is int


def _nonparalyzable_loop(clicks, window, last):
    """The per-click loop ``dead_time_filter`` ran for a nonparalyzable stage
    before pointer doubling, kept verbatim as its oracle."""
    keep = np.zeros(clicks.size, dtype=bool)
    for j, idx in enumerate(clicks.tolist()):
        if idx - last > window:
            keep[j] = True
            last = idx
    return keep, last


class TestBernoulliPositions:
    def test_event_count_is_binomial(self):
        rng = np.random.Generator(np.random.Philox(key=3))
        size, p, reps = 400, 0.03, 4000
        draws = [bernoulli_positions(rng, p, size) for _ in range(reps)]
        for at in draws[:50]:
            assert at.dtype == np.int64
            assert np.all(np.diff(at) > 0) and (at.size == 0 or 0 <= at[0] <= at[-1] < size)
        counts = np.array([at.size for at in draws])
        mean, var = size * p, size * p * (1.0 - p)
        assert abs(counts.mean() - mean) < 5.0 * math.sqrt(var / reps)
        assert counts.var() / var == pytest.approx(1.0, abs=0.1)
        # every position is equally likely
        hits = np.bincount(np.concatenate(draws), minlength=size)
        assert abs(hits[: size // 2].sum() - hits[size // 2 :].sum()) < 5.0 * math.sqrt(hits.sum())

    @pytest.mark.parametrize("p", [0.0, 5e-324, 1e-300, 1e-20])
    def test_vanishing_probability_gives_no_event(self, p):
        # the gaps here are far beyond int64; capped, they must neither overflow nor loop
        rng = np.random.Generator(np.random.Philox(key=1))
        assert bernoulli_positions(rng, p, 1 << 20).size == 0

    def test_certain_event_at_every_position(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        assert np.array_equal(bernoulli_positions(rng, 1.0, 7), np.arange(7))
        assert bernoulli_positions(rng, 0.5, 0).size == 0


class TestSimulateDeadTimeValidation:
    @pytest.mark.parametrize("seed", [-1, 2**128, None])
    def test_invalid_seed(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            simulate_dead_time(2.9e5, DeadTimeSpec(), 8.2e7, 1000, seed=seed)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate(self, rate):
        with pytest.raises(ValidationError, match="finite"):
            simulate_dead_time(rate, DeadTimeSpec(), 8.2e7, 1000, seed=1)
