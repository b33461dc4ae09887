import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spdcherald.detectors import (
    DEAD_TIME_MODELS,
    MC_BLOCK,
    WALK_CHUNK,
    DeadTimeSpec,
    FreeRunningDetector,
    GatedDetector,
    dead_time_throughput,
    dead_time_window,
    nonparalyzable_walk,
    paralyzable_triggers,
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
    @pytest.mark.parametrize("model", ["paralyzable", "nonparalyzable"])
    @pytest.mark.parametrize("rate", [0.0, 5e-324, 2.9e5, 1.7e308])
    def test_zero_tau_identity(self, model, rate):
        # no early return: R * exp(-0.0) and R / (1 + 0.0) are exactly R
        assert dead_time_throughput(rate, DeadTimeSpec(0.0, model)) == rate

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

    def test_window_is_clamped_to_the_train(self):
        assert dead_time_window(DeadTimeSpec(1.0), 8.2e7, 10**6) == 82
        assert dead_time_window(DeadTimeSpec(1e20), 8.2e7, 10**5) == 10**5
        assert dead_time_window(DeadTimeSpec(1.7e308), 8.2e7, 10**5) == 10**5  # tau * rep is inf

    @pytest.mark.parametrize("model", DEAD_TIME_MODELS)
    def test_dead_time_longer_than_the_run_keeps_the_first_click(self, model):
        # a window of 8.2e21 pulses, past int64 once added to a pulse index;
        # nothing blocks the first click
        n, rep = 100_000, 8.2e7
        rate = simulate_dead_time(1e6, DeadTimeSpec(1e20, model), rep, n, seed=1)
        assert rate == 1 / (n / rep)

    def test_nonparalyzable_train_past_the_hypergeometric_limit(self):
        # numpy's hypergeometric takes fewer than 1e9 items, so 2**31 pulses
        # are walked in chunks that carry the window from one to the next
        n, rep, rate = 2**31, 8.2e7, 2.9e5
        assert WALK_CHUNK < 1e9 < n
        mc = simulate_dead_time(rate, DeadTimeSpec(1.0, "nonparalyzable"), rep, n, seed=12)
        # renewal gaps of W + Geometric(p): p / (1 + pW) per pulse
        p, w = rate / rep, 82
        gap = w + 1.0 / p
        sigma = math.sqrt(n * (1.0 - p) / p**2 / gap**3)
        assert abs(mc * n / rep - n / gap) <= 5.0 * sigma

    @pytest.mark.parametrize("p,expected", [(0.0, 0), (5e-324, 0), (1.0, 1)])
    def test_paralyzable_edge_probabilities(self, p, expected):
        # at p = 1 every click restarts the window, so only the first triggers;
        # the train spans several blocks, which carry the window across
        n, rep = 3 * MC_BLOCK + 5, 1.0
        rate = simulate_dead_time(p * rep, DeadTimeSpec(3e6, "paralyzable"), rep, n, seed=4)
        assert rate == expected / (n / rep)

    def test_validation(self):
        with pytest.raises(ValidationError):
            DeadTimeSpec(tau_us=-1.0)
        with pytest.raises(ValidationError):
            DeadTimeSpec(model="other")
        with pytest.raises(DomainError):
            dead_time_throughput(-1.0, DeadTimeSpec())

    @pytest.mark.parametrize("model", DEAD_TIME_MODELS)
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0])
    def test_throughput_of_a_rate_outside_the_finite_non_negatives(self, rate, model):
        # NaN failed "rate < 0" and came back as a NaN throughput
        with pytest.raises(DomainError, match=f"input rate must be finite and >= 0, got {rate}") as info:
            dead_time_throughput(rate, DeadTimeSpec(1.0, model))
        assert info.value.field == "input_rate"


def _traced_peak(fn):
    """``fn()`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestParalyzableMemory:
    """The paralyzable oracle walks the train block by block, so its memory
    is per block, not per click of the train."""

    def test_dense_train_stays_within_a_few_blocks(self):
        # 2**24 pulses at p = 0.3 are 5e6 clicks, 40 MiB of positions at once
        rep = 8.2e7
        _, peak = _traced_peak(
            lambda: simulate_dead_time(0.3 * rep, DeadTimeSpec(1.0, "paralyzable"), rep, 1 << 24, seed=3)
        )
        assert peak < 16 * 2**20

    def test_long_train_at_the_reference_rate(self):
        n, rep, w = 2**31, 8.2e7, 82
        p = 3.54e-3
        rate, peak = _traced_peak(lambda: simulate_dead_time(p * rep, DeadTimeSpec(1.0, "paralyzable"), rep, n, seed=6))
        assert peak < 4 * 2**20
        # a pulse triggers with q = p (1 - p)^W; two triggers within W pulses
        # exclude each other (covariance -q^2) and farther ones are independent
        q = p * (1.0 - p) ** w
        sigma = math.sqrt(n * q * (1.0 - (2 * w + 1) * q))
        assert abs(rate * n / rep - n * q) <= 5.0 * sigma


class TestNonparalyzableWalk:
    @pytest.mark.parametrize(
        "last,expected",
        [
            # every pulse clicks; the triggers are 0, 5, 10 and 15
            (-5, (20, 4, 15)),
            # a trigger two pulses before blocks the first three
            (-2, (20, 4, 18)),
        ],
    )
    def test_hand_worked_train(self, last, expected):
        rng = np.random.Generator(np.random.Philox(key=1))
        assert nonparalyzable_walk(rng, 1.0, 20, 4, last) == expected

    def test_zero_window_and_empty_train(self):
        rng = np.random.Generator(np.random.Philox(key=1))
        assert nonparalyzable_walk(rng, 1.0, 20, 0, -1) == (20, 20, 19)
        assert nonparalyzable_walk(rng, 0.5, 0, 4, -3) == (0, 0, -3)
        assert nonparalyzable_walk(rng, 0.0, 20, 4, -5) == (0, 0, -5)

    @pytest.mark.parametrize("p,window", [(0.3, 3), (0.05, 82), (0.9, 7)])
    def test_walk_matches_the_per_click_rule(self, p, window):
        # explicit Bernoulli trains through the per-click rule, against the
        # walk over the whole train and over it in 7 blocks, on 300 seeds
        size, seeds = 1000, 300
        blocks = np.diff(np.linspace(0, size, 8).astype(int))
        rule, whole, parts = (np.zeros((seeds, 2)) for _ in range(3))
        for seed in range(seeds):
            rng = np.random.Generator(np.random.Philox(key=seed))
            clicks = np.flatnonzero(rng.random(size) < p)
            rule[seed] = clicks.size, _per_click_rule(clicks, window, -window - 1)[0].sum()
            whole[seed] = nonparalyzable_walk(rng, p, size, window, -window - 1)[:2]
            last = -window - 1
            for block in blocks:
                n_clicks, n_trig, last = nonparalyzable_walk(rng, p, int(block), window, last)
                parts[seed] += n_clicks, n_trig
                last -= int(block)
        for walked in (whole, parts):
            z = (walked.mean(axis=0) - rule.mean(axis=0)) / np.sqrt((walked.var(axis=0) + rule.var(axis=0)) / seeds)
            assert np.all(np.abs(z) <= 5.0), z
        assert abs(whole[:, 0].mean() - p * size) <= 5.0 * math.sqrt(p * (1.0 - p) * size / seeds)


def _per_click_rule(clicks, window, last, model="nonparalyzable"):
    """The per-click rule of a dead-time stage: a click triggers when the
    last trigger (nonparalyzable) or the last click (paralyzable) lies more
    than ``window`` pulses before it.  Returns the triggers and that last
    trigger or click."""
    keep = np.zeros(clicks.size, dtype=bool)
    for j, idx in enumerate(clicks.tolist()):
        keep[j] = idx - last > window
        if keep[j] or model == "paralyzable":
            last = idx
    return keep, last


def _exact_law(p, size, window, carry, model):
    """The joint law of clicks, triggers and the window carried out, over
    every Bernoulli(``p``) train of ``size`` pulses through the per-click
    rule of ``model``, with ``carry`` pulses of a window carried in."""
    law = Counter()
    for train in itertools.product((0, 1), repeat=size):
        clicks = np.flatnonzero(train)
        keep, last = _per_click_rule(clicks, window, carry - window - 1, model)
        cell = clicks.size, int(keep.sum()), max(last + window + 1 - size, 0)
        law[cell] += p**clicks.size * (1.0 - p) ** (size - clicks.size)
    return law


def _trigger_stage(rng, p, size, window, last, model):
    """One block through the trigger stage of ``model``, as the Monte Carlo
    draws it: (clicks, triggers, last)."""
    if model == "nonparalyzable":
        return nonparalyzable_walk(rng, p, size, window, last)
    clicks = int(rng.binomial(size, p))
    return (clicks, *paralyzable_triggers(rng, clicks, size, window, last))


class TestBinomialBridge:
    @pytest.mark.parametrize("model", DEAD_TIME_MODELS)
    @pytest.mark.parametrize("window", [0, 1, 3])
    def test_joint_law_of_every_short_train(self, window, model):
        # the carried window is absent (0), partial, the whole block or
        # longer than it; 4000 draws per case against the enumerated law
        p, draws = 0.35, 4000
        rng = np.random.Generator(np.random.Philox(key=window))
        for size, carry in itertools.product((1, 2, 3, 4, 7, 10), range(window + 1)):
            law = _exact_law(p, size, window, carry, model)
            seen = Counter()
            for _ in range(draws):
                clicks, triggers, last = _trigger_stage(rng, p, size, window, carry - window - 1, model)
                seen[clicks, triggers, max(last + window + 1 - size, 0)] += 1
            assert set(seen) <= set(law), (size, carry, set(seen) - set(law))
            for cell, prob in law.items():
                z = (seen[cell] - draws * prob) / (math.sqrt(draws * prob * (1.0 - prob)) or 1.0)
                assert abs(z) <= 5.0, (size, carry, cell, z)

    @given(
        size=st.integers(0, 1 << 22),
        window=st.integers(0, 1 << 22),
        carry=st.integers(0, 1 << 22),
    )
    def test_every_pulse_clicking(self, size, window, carry):
        # at p = 1 the triggers are every (W + 1)-th live pulse from the first
        carry = min(carry, window)
        rng = np.random.Generator(np.random.Philox(key=1))
        clicks, triggers, last = nonparalyzable_walk(rng, 1.0, size, window, carry - window - 1)
        live = size - min(carry, size)
        assert clicks == size
        assert triggers == -(-live // (window + 1))
        if triggers:
            assert last == size - live + (triggers - 1) * (window + 1)
            assert max(last + window + 1 - size, 0) == triggers * (window + 1) - live
        else:
            assert last == carry - window - 1


class TestSimulateDeadTimeValidation:
    @pytest.mark.parametrize("seed", [-1, 2**128, None])
    def test_invalid_seed(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            simulate_dead_time(2.9e5, DeadTimeSpec(), 8.2e7, 1000, seed=seed)

    @pytest.mark.parametrize(
        "pulses,seed,field", [(1000.7, 1, "n_pulses"), (math.inf, 1, "n_pulses"), (1000, 1.5, "seed")]
    )
    def test_non_integral_run_values(self, pulses, seed, field):
        with pytest.raises(ValidationError, match=f"{field} must be an integer") as info:
            simulate_dead_time(2.9e5, DeadTimeSpec(), 8.2e7, pulses, seed=seed)
        assert info.value.field == field

    def test_numpy_integer_run_values(self):
        rate = simulate_dead_time(2.9e5, DeadTimeSpec(), 8.2e7, np.int64(100_000), seed=np.int64(3))
        assert rate == simulate_dead_time(2.9e5, DeadTimeSpec(), 8.2e7, 100_000, seed=3)

    @pytest.mark.parametrize("model", DEAD_TIME_MODELS)
    @pytest.mark.parametrize("rep", [math.nan, math.inf, 0.0, -8.2e7])
    def test_invalid_rep_rate(self, rep, model):
        with pytest.raises(ValidationError, match="rep_rate_hz") as info:
            simulate_dead_time(2.9e5, DeadTimeSpec(1.0, model), rep, 1000, seed=1)
        assert info.value.field == "rep_rate_hz"

    def test_negative_rate(self):
        with pytest.raises(DomainError, match="input rate must be >= 0, got -1.0") as info:
            simulate_dead_time(-1.0, DeadTimeSpec(), 8.2e7, 1000, seed=1)
        assert info.value.field == "input_rate"

    def test_no_pulses(self):
        with pytest.raises(ValidationError, match="n_pulses must be >= 1") as info:
            simulate_dead_time(2.9e5, DeadTimeSpec(), 8.2e7, 0, seed=1)
        assert info.value.field == "n_pulses"

    def test_rate_above_the_rep_rate(self):
        with pytest.raises(DomainError, match="input rate exceeds one click per pulse") as info:
            simulate_dead_time(8.3e7, DeadTimeSpec(), 8.2e7, 1000, seed=1)
        assert info.value.field == ("input_rate", "rep_rate_hz")

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate(self, rate):
        with pytest.raises(ValidationError, match="finite"):
            simulate_dead_time(rate, DeadTimeSpec(), 8.2e7, 1000, seed=1)
