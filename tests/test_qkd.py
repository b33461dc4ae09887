import ast
import itertools
import json
import math
import sys
import warnings
from dataclasses import FrozenInstanceError, replace
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spdcherald import experiment, pair_source, qkd
from spdcherald.detectors import DEAD_TIME_MODELS, DeadTimeSpec
from spdcherald.errors import ValidationError
from spdcherald.experiment import (
    HeraldedStats,
    SetupConfig,
    heralded_photon_statistics,
    reference_setup,
    simulate_counts,
)
from spdcherald.pair_source import LAWS, REFERENCE_CALIBRATION_PER_MW, PairNumberDistribution
from spdcherald.qkd import (
    DISTANCE_CAP_KM,
    DISTANCE_RESOLUTION_KM,
    ChannelSpec,
    SecureDistance,
    TradeoffRow,
    expected_detection_probability,
    max_secure_distance,
    multiphoton_fraction,
    pump_sweep,
)

CHANNEL = ChannelSpec(loss_db_per_km=0.2, receiver_efficiency=0.10, receiver_dark_per_pulse=2.5e-4)


def published_stats():
    """The reference P(0), P(1), P(2) vector, renormalized."""
    p = np.array([0.8096, 0.1871, 2.4e-3])
    return HeraldedStats(p=p / p.sum())


def wcp_stats(mu):
    return HeraldedStats(p=PairNumberDistribution("poissonian", mu).pmf_vector())


class TestMultiphotonFraction:
    def test_published_stats(self):
        frac = multiphoton_fraction(published_stats())
        assert frac == pytest.approx(2.4e-3, rel=0.10)

    def test_pure_single_photon(self):
        assert multiphoton_fraction(HeraldedStats(p=np.array([0.0, 1.0]))) == 0.0

    def test_coherent_truncated_reference(self):
        # Poisson mu = 0.2375 truncated to two photons: the fraction is P(2)
        mu = 0.2375
        p0 = math.exp(-mu)
        p = np.array([p0, mu * p0, mu**2 * p0 / 2.0])
        frac = multiphoton_fraction(HeraldedStats(p=p / p.sum()))
        assert frac == pytest.approx(0.0222, abs=2e-4)

    def test_model_stats(self):
        stats = heralded_photon_statistics(reference_setup())
        assert multiphoton_fraction(stats) == pytest.approx(2.687e-3, rel=1e-3)


class TestMaxSecureDistance:
    def test_reference_distance(self):
        stats = heralded_photon_statistics(reference_setup())
        result = max_secure_distance(stats, CHANNEL)
        # frozen from the bisection oracle
        assert result.km == pytest.approx(42.91, abs=0.15)
        assert not result.capped and not result.insecure_at_zero

    def test_agrees_with_linear_scan(self):
        stats = heralded_photon_statistics(reference_setup())
        result = max_secure_distance(stats, CHANNEL)
        threshold = multiphoton_fraction(stats) + CHANNEL.receiver_dark_per_pulse
        grid = np.arange(0.0, 200.0, 0.05)
        secure = [
            L for L in grid if expected_detection_probability(stats, CHANNEL, L) >= threshold
        ]
        assert result.km == pytest.approx(secure[-1], abs=0.15)

    def test_no_multiphoton_no_dark_hits_cap(self):
        stats = HeraldedStats(p=np.array([0.8, 0.2]))
        channel = ChannelSpec(0.2, 0.10, 0.0)
        result = max_secure_distance(stats, channel)
        assert result.km == 500.0
        assert result.capped

    def test_insecure_at_zero_flagged(self):
        # a coherent source of the same single-photon yield fails immediately
        # at this receiver
        result = max_secure_distance(wcp_stats(0.23718), CHANNEL)
        assert result.km == 0.0
        assert result.insecure_at_zero

    def test_monotone_in_multiphoton_and_dark(self):
        stats = heralded_photon_statistics(reference_setup())
        base = max_secure_distance(stats, CHANNEL).km
        worse = np.array(stats.p, copy=True)
        worse[2] *= 4.0
        worse /= worse.sum()
        assert max_secure_distance(HeraldedStats(p=worse), CHANNEL).km <= base
        darker = ChannelSpec(0.2, 0.10, 2.5e-3)
        assert max_secure_distance(stats, darker).km <= base
        better_rx = ChannelSpec(0.2, 0.50, 2.5e-4)
        assert max_secure_distance(stats, better_rx).km >= base

    def test_zero_loss_channel(self):
        stats = heralded_photon_statistics(reference_setup())
        result = max_secure_distance(stats, ChannelSpec(0.0, 0.10, 2.5e-4))
        assert result.capped  # lossless channel stays secure up to the cap

    @given(
        loss=st.floats(0.0, 0.4),
        eta_rx=st.floats(0.05, 0.95),
        dark=st.floats(0.0, 1e-3),
    )
    def test_heralded_beats_equivalent_wcp(self, loss, eta_rx, dark):
        heralded = heralded_photon_statistics(reference_setup())
        channel = ChannelSpec(loss, eta_rx, dark)
        wcp = wcp_stats(0.23718)  # same P(1) as the heralded source
        assert (
            max_secure_distance(heralded, channel).km
            >= max_secure_distance(wcp, channel).km
        )

    def test_channel_validation(self):
        with pytest.raises(ValidationError):
            ChannelSpec(-0.1, 0.1, 0.0)
        with pytest.raises(ValidationError):
            ChannelSpec(0.2, 1.5, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field", ["loss_db_per_km", "receiver_efficiency", "receiver_dark_per_pulse"]
    )
    def test_channel_non_finite_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            replace(CHANNEL, **{field: value})


    def test_independent_of_receiver_dark(self):
        # the dark probability is added to both sides of the bound
        stats = heralded_photon_statistics(reference_setup())
        distances = {
            max_secure_distance(stats, ChannelSpec(0.2, 0.10, dark)).km for dark in (0.0, 2.5e-4, 0.9)
        }
        assert len(distances) == 1


def numpy_fraction(stats: HeraldedStats) -> float:
    """The multiphoton fraction as the earlier numpy qkd module summed it."""
    return float(stats.p[2:].sum()) if stats.p.size > 2 else 0.0


def numpy_detection(stats: HeraldedStats, channel: ChannelSpec, distance_km: float) -> float:
    """The detection probability as the earlier numpy qkd module evaluated it."""
    eta = channel.transmission(distance_km) * channel.receiver_efficiency
    n = np.arange(stats.p.size)
    return float((stats.p * (1.0 - (1.0 - eta) ** n)).sum()) + channel.receiver_dark_per_pulse


def numpy_secure_distance(stats: HeraldedStats, channel: ChannelSpec) -> tuple[float, bool, bool]:
    """(km, capped, insecure at zero) by the same bisection on the numpy
    predicate: the reference for the Python-float one."""

    def secure(distance_km):
        dark = channel.receiver_dark_per_pulse
        return numpy_detection(stats, channel, distance_km) >= numpy_fraction(stats) + dark

    if not secure(0.0):
        return 0.0, False, True
    if secure(DISTANCE_CAP_KM):
        return DISTANCE_CAP_KM, True, False
    lo, hi = 0.0, DISTANCE_CAP_KM
    while hi - lo > DISTANCE_RESOLUTION_KM:
        mid = 0.5 * (lo + hi)
        if secure(mid):
            lo = mid
        else:
            hi = mid
    return lo, False, False


def grid_stats(law: str, mu: float) -> HeraldedStats:
    return heralded_photon_statistics(reference_setup(law=law, mu=mu, modes=3 if law == "multimode_thermal" else None))


GRID_LAWS_AND_MU = list(itertools.product(LAWS, (0.01, 0.1, 0.6)))
# the reference channel, zero loss (capped), zero dark, and a weak receiver
# (insecure at zero above the lowest mu)
GRID_CHANNELS = [CHANNEL, ChannelSpec(0.0, 0.10, 2.5e-4), ChannelSpec(0.2, 0.10, 0.0), ChannelSpec(0.2, 0.002, 2.5e-4)]
GRID_STEP_KM = DISTANCE_CAP_KM / 2**13


class TestSecureDistanceGrid:
    """The bisection's 13 halvings of [0, cap] land on a grid of cap / 2**13
    km; the distance is the last grid point where the predicate holds."""

    @pytest.mark.parametrize("law,mu", GRID_LAWS_AND_MU)
    def test_last_secure_grid_point(self, law, mu):
        stats = grid_stats(law, mu)
        for channel in GRID_CHANNELS:
            result = max_secure_distance(stats, channel)
            assert (result.km, result.capped, result.insecure_at_zero) == numpy_secure_distance(stats, channel)
            if result.capped or result.insecure_at_zero:
                continue
            threshold = multiphoton_fraction(stats) + channel.receiver_dark_per_pulse
            k = result.km / GRID_STEP_KM
            assert k == int(k) and 0 <= k < 2**13
            assert expected_detection_probability(stats, channel, result.km) >= threshold
            assert expected_detection_probability(stats, channel, result.km + GRID_STEP_KM) < threshold

    def test_cases_cover_every_outcome(self):
        outcomes = set()
        for law, mu in GRID_LAWS_AND_MU:
            for channel in GRID_CHANNELS:
                result = max_secure_distance(grid_stats(law, mu), channel)
                outcomes.add("capped" if result.capped else "insecure" if result.insecure_at_zero else "interior")
        assert outcomes == {"capped", "insecure", "interior"}

    def test_fraction_and_detection_match_numpy(self):
        stats = grid_stats("thermal", 0.6)
        assert multiphoton_fraction(stats) == pytest.approx(numpy_fraction(stats), rel=1e-14)
        for km in (0.0, 12.5, 100.0):
            assert expected_detection_probability(stats, CHANNEL, km) == pytest.approx(
                numpy_detection(stats, CHANNEL, km), rel=1e-14
            )

    def test_imports_no_numpy(self):
        import spdcherald.qkd as qkd_module

        tree = ast.parse(Path(qkd_module.__file__).read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
        assert not any(name.split(".")[0] == "numpy" for name in imported), imported


def bisected_secure_distance(stats: HeraldedStats, channel: ChannelSpec) -> SecureDistance:
    """The secure distance by 13 halvings of [0, cap] on the Python-float
    predicate, as qkd found it before the moment-guessed search: the reference
    that search must equal."""
    threshold = multiphoton_fraction(stats) + channel.receiver_dark_per_pulse

    def secure(distance_km):
        return expected_detection_probability(stats, channel, distance_km) >= threshold

    if not secure(0.0):
        return SecureDistance(0.0, insecure_at_zero=True)
    if secure(DISTANCE_CAP_KM):
        return SecureDistance(DISTANCE_CAP_KM, capped=True)
    lo, hi = 0.0, DISTANCE_CAP_KM
    while hi - lo > DISTANCE_RESOLUTION_KM:
        mid = 0.5 * (lo + hi)
        if secure(mid):
            lo = mid
        else:
            hi = mid
    return SecureDistance(lo)


# loss coefficients and receiver efficiencies the schema accepts, from a lossless
# or blind channel through subnormal and tiny values to the float limits
EXTREME_LOSSES = [0.0, 5e-324, 1e-300, 1e-12, 0.2, sys.float_info.max]
EXTREME_EFFICIENCIES = [0.0, 5e-324, 1e-300, 0.1, 1.0]
LAW_CUTS = {"poissonian": 19.8, "thermal": 1.43, "multimode_thermal": 1.43}  # accepted means (test_experiment)


@st.composite
def law_stats(draw):
    """Heralded P(n) of any law at a mean from 1e-5 to its cut, and any idler loss."""
    law = draw(st.sampled_from(sorted(LAW_CUTS)))
    mu = 1e-5 * (LAW_CUTS[law] / 1e-5) ** draw(st.floats(0.0, 1.0))
    modes = draw(st.integers(1, 400)) if law == "multimode_thermal" else None
    config = reference_setup(law=law, mu=mu, modes=modes, alpha_idler=draw(st.floats(1e-3, 1.0)))
    try:
        return heralded_photon_statistics(config)
    except ValidationError:  # a rare mean below the cut still refused for a rounding shortfall
        assume(False)


def vector_stats():
    """Arbitrary normalised P(n) vectors of 1 to 65 entries."""
    weights = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=pair_source.MAX_PAIRS + 1)
    return weights.filter(lambda w: sum(w) > 0.0).map(lambda w: HeraldedStats(p=np.array(w) / math.fsum(w)))


def any_channel():
    return st.builds(
        ChannelSpec,
        loss_db_per_km=st.one_of(st.sampled_from(EXTREME_LOSSES), st.floats(0.0, 2.0)),
        receiver_efficiency=st.one_of(st.sampled_from(EXTREME_EFFICIENCIES), st.floats(0.0, 1.0)),
        receiver_dark_per_pulse=st.sampled_from([0.0, 2.5e-4, 0.5]),
    )


class TestSecureDistanceSearch:
    """The search from the moment guess returns the bisection's point."""

    @settings(max_examples=400)
    @given(stats=st.one_of(law_stats(), vector_stats()), channel=any_channel())
    def test_equals_the_bisection(self, stats, channel):
        assert max_secure_distance(stats, channel) == bisected_secure_distance(stats, channel)

    @pytest.mark.parametrize("loss", EXTREME_LOSSES)
    @pytest.mark.parametrize("eta", EXTREME_EFFICIENCIES)
    @pytest.mark.parametrize("p", [[1.0], [0.8, 0.2], [0.8096, 0.1871, 0.0033], "reference"])
    def test_extreme_channels_equal_the_bisection(self, loss, eta, p):
        # a loss of 5e-324 made the guess 10/loss infinite, and floor() of it raised
        stats = heralded_photon_statistics(reference_setup()) if p == "reference" else HeraldedStats(p=np.array(p))
        channel = ChannelSpec(loss, eta, 2.5e-4)
        assert max_secure_distance(stats, channel) == bisected_secure_distance(stats, channel)

    def test_a_reference_row_makes_two_predicate_calls(self, monkeypatch):
        # the bisection made 15: one at each end, then 13 halvings
        calls = []

        def counted(stats, channel, distance_km):
            calls.append(distance_km)
            return expected_detection_probability(stats, channel, distance_km)

        monkeypatch.setattr(qkd, "expected_detection_probability", counted)
        stats = heralded_photon_statistics(reference_setup())
        result = max_secure_distance(stats, CHANNEL)
        assert not (result.capped or result.insecure_at_zero)
        assert result == bisected_secure_distance(stats, CHANNEL)
        assert len(calls) <= 2

    @pytest.mark.parametrize(
        "channel,flag",
        [(ChannelSpec(loss_db_per_km=5e-324), "capped"), (ChannelSpec(receiver_efficiency=0.0), "insecure_at_zero")],
    )
    def test_sweep_rows_at_extreme_channels_are_flagged_not_errors(self, channel, flag):
        rows = pump_sweep(reference_setup(), [0.01, 0.0829, 0.3], channel)
        assert [(row.error, getattr(row, flag)) for row in rows] == [(None, True)] * 3


def reference_sweep(base, mu_values, channel):
    """pump_sweep's rows, each from a config built by dataclasses.replace."""
    rows = []
    for mu in mu_values:
        pump_mw = mu / REFERENCE_CALIBRATION_PER_MW
        try:
            config = replace(base, mu=mu)
            counts = simulate_counts(config, mode="analytic")
            stats = heralded_photon_statistics(config, mode="analytic")
            distance = max_secure_distance(stats, channel)
        except Exception as exc:  # noqa: BLE001 - an error row, as in pump_sweep
            rows.append(TradeoffRow(mu, pump_mw, error=f"{type(exc).__name__}: {exc}"))
            continue
        rows.append(
            TradeoffRow(
                mu, pump_mw, counts.trigger_rate, stats.probability(1), stats.probability(2),
                distance.km, distance.capped, distance.insecure_at_zero,
            )
        )
    return rows


class TestPumpSweep:
    @pytest.mark.parametrize("model", DEAD_TIME_MODELS)
    @pytest.mark.parametrize("window", [1, 2, 3])
    @pytest.mark.parametrize(
        "law,modes", [("poissonian", None), ("thermal", None), ("multimode_thermal", 3), ("multimode_thermal", 160)]
    )
    def test_rows_equal_rows_from_replaced_configs(self, law, modes, window, model):
        # mu = 5 is past the thermal laws' cut; poissonian mu = 1e3 is past its own,
        # thermal mu = 1e5 overflows its pmf's Python floats and mu = inf fails in
        # the config, so every law has an error row
        base = reference_setup(
            law=law, modes=modes, coincidence_window=window, trigger_dead_time=DeadTimeSpec(1.0, model)
        )
        mu_values = [1e-4, 0.003, 0.0829, 0.4, 1.0, 5.0, 1e3, 1e5, math.inf]
        rows = pump_sweep(base, mu_values, CHANNEL)
        assert repr(rows) == repr(reference_sweep(base, mu_values, CHANNEL))
        assert rows[-1].error == "ValidationError: mean pair number must be finite, got inf"

    def test_rows_do_not_depend_on_the_table_caches(self):
        # cold caches, warm ones, and ones whose tables 300 one-off survivals evicted
        # (fresh setups each time: a setup keeps the tables it read)
        caches = (pair_source.power_table, pair_source.thinning_table)
        laws = [("poissonian", None), ("thermal", None), ("multimode_thermal", 3)]
        mu_values = [0.02, 0.0829, 0.25, 0.4]

        def outputs():
            configs = [reference_setup(law=law, modes=modes) for law, modes in laws]
            stats = [heralded_photon_statistics(config, mode="analytic").p.tolist() for config in configs]
            return repr(([pump_sweep(config, mu_values, CHANNEL) for config in configs], stats))

        for cache in caches:
            cache.cache_clear()
        cold = outputs()
        warm = outputs()
        assert all(cache.cache_info().hits for cache in caches)
        for i in range(300):
            survival = 0.5 + 1e-4 * i
            pair_source.power_table((survival,))
            pair_source.thinning_table(survival, 12)
        assert [cache.cache_info().currsize for cache in caches] == [256, 256]
        evicted = outputs()
        assert cold == warm == evicted

    def test_rows_and_single_points_read_one_none_of_table(self, monkeypatch):
        # rows of pmfs of 4 to 65 entries (thermal 1.43 is the whole law on all 65),
        # then the setup's own analytic and Monte Carlo calls
        built = []

        def spy(points):
            built.append(pair_source.power_table(points))
            return built[-1]

        monkeypatch.setattr(experiment, "power_table", spy)
        base = reference_setup(law="thermal")
        rows = pump_sweep(base, [1e-4, 0.0829, 1.0, 1.43], CHANNEL)
        assert [row.error for row in rows] == [None] * 4
        assert PairNumberDistribution("thermal", 1.43).pmf_vector().size == pair_source.MAX_PAIRS + 1
        simulate_counts(base)
        heralded_photon_statistics(base)
        for reduction in (simulate_counts, heralded_photon_statistics):
            reduction(base, mode="monte_carlo", n_pulses=1_000_000, seed=7)
        assert len(built) == 1 and built[0] is base.none_of

    def test_one_power_table_per_setup_whatever_its_pmf_lengths(self):
        power = pair_source.power_table
        power.cache_clear()
        for law in ("poissonian", "thermal"):
            for mu in (1e-4, 0.0829, 1.0):
                simulate_counts(reference_setup(law=law, mu=mu))
                pump_sweep(reference_setup(law=law, mu=mu), [1e-4, 0.0829, 1.0], CHANNEL)
        assert power.cache_info().currsize == 1
        simulate_counts(reference_setup(alpha_signal=0.2))
        assert power.cache_info().currsize == 2

    def test_setup_tables_are_read_only(self):
        # none_of is the one table a setup keeps; the analytic herald weights are formed from it
        config = reference_setup()
        with pytest.raises(ValueError, match="read-only"):
            config.none_of[..., 0] = 1.0
        with pytest.raises(FrozenInstanceError):
            config.none_of = None
        assert config.none_of.shape == (3, pair_source.MAX_PAIRS + 1)

    @pytest.mark.parametrize("calibration", [-1.0, -0.0829 / 240.0, math.nan, -math.inf])
    def test_negative_pump_calibration_rejected(self, calibration):
        # it wrote pump_power_mw null on every row; 0 still means no calibration
        with pytest.raises(ValidationError, match="pump calibration must be >= 0") as exc:
            pump_sweep(reference_setup(), [0.0829], CHANNEL, pairs_per_pulse_per_mw=calibration)
        assert exc.value.field == "pairs_per_pulse_per_mw"
        assert math.isnan(pump_sweep(reference_setup(), [0.0829], CHANNEL, pairs_per_pulse_per_mw=0.0)[0].pump_power_mw)

    def test_error_row_defaults(self):
        row = TradeoffRow(0.1, 2.0, error="ValidationError: x")
        assert list(vars(row)) == [
            "mu", "pump_power_mw", "trigger_rate", "p1", "p2", "max_secure_km", "capped", "insecure_at_zero", "error",
        ]
        assert all(math.isnan(v) for v in (row.trigger_rate, row.p1, row.p2, row.max_secure_km))
        assert (row.capped, row.insecure_at_zero) == (False, False)

    def test_reference_row(self):
        rows = pump_sweep(reference_setup(), [0.0829], CHANNEL)
        row = rows[0]
        assert row.error is None
        assert row.pump_power_mw == pytest.approx(240.0, rel=1e-9)
        assert row.trigger_rate == pytest.approx(2.16e5, rel=0.03)
        assert row.p1 == pytest.approx(0.1871, rel=0.05)
        assert row.p2 == pytest.approx(2.4e-3, rel=0.25)

    def test_monotone_rows(self):
        rows = pump_sweep(reference_setup(), [0.02, 0.04, 0.0829, 0.1658, 0.25], CHANNEL)
        triggers = [r.trigger_rate for r in rows]
        p2 = [r.p2 for r in rows]
        assert sorted(triggers) == triggers
        assert sorted(p2) == p2
        distances = [r.max_secure_km for r in rows]
        assert sorted(distances, reverse=True) == distances

    def test_doubling_mu(self):
        rows = pump_sweep(reference_setup(), [0.0829, 0.1658], CHANNEL)
        assert rows[1].p2 / rows[0].p2 == pytest.approx(2.0, rel=0.15)
        assert rows[1].trigger_rate / rows[0].trigger_rate < 2.0

    def test_low_mu_limit(self):
        rows = pump_sweep(reference_setup(), [1e-4, 2e-4], CHANNEL)
        ratio_low = rows[0].p2 / rows[0].p1
        ratio_high = rows[1].p2 / rows[1].p1
        assert ratio_high / ratio_low == pytest.approx(2.0, rel=0.10)

    def test_mu_values_validated(self):
        for mu_values in ([0.1, 0.05], [-0.1], []):  # an empty sweep returned no rows
            with pytest.raises(ValidationError) as exc:
                pump_sweep(reference_setup(), mu_values, CHANNEL)
            assert exc.value.field == "mu_values"

    @pytest.mark.parametrize("mu_values", [[math.nan], [0.1, math.nan], [0.0], [-0.1, 0.1]])
    def test_a_mean_outside_the_positives_is_refused(self, mu_values):
        # NaN failed "m <= 0" and passed the positivity check
        with pytest.raises(ValidationError, match="mu values must be positive") as exc:
            pump_sweep(reference_setup(), mu_values, CHANNEL)
        assert exc.value.field == "mu_values"

    def test_cut_row_builds_one_refused_pmf(self, monkeypatch):
        # the row's counts and heralded statistics read one pmf, refused once
        means, real = [], PairNumberDistribution.pmf_vector

        def spy(dist):
            means.append(dist.mean)
            return real(dist)

        monkeypatch.setattr(PairNumberDistribution, "pmf_vector", spy)
        rows = pump_sweep(reference_setup(), [30.0], ChannelSpec())
        assert rows[0].error.startswith("ValidationError: the poissonian pmf at mean 30.0 is cut at MAX_PAIRS = 64 pairs")
        assert means == [30.0]

    def test_cut_mean_is_an_error_row(self):
        # a mean past the cut fails its own row, not the sweep, and warns of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = pump_sweep(reference_setup(law="thermal"), [0.0829, 2.0, 3.0], CHANNEL)
        assert [row.error is None for row in rows] == [True, False, False]
        assert rows[1].error.startswith("ValidationError: the thermal pmf at mean 2.0 is cut at MAX_PAIRS = 64 pairs")

    def test_failed_row_is_reported(self, monkeypatch):
        real = experiment._analytic_counts

        def flaky(config, pmf, *tables):
            if pmf.size == failing_size:
                raise RuntimeError("synthetic failure")
            return real(config, pmf, *tables)

        failing_size = replace(reference_setup(), mu=0.04).pmf.size
        monkeypatch.setattr(experiment, "_analytic_counts", flaky)
        rows = pump_sweep(reference_setup(), [0.02, 0.04, 0.0829], CHANNEL)
        assert rows[0].error is None
        assert rows[1].error is not None and "synthetic failure" in rows[1].error
        assert math.isnan(rows[1].max_secure_km)
        assert rows[2].error is None

    def test_rows_build_no_setup(self, monkeypatch):
        # the rows share their setup, so nothing but the pair law is validated again
        def check(self):
            raise AssertionError("a row built a setup")

        base = reference_setup()
        monkeypatch.setattr(SetupConfig, "__post_init__", check)
        assert [row.error for row in pump_sweep(base, [0.02, 0.2], CHANNEL)] == [None, None]


LAW_CASES = [("poissonian", None), ("thermal", None)] + [("multimode_thermal", m) for m in (1, 3, 400)]


@st.composite
def sweep_cases(draw):
    """A setup of any law, window and dead-time model, and a sorted grid in
    [1e-3, 3] with one mean past thermal's cut at about 1.44, then inf."""
    law, modes = draw(st.sampled_from(LAW_CASES))
    base = reference_setup(
        law=law,
        modes=modes,
        coincidence_window=draw(st.integers(1, 3)),
        trigger_dead_time=DeadTimeSpec(1.0, draw(st.sampled_from(DEAD_TIME_MODELS))),
    )
    grid = draw(st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=6)) + [draw(st.floats(1.45, 3.0))]
    return base, sorted(grid) + [math.inf]


def recorded(call):
    """What ``call()`` returns, and the (category, message) of each warning it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [(w.category, str(w.message)) for w in caught]


class TestSweepEqualsSinglePoints:
    @given(case=sweep_cases())
    def test_rows_equal_single_point_calls(self, case):
        base, mu_values = case
        rows, swept = recorded(lambda: pump_sweep(base, mu_values, CHANNEL))
        expected, single = recorded(lambda: reference_sweep(base, mu_values, CHANNEL))
        fields = attrgetter("mu", "trigger_rate", "p1", "p2", "max_secure_km", "capped", "insecure_at_zero", "error")
        assert [repr(fields(row)) for row in rows] == [repr(fields(row)) for row in expected]  # NaN in error rows
        assert rows[-1].error == "ValidationError: mean pair number must be finite, got inf"
        # neither warns; a row past the cut carries its single point's refusal
        assert swept == single == []
        cut = ["is cut at MAX_PAIRS = 64 pairs" in row.error for row in rows[:-1] if row.error]
        assert all(cut) and len(cut) >= (base.law == "thermal" or base.modes == 1)

    def test_sweep_artifact_rows_equal_simulate_and_herald_stats(self, tmp_path, capsys):
        from spdcherald.cli import main
        from spdcherald.scenario import load_scenario

        thermal = ["paper.scenario", "--override", "source.law=thermal"]
        grid = [0.003, 0.0829, 0.4, 2.0]  # 2.0 is past the thermal pmf's cut
        assert main(["sweep", *thermal, "--override", f"run.sweep_mu={grid}", "--out-dir", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "sweep.json").read_text())["result"]["rows"]
        channel = load_scenario("paper.scenario").to_channel()
        capsys.readouterr()
        for k, (mu, row) in enumerate(zip(grid, rows)):
            out = tmp_path / str(k)
            codes = [main([command, *thermal, "--override", f"source.mu={mu}", "--out-dir", str(out)])
                     for command in ("simulate", "herald-stats")]
            if mu == 2.0:  # the row's error is each single point's refusal
                assert codes == [2, 2] and row["error"].startswith("ValidationError: the thermal pmf at mean 2.0 is cut")
                message = row["error"].removeprefix("ValidationError: ")
                assert capsys.readouterr().err.count(f"validation error: scenario key 'source.mu': {message}\n") == 2
                continue
            assert codes == [0, 0]
            counts = json.loads((out / "counts.json").read_text())["result"]
            p = json.loads((out / "herald_stats.json").read_text())["result"]["p"]
            distance = max_secure_distance(HeraldedStats(p=np.array(p)), channel)
            assert (row["mu"], row["error"]) == (mu, None)
            assert (row["trigger_rate"], row["p1"], row["p2"]) == (counts["trigger_rate_cps"], p[1], p[2])
            assert (row["max_secure_km"], row["capped"]) == (distance.km, distance.capped)
