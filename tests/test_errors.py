"""The one range check, :func:`spdcherald.errors.require_range`, and a table of
every scalar setting it serves: each refusal names the field at fault."""

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest

from spdcherald.detectors import DeadTimeSpec, FreeRunningDetector, GatedDetector, simulate_dead_time
from spdcherald.errors import ValidationError, require_range
from spdcherald.experiment import CountRates, SetupConfig, hbt_g2
from spdcherald.pair_source import PairNumberDistribution
from spdcherald.phase_matching import (
    CrystalSpec,
    SellmeierCoefficients,
    heralded_marginal_bandwidth,
    joint_spectral_intensity,
    tuning_curve,
)
from spdcherald.qkd import ChannelSpec, pump_sweep

INF = math.inf


class TestRequireRange:
    @pytest.mark.parametrize(
        "value,bounds,message",
        [
            (math.nan, {}, "x must be finite, got nan"),
            (-INF, {"lo": 0.0}, "x must be finite, got -inf"),
            (INF, {"lo": 0.0, "hi": 1.0}, "x must be finite, got inf"),
            (-1.0, {"lo": 0.0}, "x must be >= 0, got -1.0"),
            (0.0, {"lo": 0.0, "lo_open": True}, "x must be > 0, got 0.0"),
            (1.5, {"lo": 0.0, "hi": 1.0}, "x must lie in [0, 1], got 1.5"),
            (1.0, {"lo": 0.0, "hi": 1.0, "hi_open": True}, "x must lie in [0, 1), got 1.0"),
            (0.0, {"lo": 0.0, "hi": 1.0, "lo_open": True, "hi_open": True}, "x must lie in (0, 1), got 0.0"),
            (0, {"lo": 1}, "x must be >= 1, got 0"),
            (91.0, {"lo": 0.0, "hi": 90.0}, "x must lie in [0, 90], got 91.0"),
        ],
    )
    def test_refusal_message(self, value, bounds, message):
        with pytest.raises(ValidationError) as exc:
            require_range("x", value, field="f", **bounds)
        assert str(exc.value) == message
        assert exc.value.field == "f"
        assert type(exc.value) is ValidationError

    @pytest.mark.parametrize(
        "value,bounds",
        [
            (-1e308, {}),
            (0.0, {"lo": 0.0}),
            (1.0, {"lo": 0.0, "hi": 1.0}),
            (0.5, {"lo": 0.0, "hi": 1.0, "lo_open": True, "hi_open": True}),
            (10**400, {"lo": 1}),  # an integer past the largest float
        ],
    )
    def test_accepts(self, value, bounds):
        require_range("x", value, **bounds)


class Row(NamedTuple):
    call: Callable
    field: str | tuple[str, ...]
    lo: float = -INF
    hi: float = INF
    lo_open: bool = False
    hi_open: bool = False


SETUP = SetupConfig()
RATES = {"signal_singles": 1.0, "idler_singles": 1.0, "coincidences": 1.0, "trigger_rate": 1.0, "gate_rate": 1.0}
CHANNEL = ChannelSpec()
CRYSTAL = CrystalSpec()
SPECTRUM = joint_spectral_intensity(
    CRYSTAL, 26.42, 390.0, 1.0, np.linspace(481.0, 561.0, 41), np.linspace(1471.0, 1671.0, 161)
)


def _rates(name):
    return lambda v: CountRates(**{**RATES, name: v}, per_trigger_coincidence_prob=1.0)


# every scalar setting require_range checks: the call that takes it, the field
# its refusal names, and its bounds
ROWS = {
    **{f"SetupConfig.{name}": Row(lambda v, n=name: SetupConfig(**{n: v}), name, 0.0, lo_open=True)
       for name in ("rep_rate_hz", "gate_rate_hz")},
    **{f"SetupConfig.{name}": Row(lambda v, n=name: SetupConfig(**{n: v}), name, 0.0, 1.0)
       for name in ("alpha_signal", "alpha_idler", "t_signal_optics", "t_idler_optics", "t_delay_fiber")},
    "SetupConfig.coincidence_window": Row(lambda v: SetupConfig(coincidence_window=v), "coincidence_window", 1),
    **{f"CountRates.{name}": Row(_rates(name), name, 0.0) for name in RATES},
    "CountRates.per_trigger_coincidence_prob": Row(
        lambda v: CountRates(**RATES, per_trigger_coincidence_prob=v), ("coincidences", "trigger_rate")
    ),
    "hbt_g2.splitter_ratio": Row(
        lambda v: hbt_g2(SETUP, splitter_ratio=v), "splitter_ratio", 0.0, 1.0, lo_open=True, hi_open=True
    ),
    "FreeRunningDetector.efficiency": Row(lambda v: FreeRunningDetector(v, 90.0), "efficiency", 0.0, 1.0),
    "FreeRunningDetector.dark_rate_cps": Row(lambda v: FreeRunningDetector(0.5, v), "dark_rate_cps", 0.0),
    "GatedDetector.efficiency": Row(lambda v: GatedDetector(v, 1e-4), "efficiency", 0.0, 1.0),
    "GatedDetector.dark_prob_per_gate": Row(lambda v: GatedDetector(0.5, v), "dark_prob_per_gate", 0.0, 1.0),
    "GatedDetector.afterpulse_prob": Row(
        lambda v: GatedDetector(0.5, 1e-4, v), "afterpulse_prob", 0.0, 1.0, hi_open=True
    ),
    "DeadTimeSpec.tau_us": Row(lambda v: DeadTimeSpec(v), "tau_us", 0.0),
    "simulate_dead_time.input_rate": Row(lambda v: simulate_dead_time(v, DeadTimeSpec(), 8.2e7, 1, 0), "input_rate"),
    "simulate_dead_time.rep_rate_hz": Row(
        lambda v: simulate_dead_time(0.0, DeadTimeSpec(), v, 1, 0), "rep_rate_hz", 0.0, lo_open=True
    ),
    "simulate_dead_time.n_pulses": Row(lambda v: simulate_dead_time(0.0, DeadTimeSpec(), 8.2e7, v, 0), "n_pulses", 1),
    "ChannelSpec.loss_db_per_km": Row(lambda v: ChannelSpec(loss_db_per_km=v), "loss_db_per_km", 0.0),
    "ChannelSpec.receiver_efficiency": Row(
        lambda v: ChannelSpec(receiver_efficiency=v), "receiver_efficiency", 0.0, 1.0
    ),
    "ChannelSpec.receiver_dark_per_pulse": Row(
        lambda v: ChannelSpec(receiver_dark_per_pulse=v), "receiver_dark_per_pulse", 0.0, 1.0
    ),
    "pump_sweep.pairs_per_pulse_per_mw": Row(
        lambda v: pump_sweep(SETUP, [0.0829], CHANNEL, pairs_per_pulse_per_mw=v), "pairs_per_pulse_per_mw", 0.0
    ),
    "PairNumberDistribution.mean": Row(lambda v: PairNumberDistribution(mean=v), "mean", 0.0),
    "CrystalSpec.length_mm": Row(lambda v: CrystalSpec(length_mm=v), "length_mm", 0.0, lo_open=True),
    "CrystalSpec.cut_angle_deg": Row(lambda v: CrystalSpec(cut_angle_deg=v), "cut_angle_deg", 0.0, 90.0),
    "tuning_curve.n_points": Row(lambda v: tuning_curve(CRYSTAL, 26.42, 390.0, (500.0, 540.0), v), "n_points", 2),
    **{f"SellmeierCoefficients.{name}": Row(
        lambda v, n=name: SellmeierCoefficients(**{**dict(a=2.7, b=0.018, c=0.018, d=0.014), n: v}), name
    ) for name in "abcd"},
    "joint_spectral_intensity.pump_center_nm": Row(
        lambda v: joint_spectral_intensity(CRYSTAL, 26.42, v, 1.0, SPECTRUM.signal_axis, SPECTRUM.idler_axis),
        "pump_center_nm",
    ),
    "joint_spectral_intensity.pump_fwhm_nm": Row(
        lambda v: joint_spectral_intensity(CRYSTAL, 26.42, 390.0, v, SPECTRUM.signal_axis, SPECTRUM.idler_axis),
        "pump_fwhm_nm", 0.0, lo_open=True,
    ),
    "heralded_marginal_bandwidth.filter_center_nm": Row(
        lambda v: heralded_marginal_bandwidth(SPECTRUM, v, 6.0), "filter_center_nm"
    ),
    "heralded_marginal_bandwidth.filter_fwhm_nm": Row(
        lambda v: heralded_marginal_bandwidth(SPECTRUM, 521.0, v), "filter_fwhm_nm", 0.0, lo_open=True
    ),
}


def _refused():
    """(row, value) for NaN, +-inf and the first float outside each finite
    bound: the end itself where it is open, the next float past it where it
    is closed."""
    for name, row in ROWS.items():
        values = [math.nan, INF, -INF]
        if math.isfinite(row.lo):
            values.append(row.lo if row.lo_open else math.nextafter(row.lo, -INF))
        if math.isfinite(row.hi):
            values.append(row.hi if row.hi_open else math.nextafter(row.hi, INF))
        for value in values:
            yield pytest.param(row, value, id=f"{name}={value!r}")


def _closed_ends():
    for name, row in ROWS.items():
        for end, is_open in ((row.lo, row.lo_open), (row.hi, row.hi_open)):
            if math.isfinite(end) and not is_open:
                yield pytest.param(row, end, id=f"{name}={end!r}")


@pytest.mark.parametrize("row,value", _refused())
def test_refusal_names_its_field(row, value):
    with pytest.raises(ValidationError) as exc:
        row.call(value)
    assert exc.value.field == row.field


@pytest.mark.parametrize("row,value", _closed_ends())
def test_closed_end_accepted(row, value):
    row.call(value)
