"""Scenario files: one structured document drives every subcommand.

A scenario is a YAML document with sections ``crystal``, ``source``,
``losses``, ``detectors``, ``dead_time``, ``channel``, ``counts`` (optional,
for estimation runs), and ``run``.  Unknown keys are rejected with their full
dotted path.  The bundled ``paper.scenario`` carries the reference setup.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .detectors import DeadTimeSpec, FreeRunningDetector, GatedDetector
from .errors import ValidationError
from .experiment import CountRates, SetupConfig
from .phase_matching import CrystalSpec, SellmeierCoefficients
from .qkd import ChannelSpec

# Allowed keys and their leaf types.  Strings such as "8.2e7" that YAML 1.1
# leaves unparsed are coerced to the declared numeric type.
SCHEMA = {
    "crystal": {
        "name": "str",
        "length_mm": "float",
        "cut_angle_deg": "float",
        "sellmeier_ordinary": "number_list",
        "sellmeier_extraordinary": "number_list",
        "pump_center_nm": "float",
        "pump_fwhm_nm": "float",
        "signal_center_nm": "float",
        "signal_fwhm_nm": "float",
        "grid": {
            "signal_min_nm": "float",
            "signal_max_nm": "float",
            "signal_points": "int",
            "idler_min_nm": "float",
            "idler_max_nm": "float",
            "idler_points": "int",
        },
    },
    "source": {
        "law": "str",
        "mu": "float",
        "modes": "opt_int",
        "rep_rate_hz": "float",
        "pump_power_mw": "float",
        "pairs_per_pulse_per_mw": "float",
    },
    "losses": {
        "alpha_signal": "float",
        "alpha_idler": "float",
        "t_signal_optics": "float",
        "t_idler_optics": "float",
        "t_delay_fiber": "float",
    },
    "detectors": {
        "herald": {
            "mode": "str",
            "efficiency": "float",
            "dark_rate_cps": "float",
            "afterpulse_prob": "float",
        },
        "idler": {
            "mode": "str",
            "efficiency": "float",
            "dark_prob_per_gate": "float",
            "afterpulse_prob": "float",
            "gate_width_ns": "float",
            "gate_rate_hz": "float",
        },
        "coincidence_window_gates": "int",
    },
    "dead_time": {"tau_us": "float", "model": "str"},
    "channel": {
        "loss_db_per_km": "float",
        "receiver_efficiency": "float",
        "receiver_dark_per_pulse": "float",
    },
    "counts": {
        "signal_singles_cps": "float",
        "idler_singles_cps": "float",
        "coincidences_cps": "float",
        "trigger_rate_cps": "float",
        "gate_rate_hz": "float",
    },
    "run": {
        "mode": "str",
        "n_pulses": "int",
        "seed": "int",
        "outputs": "str",
        "sweep_mu": "number_list",
        "g2_arm": "str",
        "splitter_ratio": "float",
    },
}

# libyaml's scanner where PyYAML was built with it; both keep the safe
# constructor and the YAML 1.1 resolver, so they build the same data
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _load_yaml(text: str, what: str = "scenario"):
    try:
        return yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ValidationError(f"{what} is not valid YAML: {exc}") from exc


def _coerce(value, kind: str, dotted: str):
    if kind == "float":
        if isinstance(value, bool) or value is None:
            raise ValidationError(f"scenario key {dotted!r} must be a number")
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"scenario key {dotted!r} must be a number, got {value!r}") from None
        if not math.isfinite(number):
            raise ValidationError(f"scenario key {dotted!r} must be finite, got {value!r}")
        return number
    if kind == "int":
        if isinstance(value, bool):
            raise ValidationError(f"scenario key {dotted!r} must be an integer")
        if isinstance(value, int):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        try:
            return int(str(value), 10)
        except (TypeError, ValueError):
            raise ValidationError(f"scenario key {dotted!r} must be an integer, got {value!r}") from None
    if kind == "opt_int":
        return None if value is None else _coerce(value, "int", dotted)
    if kind == "number_list":
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"scenario key {dotted!r} must be a list of numbers")
        return [_coerce(v, "float", f"{dotted}[{i}]") for i, v in enumerate(value)]
    if kind == "str":
        if not isinstance(value, str):
            raise ValidationError(f"scenario key {dotted!r} must be a string, got {value!r}")
        return value
    raise AssertionError(f"unhandled schema kind {kind}")


def _validate_keys(data: dict, schema: dict, path: str = "") -> None:
    for key, value in list(data.items()):
        dotted = f"{path}{key}"
        if key not in schema:
            raise ValidationError(f"unknown scenario key {dotted!r}")
        sub = schema[key]
        if isinstance(sub, dict):
            if not isinstance(value, dict):
                raise ValidationError(f"scenario key {dotted!r} must be a mapping")
            _validate_keys(value, sub, dotted + ".")
        else:
            data[key] = _coerce(value, sub, dotted)


def apply_overrides(data: dict, overrides: list[str]) -> dict:
    """Apply ``section.key=value`` overrides; values are parsed as YAML."""
    out = copy.deepcopy(data)
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        keys = path.strip().split(".")
        if not all(keys):
            raise ValidationError(f"override path {path!r} is malformed")
        node = out
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ValidationError(f"override path {path!r} crosses a scalar")
        node[keys[-1]] = _load_yaml(raw, f"override {item!r}")
    return out


# scenario keys of the fields a SetupConfig (or its pair law) validates, bar the ``losses`` ones
_SETUP_KEYS = {
    **{field: f"source.{field}" for field in ("rep_rate_hz", "law", "modes")},
    "mean": "source.mu",
    "gate_rate_hz": "detectors.idler.gate_rate_hz",
    "coincidence_window": "detectors.coincidence_window_gates",
}


class Section(dict):
    """A validated scenario mapping whose missing keys raise ValidationError
    naming their dotted path."""

    def __init__(self, data: dict, path: str):
        super().__init__((k, Section(v, f"{path}{k}.") if isinstance(v, dict) else v) for k, v in data.items())
        self.path = path

    def __missing__(self, key):
        raise ValidationError(f"scenario is missing the required key {self.path + key!r}")


def _build(cls, section: Section, *required: str, **optional):
    """``cls`` from a section's ``required`` and ``optional`` (defaulted) keys; a range error names its key."""
    try:
        return cls(**{key: section[key] for key in required}, **{k: section.get(k, v) for k, v in optional.items()})
    except ValidationError as exc:
        if exc.field is None:
            raise
        raise ValidationError(f"scenario key {section.path + exc.field!r}: {exc}") from None


@dataclass(frozen=True)
class Scenario:
    """Parsed, validated scenario document."""

    data: dict

    @property
    def run(self) -> dict:
        return self.data.get("run", {})

    def section(self, name: str) -> Section:
        # only the requested section is wrapped; a missing one raises in Section.__missing__
        return Section({key: value for key, value in self.data.items() if key == name}, "")[name]

    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(self.data, sort_keys=True, default=float).encode()
        ).hexdigest()

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.data, sort_keys=True)

    # ---- builders -------------------------------------------------------
    def to_setup_config(self) -> SetupConfig:
        src = self.section("source")
        loss = self.section("losses")
        det = self.section("detectors")
        dt = self.section("dead_time")
        herald = det["herald"]
        idler = det["idler"]
        # each arm has one operating mode; the model has no herald afterpulsing,
        # and detectors.idler.gate_width_ns is descriptive
        for arm, mode in (("herald", "free_running"), ("idler", "gated")):
            given = det[arm].get("mode", mode)
            if given != mode:
                raise ValidationError(f"scenario key 'detectors.{arm}.mode' must be {mode!r}, got {given!r}")
        if herald.get("afterpulse_prob", 0.0) != 0.0:
            raise ValidationError(
                f"scenario key 'detectors.herald.afterpulse_prob' must be 0 (the free-running "
                f"herald detector has no afterpulse model), got {herald['afterpulse_prob']!r}"
            )
        try:
            return SetupConfig(
                rep_rate_hz=src["rep_rate_hz"],
                mu=src["mu"],
                law=src.get("law", "poissonian"),
                modes=src.get("modes"),
                alpha_signal=loss["alpha_signal"],
                alpha_idler=loss["alpha_idler"],
                t_signal_optics=loss["t_signal_optics"],
                t_idler_optics=loss["t_idler_optics"],
                t_delay_fiber=loss["t_delay_fiber"],
                herald=_build(FreeRunningDetector, herald, "efficiency", "dark_rate_cps"),
                idler_detector=_build(GatedDetector, idler, "efficiency", "dark_prob_per_gate", afterpulse_prob=0.0),
                trigger_dead_time=_build(DeadTimeSpec, dt, "tau_us", model="paralyzable"),
                gate_rate_hz=idler.get("gate_rate_hz", 205000.0),
                coincidence_window=det.get("coincidence_window_gates", 1),
            )
        except ValidationError as exc:
            if exc.field is None:
                raise
            key = _SETUP_KEYS.get(exc.field, f"losses.{exc.field}")
            raise ValidationError(f"scenario key {key!r}: {exc}") from None

    def to_crystal(self) -> CrystalSpec:
        cry = self.section("crystal")
        sellmeier = {}
        for key in ("sellmeier_ordinary", "sellmeier_extraordinary"):
            if key in cry:
                if len(cry[key]) != 4:
                    raise ValidationError(
                        f"scenario key {cry.path + key!r}: a Sellmeier set is 4 numbers (a, b, c, d), "
                        f"got {len(cry[key])}"
                    )
                sellmeier[key] = SellmeierCoefficients(*cry[key])
        return _build(
            functools.partial(CrystalSpec, **sellmeier), cry,
            length_mm=5.0, cut_angle_deg=26.42, name=CrystalSpec.name,
        )

    def spectral_grid(self) -> tuple[np.ndarray, np.ndarray]:
        grid = self.section("crystal").get("grid", {})
        axes = []
        for axis, low, high, default in (("signal", 481.0, 561.0, 321), ("idler", 1471.0, 1671.0, 161)):
            points = grid.get(f"{axis}_points", default)
            if points < 2:
                raise ValidationError(f"scenario key 'crystal.grid.{axis}_points' must be >= 2, got {points}")
            axes.append(np.linspace(grid.get(f"{axis}_min_nm", low), grid.get(f"{axis}_max_nm", high), points))
        return tuple(axes)

    def to_channel(self) -> ChannelSpec:
        ch = self.section("channel")
        return ChannelSpec(
            loss_db_per_km=ch.get("loss_db_per_km", 0.2),
            receiver_efficiency=ch["receiver_efficiency"],
            receiver_dark_per_pulse=ch["receiver_dark_per_pulse"],
        )

    def to_counts(self) -> CountRates:
        return CountRates.from_dict(self.section("counts"))


def parse_scenario(text: str, overrides: list[str] | None = None) -> Scenario:
    data = _load_yaml(text)
    if not isinstance(data, dict):
        raise ValidationError("scenario must be a mapping of sections")
    if overrides:
        data = apply_overrides(data, overrides)
    _validate_keys(data, SCHEMA)
    return Scenario(data=data)


def load_scenario(path: str | Path, overrides: list[str] | None = None) -> Scenario:
    """Load a scenario from disk, or from the bundled set by bare name."""
    p = Path(path)
    if p.is_file():
        return parse_scenario(p.read_text(), overrides)
    name = p.name if p.name.endswith(".scenario") else p.name + ".scenario"
    bundled = resources.files("spdcherald.data").joinpath(name)
    if bundled.is_file():
        return parse_scenario(bundled.read_text(), overrides)
    raise ValidationError(f"scenario file {str(path)!r} not found (and no bundled scenario matches)")
