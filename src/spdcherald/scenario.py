"""Scenario files: one structured document drives every subcommand.

A scenario is a YAML document with sections ``crystal``, ``source``,
``losses``, ``detectors``, ``dead_time``, ``channel``, ``counts`` (optional,
for estimation runs), and ``run``.  Unknown keys are rejected with their full
dotted path.  The bundled ``paper.scenario`` carries the reference setup.

:data:`SCHEMA` declares every key once.  A key left out reads as its default,
which is never written into the data, so a scenario hashes as it is written.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import astuple, dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np
import yaml

from .detectors import DeadTimeSpec, FreeRunningDetector, GatedDetector
from .errors import ValidationError
from .experiment import CountRates, SetupConfig
from .phase_matching import BBO_KATO_1986_EXTRAORDINARY, BBO_KATO_1986_ORDINARY, CrystalSpec, SellmeierCoefficients
from .qkd import ChannelSpec

REQUIRED = ...  # the default of a key that has none


class Leaf(NamedTuple):
    """A key that holds a value: its kind, the default a left-out key reads as,
    the model field it feeds as that model's ValidationError names it (None
    where no model takes it), and whether it is descriptive (validated, but no
    result depends on it)."""

    kind: str
    default: object = REQUIRED
    field: str | None = None
    descriptive: bool = False


SCHEMA = {
    "crystal": {
        "name": Leaf("str", CrystalSpec.name, "name"),
        "length_mm": Leaf("float", CrystalSpec.length_mm, "length_mm"),
        "cut_angle_deg": Leaf("float", CrystalSpec.cut_angle_deg, "cut_angle_deg"),
        "sellmeier_ordinary": Leaf("sellmeier", astuple(BBO_KATO_1986_ORDINARY), "sellmeier_ordinary"),
        "sellmeier_extraordinary": Leaf("sellmeier", astuple(BBO_KATO_1986_EXTRAORDINARY), "sellmeier_extraordinary"),
        "pump_center_nm": Leaf("float", REQUIRED, "pump_nm"),
        "pump_fwhm_nm": Leaf("float", REQUIRED, "pump_fwhm_nm"),
        "signal_center_nm": Leaf("float", REQUIRED, "signal_nm"),
        "signal_fwhm_nm": Leaf("float", 6.0, "filter_fwhm_nm"),
        "grid": {
            "signal_min_nm": Leaf("float", 481.0),
            "signal_max_nm": Leaf("float", 561.0),
            "signal_points": Leaf("int", 321),
            "idler_min_nm": Leaf("float", 1471.0),
            "idler_max_nm": Leaf("float", 1671.0),
            "idler_points": Leaf("int", 161),
        },
    },
    "source": {
        "law": Leaf("str", SetupConfig.law, "law"),
        "mu": Leaf("float", REQUIRED, "mu"),
        "modes": Leaf("int", SetupConfig.modes, "modes"),
        "rep_rate_hz": Leaf("float", REQUIRED, "rep_rate_hz"),
        # the sweep derives pump power from mu and pairs_per_pulse_per_mw
        "pump_power_mw": Leaf("float", None, descriptive=True),
        "pairs_per_pulse_per_mw": Leaf("float", 0.0, "pairs_per_pulse_per_mw"),
    },
    "losses": {
        "alpha_signal": Leaf("float", REQUIRED, "alpha_signal"),
        "alpha_idler": Leaf("float", REQUIRED, "alpha_idler"),
        "t_signal_optics": Leaf("float", REQUIRED, "t_signal_optics"),
        "t_idler_optics": Leaf("float", REQUIRED, "t_idler_optics"),
        "t_delay_fiber": Leaf("float", REQUIRED, "t_delay_fiber"),
    },
    "detectors": {
        "herald": {
            "mode": Leaf("str", "free_running"),
            "efficiency": Leaf("float", REQUIRED, "efficiency"),
            "dark_rate_cps": Leaf("float", REQUIRED, "dark_rate_cps"),
            "afterpulse_prob": Leaf("float", 0.0),
        },
        "idler": {
            "mode": Leaf("str", "gated"),
            "efficiency": Leaf("float", REQUIRED, "efficiency"),
            "dark_prob_per_gate": Leaf("float", REQUIRED, "dark_prob_per_gate"),
            "afterpulse_prob": Leaf("float", GatedDetector.afterpulse_prob, "afterpulse_prob"),
            # the model counts per gate, whatever the gate's width
            "gate_width_ns": Leaf("float", None, descriptive=True),
            "gate_rate_hz": Leaf("float", SetupConfig.gate_rate_hz, "gate_rate_hz"),
        },
        "coincidence_window_gates": Leaf("int", SetupConfig.coincidence_window, "coincidence_window"),
    },
    "dead_time": {
        "tau_us": Leaf("float", REQUIRED, "tau_us"),
        "model": Leaf("str", DeadTimeSpec.model, "model"),
    },
    "channel": {
        "loss_db_per_km": Leaf("float", ChannelSpec.loss_db_per_km, "loss_db_per_km"),
        "receiver_efficiency": Leaf("float", REQUIRED, "receiver_efficiency"),
        # added to both sides of the security bound, so it cancels in the secure distance
        "receiver_dark_per_pulse": Leaf("float", REQUIRED, "receiver_dark_per_pulse", descriptive=True),
    },
    "counts": {
        "signal_singles_cps": Leaf("float", REQUIRED, "signal_singles"),
        "idler_singles_cps": Leaf("float", REQUIRED, "idler_singles"),
        "coincidences_cps": Leaf("float", REQUIRED, "coincidences"),
        "trigger_rate_cps": Leaf("float", REQUIRED, "trigger_rate"),
        "gate_rate_hz": Leaf("float", REQUIRED, "gate_rate"),
    },
    "run": {
        "mode": Leaf("str", "analytic", "mode"),
        "n_pulses": Leaf("int", None, "n_pulses"),
        "seed": Leaf("int", None, "seed"),
        "outputs": Leaf("str", "out"),
        "sweep_mu": Leaf("number_list", None, "mu_values"),
        "g2_arm": Leaf("str", "signal_unconditioned", "arm"),
        "splitter_ratio": Leaf("float", 0.5, "splitter_ratio"),
    },
}


def leaves(node: dict = SCHEMA, path: str = ""):
    """(dotted key, :class:`Leaf`) of every leaf under ``node``, in schema order."""
    for key, sub in node.items():
        if isinstance(sub, dict):
            yield from leaves(sub, f"{path}{key}.")
        else:
            yield f"{path}{key}", sub


def named(exc: ValidationError, within: str = "") -> ValidationError:
    """``exc`` naming the scenario key that feeds its field, the one under
    ``within`` where several do (both detectors have an efficiency), or
    ``exc`` itself where none does."""
    field = "mu" if exc.field == "mean" else exc.field  # SetupConfig hands mu to its pair law as the law's mean
    keys = [key for key, leaf in leaves() if field and leaf.field == field]
    keys = [key for key in keys if key.startswith(within)] or keys
    return ValidationError(f"scenario key {keys[0]!r}: {exc}") if len(keys) == 1 else exc


# joint-spectrum cells a scenario's grid may ask for: 2048 x 2048, 81 times the
# bundled 321 x 161 grid.  At the bound the spectrum subcommand writes a 0.2 GB
# spectrum.csv and peaks at about 0.65 GB resident.
MAX_GRID_CELLS = 2**22

# libyaml's scanner where PyYAML was built with it; both keep the safe
# constructor and the YAML 1.1 resolver, so they build the same data
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def _load_yaml(text: str, what: str = "scenario"):
    try:
        return yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ValidationError(f"{what} is not valid YAML: {exc}") from exc


# strings such as "8.2e7", which YAML 1.1 leaves unparsed, are coerced to a numeric kind
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
    if kind in ("number_list", "sellmeier"):
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"scenario key {dotted!r} must be a list of numbers")
        if kind == "sellmeier" and len(value) != 4:
            raise ValidationError(
                f"scenario key {dotted!r}: a Sellmeier set is 4 numbers (a, b, c, d), got {len(value)}"
            )
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
            # a key whose default is no value may be null
            data[key] = None if value is None and sub.default is None else _coerce(value, sub.kind, dotted)


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


class Section(dict):
    """A validated scenario mapping.  A key it lacks reads as its schema
    default; one without a default, or a section with a required key, raises
    ValidationError naming its dotted path."""

    def __init__(self, data: dict, path: str, schema: dict = SCHEMA):
        super().__init__(
            (k, Section(v, f"{path}{k}.", schema[k]) if isinstance(v, dict) else v) for k, v in data.items()
        )
        self.path, self.schema = path, schema

    def __missing__(self, key):
        node = self.schema[key]
        if isinstance(node, dict):
            if all(leaf.default is not REQUIRED for _, leaf in leaves(node)):
                return Section({}, f"{self.path}{key}.", node)
        elif node.default is not REQUIRED:
            return node.default
        raise ValidationError(f"scenario is missing the required key {self.path + key!r}")


def _build(model, section: Section, *keys: str, **extra):
    """``model`` from ``extra`` and ``section``'s ``keys``, each as the field it
    feeds; a range error names the key that feeds the field at fault."""
    try:
        return model(**{section.schema[key].field: section[key] for key in keys}, **extra)
    except ValidationError as exc:
        raise named(exc, section.path) from None


@dataclass(frozen=True)
class Scenario:
    """Parsed, validated scenario document."""

    data: dict

    def section(self, name: str) -> Section:
        # only the requested section is wrapped; a missing one reads as in Section.__missing__
        return Section({key: value for key, value in self.data.items() if key == name}, "")[name]

    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(self.data, sort_keys=True, default=float).encode()
        ).hexdigest()

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.data, sort_keys=True)

    # ---- builders -------------------------------------------------------
    def to_setup_config(self) -> SetupConfig:
        loss = self.section("losses")
        det = self.section("detectors")
        idler = det["idler"]
        # each arm has one operating mode, and the herald no afterpulsing: the model has no other
        for arm, key in (("herald", "mode"), ("idler", "mode"), ("herald", "afterpulse_prob")):
            default, value = det.schema[arm][key].default, det[arm][key]
            if value != default:
                raise ValidationError(f"scenario key 'detectors.{arm}.{key}' must be {default!r}, got {value!r}")
        return _build(
            SetupConfig, self.section("source"), "rep_rate_hz", "mu", "law", "modes",
            **{key: loss[key] for key in SCHEMA["losses"]},
            herald=_build(FreeRunningDetector, det["herald"], "efficiency", "dark_rate_cps"),
            idler_detector=_build(GatedDetector, idler, "efficiency", "dark_prob_per_gate", "afterpulse_prob"),
            trigger_dead_time=_build(DeadTimeSpec, self.section("dead_time"), "tau_us", "model"),
            gate_rate_hz=idler["gate_rate_hz"],
            coincidence_window=det["coincidence_window_gates"],
        )

    def to_crystal(self) -> CrystalSpec:
        cry = self.section("crystal")
        sellmeier = {key: SellmeierCoefficients(*cry[key]) for key in ("sellmeier_ordinary", "sellmeier_extraordinary")}
        return _build(CrystalSpec, cry, "length_mm", "cut_angle_deg", "name", **sellmeier)

    def spectral_grid(self) -> tuple[np.ndarray, np.ndarray]:
        grid = self.section("crystal")["grid"]
        signal, idler = grid["signal_points"], grid["idler_points"]
        for axis, points in (("signal", signal), ("idler", idler)):
            if points < 2:
                raise ValidationError(f"scenario key 'crystal.grid.{axis}_points' must be >= 2, got {points}")
        # checked before any array is built: a typo in a point count asked numpy for gigabytes
        if signal * idler > MAX_GRID_CELLS:
            raise ValidationError(
                f"scenario keys 'crystal.grid.signal_points' x 'crystal.grid.idler_points' ask for "
                f"{signal} x {idler} cells; at most {MAX_GRID_CELLS} are allowed"
            )
        return (
            np.linspace(grid["signal_min_nm"], grid["signal_max_nm"], signal),
            np.linspace(grid["idler_min_nm"], grid["idler_max_nm"], idler),
        )

    def to_channel(self) -> ChannelSpec:
        return _build(ChannelSpec, self.section("channel"), *SCHEMA["channel"])

    def to_counts(self) -> CountRates:
        counts = self.section("counts")
        return _build(CountRates.from_dict, counts, record=counts)


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
