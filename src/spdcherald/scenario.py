"""Scenario files: one structured document drives every subcommand.

A scenario is a YAML document with sections ``crystal``, ``source``,
``losses``, ``detectors``, ``dead_time``, ``channel``, ``counts`` (optional,
for estimation runs), and ``run``.  A :class:`Scenario` is validated once,
when it is built: unknown keys are rejected with their full dotted path.  The
bundled ``paper.scenario`` carries the reference setup.

:data:`SCHEMA` declares every key once.  A key left out reads as its default,
which is never written into the data, so a scenario hashes as it is written.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import yaml

from . import defaults as d
from .errors import ValidationError

if TYPE_CHECKING:  # the builders import their models when called
    import numpy as np

    from .experiment import CountRates, SetupConfig
    from .phase_matching import CrystalSpec
    from .qkd import ChannelSpec

REQUIRED = ...  # the default of a key that has none
BUNDLED_DIR = Path(__file__).with_name("data")  # shipped as package data


class Leaf(NamedTuple):
    """A key that holds a value: its kind, the default a left-out key reads as,
    the model field it feeds as that model's ValidationError names it (None
    where no model takes it), whether it is descriptive (validated, but no
    result depends on it), and the values a ``choice`` may take."""

    kind: str
    default: object = REQUIRED
    field: str | None = None
    descriptive: bool = False
    choices: tuple[str, ...] = ()


def _choice(values: tuple[str, ...], field: str | None = None) -> Leaf:
    """A key that takes one of ``values``, checked as the scenario is read; the first is its default."""
    return Leaf("choice", values[0], field, choices=values)


SCHEMA = {
    "crystal": {
        "name": Leaf("str", d.CRYSTAL_NAME, "name"),
        "length_mm": Leaf("float", d.CRYSTAL_LENGTH_MM, "length_mm"),
        "cut_angle_deg": Leaf("float", d.CUT_ANGLE_DEG, "cut_angle_deg"),
        "sellmeier_ordinary": Leaf("sellmeier", d.BBO_KATO_1986_ORDINARY, "sellmeier_ordinary"),
        "sellmeier_extraordinary": Leaf("sellmeier", d.BBO_KATO_1986_EXTRAORDINARY, "sellmeier_extraordinary"),
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
        "law": _choice(d.LAWS, "law"),
        "mu": Leaf("float", REQUIRED, "mu"),
        "modes": Leaf("int", None, "modes"),
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
            "mode": _choice(d.HERALD_MODES),
            "efficiency": Leaf("float", REQUIRED, "efficiency"),
            "dark_rate_cps": Leaf("float", REQUIRED, "dark_rate_cps"),
            "afterpulse_prob": Leaf("float", 0.0),
        },
        "idler": {
            "mode": _choice(d.IDLER_MODES),
            "efficiency": Leaf("float", REQUIRED, "efficiency"),
            "dark_prob_per_gate": Leaf("float", REQUIRED, "dark_prob_per_gate"),
            "afterpulse_prob": Leaf("float", d.AFTERPULSE_PROB, "afterpulse_prob"),
            # the model counts per gate, whatever the gate's width
            "gate_width_ns": Leaf("float", None, descriptive=True),
            "gate_rate_hz": Leaf("float", d.GATE_RATE_HZ, "gate_rate_hz"),
        },
        "coincidence_window_gates": Leaf("int", d.COINCIDENCE_WINDOW, "coincidence_window"),
    },
    "dead_time": {
        "tau_us": Leaf("float", REQUIRED, "tau_us"),
        "model": _choice(d.DEAD_TIME_MODELS, "model"),
    },
    "channel": {
        "loss_db_per_km": Leaf("float", d.LOSS_DB_PER_KM, "loss_db_per_km"),
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
        "mode": _choice(d.RUN_MODES, "mode"),
        "n_pulses": Leaf("int", None, "n_pulses"),
        "seed": Leaf("int", None, "seed"),
        "outputs": Leaf("str", "out"),
        "sweep_mu": Leaf("number_list", None, "mu_values"),
        "g2_arm": _choice(d.HBT_ARMS, "arm"),
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


def keyed(exc: Exception, *keys: str) -> ValidationError:
    """``exc`` as a ValidationError naming the scenario ``keys`` at fault."""
    listed = ", ".join(map(repr, keys[:-1])) + " and " * (len(keys) > 1) + repr(keys[-1])
    return ValidationError(f"scenario key{'s' * (len(keys) > 1)} {listed}: {exc}")


# the sections that feed SetupConfig's detectors, for a field such as herald.efficiency
_PARTS = {"herald": "detectors.herald.", "idler_detector": "detectors.idler."}


def _key(field: str, within: str) -> str | None:
    part, _, field = field.rpartition(".")
    within = _PARTS.get(part, within)
    field = "mu" if field == "mean" else field  # SetupConfig hands mu to its pair law as the law's mean
    keys = [key for key, leaf in leaves() if leaf.field == field]
    keys = [key for key in keys if key.startswith(within)] or keys
    return keys[0] if len(keys) == 1 else None


def named(exc: ValidationError, within: str = "") -> ValidationError:
    """``exc`` naming the scenario key that feeds its field (each of its
    fields, where it holds a tuple), the one under ``within`` where several
    do (both detectors have an efficiency), or ``exc`` itself where a field
    is fed by no key."""
    fields = exc.field if isinstance(exc.field, tuple) else (exc.field,)
    keys = [_key(field, within) for field in fields if field]
    return keyed(exc, *keys) if keys and None not in keys else exc


# joint-spectrum cells a scenario's grid may ask for: 2048 x 2048, 81 times the
# bundled 321 x 161 grid.  At the bound the spectrum subcommand writes a 0.2 GB
# spectrum.csv and peaks at about 0.65 GB resident.
MAX_GRID_CELLS = 2**22

# libyaml's scanner where PyYAML was built with it; both keep the safe
# constructor and the YAML 1.1 resolver, so they build the same data
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


# Distinct texts a process keeps parsed: a scan re-reads one scenario and a few
# override values, so one document and its overrides stay cached.
YAML_CACHE_TEXTS = 64

_parsed = functools.lru_cache(maxsize=YAML_CACHE_TEXTS)(yaml.load)


def _load_yaml(text: str, what: str = "scenario"):
    """``text`` parsed: the cached object, which no caller writes into (the walk
    and :func:`_override` copy); a YAML error is a ValidationError naming ``what``."""
    try:
        return _parsed(text, _LOADER)
    except yaml.YAMLError as exc:
        raise ValidationError(f"{what} is not valid YAML: {exc}") from exc


# strings such as "8.2e7", which YAML 1.1 leaves unparsed, are coerced to a numeric kind
def _coerce(value, kind: str, dotted: str, choices: tuple[str, ...] = ()):
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
    if kind == "choice":
        if value not in choices:
            raise ValidationError(f"scenario key {dotted!r}: expected one of {', '.join(choices)}, got {value!r}")
        return value
    raise AssertionError(f"unhandled schema kind {kind}")


def _override(data: dict, overrides: list[str]) -> dict:
    """``data`` with the ``section.key=value`` overrides applied, values parsed
    as YAML; each mapping on an override's path is copied, never written."""
    out = dict(data)
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        keys = path.strip().split(".")
        if not all(keys):
            raise ValidationError(f"override path {path!r} is malformed")
        node = out
        for key in keys[:-1]:
            child = node.get(key, {})
            if not isinstance(child, dict):
                raise ValidationError(f"override path {path!r} crosses a scalar")
            node[key] = node = dict(child)
        node[keys[-1]] = _load_yaml(raw, f"override {item!r}")
    return out


class Section(dict):
    """A validated scenario mapping.  Its constructor is the one walk from
    parsed YAML to scenario data: it rejects unknown keys and non-mappings,
    coerces each value to its kind and wraps each sub-mapping.  A key it
    lacks reads as its schema default; one without a default, or a section
    with a required key, raises ValidationError naming its dotted path."""

    def __init__(self, data, path: str = "", schema: dict = SCHEMA):
        if not isinstance(data, dict):
            raise ValidationError(f"scenario key {path[:-1]!r} must be a mapping" if path else
                                  "scenario must be a mapping of sections")
        super().__init__()
        self.path, self.schema = path, schema
        for key, value in data.items():
            dotted = f"{path}{key}"
            if key not in schema:
                raise ValidationError(f"unknown scenario key {dotted!r}")
            sub = schema[key]
            if isinstance(sub, dict):
                value = Section(value, dotted + ".", sub)
            elif value is not None or sub.default is not None:  # a key whose default is no value may be null
                value = _coerce(value, sub.kind, dotted, sub.choices)
            self[key] = value

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
    """Scenario document, valid by construction: ``data`` is walked once into a
    :class:`Section` tree, and a ValidationError names the dotted key at fault."""

    data: dict

    def __post_init__(self):
        object.__setattr__(self, "data", Section(self.data))

    def section(self, name: str) -> Section:
        # a missing section reads as in Section.__missing__
        return self.data[name]

    def sha256(self) -> str:
        return hashlib.sha256(
            json.dumps(self.data, sort_keys=True, default=float).encode()
        ).hexdigest()

    # ---- builders: each imports its model when called ----------------------
    def to_setup_config(self) -> SetupConfig:
        from .detectors import DeadTimeSpec, FreeRunningDetector, GatedDetector
        from .experiment import SetupConfig
        loss = self.section("losses")
        det = self.section("detectors")
        idler = det["idler"]
        afterpulse, default = det["herald"]["afterpulse_prob"], det.schema["herald"]["afterpulse_prob"].default
        if afterpulse != default:  # the herald model has no afterpulsing
            raise ValidationError(f"scenario key 'detectors.herald.afterpulse_prob' must be {default}, got {afterpulse!r}")
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
        from .phase_matching import CrystalSpec, SellmeierCoefficients
        cry = self.section("crystal")
        sellmeier = {key: SellmeierCoefficients(*cry[key]) for key in ("sellmeier_ordinary", "sellmeier_extraordinary")}
        return _build(CrystalSpec, cry, "length_mm", "cut_angle_deg", "name", **sellmeier)

    def spectral_grid(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np
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
        return (np.linspace(grid["signal_min_nm"], grid["signal_max_nm"], signal),
                np.linspace(grid["idler_min_nm"], grid["idler_max_nm"], idler))

    def to_channel(self) -> ChannelSpec:
        from .qkd import ChannelSpec
        return _build(ChannelSpec, self.section("channel"), *SCHEMA["channel"])

    def to_counts(self) -> CountRates:
        from .experiment import CountRates
        counts = self.section("counts")
        coincidences, triggers = counts["coincidences_cps"], counts["trigger_rate_cps"]
        return _build(CountRates, counts, *SCHEMA["counts"],
                      per_trigger_coincidence_prob=coincidences / triggers if triggers > 0 else 0.0)


def parse_scenario(text: str, overrides: list[str] | None = None) -> Scenario:
    data = _load_yaml(text)
    if overrides and isinstance(data, dict):  # a document that is no mapping fails in Scenario
        data = _override(data, overrides)
    return Scenario(data)


def load_scenario(path: str | Path, overrides: list[str] | None = None) -> Scenario:
    """Load a scenario from disk, or from the bundled set by bare name."""
    p = Path(path)
    if p.is_file():
        return parse_scenario(p.read_text(), overrides)
    name = p.name if p.name.endswith(".scenario") else p.name + ".scenario"
    bundled = BUNDLED_DIR / name
    if bundled.is_file():
        return parse_scenario(bundled.read_text(), overrides)
    raise ValidationError(f"scenario file {str(path)!r} not found (and no bundled scenario matches)")
