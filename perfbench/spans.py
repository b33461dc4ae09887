"""Spans around calls into spdcherald's public functions, and the per-layer
metrics derived from them.

Only a traced run installs the wrappers.  Each wrapper replaces a function on
its own module and under every name another ``spdcherald`` module imported it
as (``qkd.simulate_counts`` is the same function as
``experiment.simulate_counts``), so nested calls are recorded too.  Spans stay
in memory and are written out when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import stats
from inputs import SUBCOMMANDS

# module -> public functions wrapped in a traced run
FUNCTIONS = {
    "spdcherald.scenario": ["load_scenario"],
    "spdcherald.cli": ["run_scenario"],
    "spdcherald.experiment": ["simulate_counts", "heralded_photon_statistics", "hbt_g2"],
    "spdcherald.detectors": ["simulate_dead_time"],
    "spdcherald.estimator": ["estimate_source", "equivalent_wcp"],
    "spdcherald.qkd": ["pump_sweep", "max_secure_distance", "expected_detection_probability"],
    "spdcherald.phase_matching": [
        "collinear_pm_angle",
        "collinear_mismatch",
        "tuning_curve",
        "joint_spectral_intensity",
        "heralded_marginal_bandwidth",
    ],
}
METHODS = {"spdcherald.pair_source": ("PairNumberDistribution", ["pmf_vector"])}

MC_FUNCTIONS = ("simulate_counts", "heralded_photon_statistics", "hbt_g2")
FAMILIES = ("sparse", "dense")


class Tracer:
    """Records spans (name, start, end, parent, operation id) in memory."""

    def __init__(self, root_parent: str | None = None, op: str | None = None):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._ids = itertools.count()
        self._prefix = str(os.getpid())
        self.root_parent = root_parent
        self.op = op

    @contextmanager
    def span(self, name: str, op: str | None = None, sid: str | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": sid or f"{self._prefix}:{next(self._ids)}",
            "name": name,
            "parent": parent["id"] if parent else self.root_parent,
            "op": op or (parent["op"] if parent else self.op),
            "attrs": attrs,
        }
        self._stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _call_attrs(name: str, kwargs: dict, result) -> dict:
    if name == "phase_matching.joint_spectral_intensity":
        return {"cells": int(result.intensity.size)}
    attrs = {}
    if "mode" in kwargs:
        attrs["mode"] = kwargs["mode"]
    if "n_pulses" in kwargs:
        attrs["n_pulses"] = kwargs["n_pulses"]
    return attrs


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
            rec["attrs"].update(_call_attrs(name, kwargs, result))
            return result

    return traced


def install(tracer: Tracer) -> list:
    """Wrap every traced function; returns what :func:`uninstall` restores."""
    wrappers = {}
    for modname, names in FUNCTIONS.items():
        mod = importlib.import_module(modname)
        short = modname.split(".", 1)[1]
        for name in names:
            fn = getattr(mod, name)
            wrappers[id(fn)] = (fn, _wrap(tracer, f"{short}.{name}", fn))
    restore = []
    for modname, mod in list(sys.modules.items()):
        if modname != "spdcherald" and not modname.startswith("spdcherald."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                restore.append((mod, attr, value))
    for modname, (clsname, names) in METHODS.items():
        cls = getattr(importlib.import_module(modname), clsname)
        short = modname.split(".", 1)[1]
        for name in names:
            fn = getattr(cls, name)
            setattr(cls, name, _wrap(tracer, f"{short}.{name}", fn))
            restore.append((cls, name, fn))
    return restore


def uninstall(restore: list) -> None:
    for obj, attr, value in reversed(restore):
        setattr(obj, attr, value)


# ---------------------------------------------------------------------------
# span arithmetic


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children[s["id"]], s["start"], s["end"])
        for s in spans
    }


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run (see perfbench/README.md)."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def parent_name(s):
        p = by_id.get(s["parent"])
        return p["name"] if p else None

    def per_parent(child: str, parent: str) -> float:
        n_parent = len(by_name[parent])
        n_child = sum(1 for s in by_name[child] if parent_name(s) == parent)
        return n_child / n_parent if n_parent else 0.0

    def is_mc(s):
        return s["attrs"].get("mode") == "monte_carlo"

    def family(s):
        p = by_id.get(s["parent"])
        return p["attrs"].get("family") if p else None

    out = {"scenario.load_s": mean(dur(s) for s in by_name["scenario.load_scenario"])}

    cli_ops = by_name["op.cli"]
    out["cli.self_s"] = mean(own[s["id"]] for s in by_name["cli.run_scenario"])
    out["cli.bytes_written"] = mean(s["attrs"]["bytes"] for s in cli_ops)
    for sub in SUBCOMMANDS:
        walls = [dur(s) for s in cli_ops if s["attrs"]["subcommand"] == sub]
        out[f"cli.wall_s.{sub}"] = stats.median(walls) if walls else 0.0

    pmf = by_name["pair_source.pmf_vector"]
    out["pair_source.pmf_vector.calls"] = len(pmf)
    out["pair_source.pmf_vector.self_s"] = mean(own[s["id"]] for s in pmf)

    for fn in MC_FUNCTIONS:
        analytic = [s for s in by_name[f"experiment.{fn}"] if not is_mc(s)]
        out[f"experiment.{fn}.calls"] = len(analytic)
        out[f"experiment.{fn}.self_s"] = mean(own[s["id"]] for s in analytic)
    mc_spans = [s for fn in MC_FUNCTIONS for s in by_name[f"experiment.{fn}"] if is_mc(s)]
    for fn in MC_FUNCTIONS:
        for fam in FAMILIES:
            sel = [s for s in mc_spans if s["name"] == f"experiment.{fn}" and family(s) == fam]
            pulses = sum(s["attrs"]["n_pulses"] for s in sel)
            out[f"experiment.mc.{fn}.ns_per_pulse.{fam}"] = (
                sum(map(dur, sel)) / pulses * 1e9 if pulses else 0.0
            )
    out["experiment.mc.pulses"] = sum(s["attrs"]["n_pulses"] for s in mc_spans)
    mc_ops = [s for s in by_name["op.mc"] if "occupied" in s["attrs"]]
    weight = sum(s["attrs"]["pulses"] for s in mc_ops)
    out["experiment.mc.occupied_fraction"] = (
        sum(s["attrs"]["occupied"] * s["attrs"]["pulses"] for s in mc_ops) / weight if weight else 0.0
    )
    dead = by_name["detectors.simulate_dead_time"]
    dead_pulses = sum(s["attrs"]["n_pulses"] for s in dead)
    out["detectors.simulate_dead_time.ns_per_pulse"] = (
        sum(map(dur, dead)) / dead_pulses * 1e9 if dead_pulses else 0.0
    )

    out["estimator.estimate_source.self_s"] = mean(own[s["id"]] for s in by_name["estimator.estimate_source"])
    out["estimator.forward_calls_per_inversion"] = sum(
        per_parent(f"experiment.{fn}", "estimator.estimate_source") for fn in MC_FUNCTIONS
    )
    out["estimator.equivalent_wcp.self_s"] = mean(own[s["id"]] for s in by_name["estimator.equivalent_wcp"])

    out["qkd.pump_sweep.self_s"] = mean(own[s["id"]] for s in by_name["qkd.pump_sweep"])
    out["qkd.max_secure_distance.self_s"] = mean(own[s["id"]] for s in by_name["qkd.max_secure_distance"])
    out["qkd.secure_evals_per_row"] = per_parent("qkd.expected_detection_probability", "qkd.max_secure_distance")

    for fn in ("collinear_pm_angle", "tuning_curve", "joint_spectral_intensity", "heralded_marginal_bandwidth"):
        out[f"phase_matching.{fn}.self_s"] = mean(own[s["id"]] for s in by_name[f"phase_matching.{fn}"])
    out["phase_matching.mismatch_evals_per_angle"] = per_parent(
        "phase_matching.collinear_mismatch", "phase_matching.collinear_pm_angle"
    )
    out["phase_matching.tuning_curve.mismatch_calls"] = per_parent(
        "phase_matching.collinear_mismatch", "phase_matching.tuning_curve"
    )
    out["phase_matching.joint_spectral_intensity.cells"] = mean(
        s["attrs"]["cells"] for s in by_name["phase_matching.joint_spectral_intensity"]
    )
    return out
