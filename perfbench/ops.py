"""The operations the benchmark sends to spdcherald, shared by the workers and
by ``capture.py``, which records their reference outputs.

Library functions are looked up on their modules at call time, so that the
wrappers a traced run installs see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
import spdcherald.cli as cli
import spdcherald.detectors as detectors
import spdcherald.estimator as estimator
import spdcherald.experiment as experiment
import spdcherald.phase_matching as pm
import spdcherald.qkd as qkd

SCENARIO = "paper.scenario"
# relative error in mu above which an inversion counts as a round-trip miss
ROUNDTRIP_TOL = 1e-6
# the bundled scenario's spectral grid and signal filter
SIGNAL_AXIS = np.linspace(481.0, 561.0, 321)
IDLER_AXIS = np.linspace(1471.0, 1671.0, 161)
SIGNAL_FILTER_FWHM_NM = 6.0
TUNING_HALF_SPAN_NM = 40.0
TUNING_POINTS = 201


def setup_config(spec: dict) -> experiment.SetupConfig:
    """Reference setup with the law, mu, modes, window and dead-time model of ``spec``."""
    return replace(
        experiment.reference_setup(),
        law=spec["law"],
        mu=spec["mu"],
        modes=spec.get("modes"),
        coincidence_window=spec.get("window", 1),
        trigger_dead_time=detectors.DeadTimeSpec(tau_us=1.0, model=spec.get("dead_time", "paralyzable")),
    )


# ---------------------------------------------------------------------------
# design tasks


def sweep(entry: dict) -> list[dict]:
    rows = qkd.pump_sweep(setup_config(entry["config"]), entry["mu_grid"], qkd.ChannelSpec())
    return [dict(r.__dict__) for r in rows]


def inversion(entry: dict) -> tuple[dict, dict]:
    """Forward counts, then the estimate and its coherent-source comparison."""
    config = setup_config(entry["config"])
    counts = experiment.simulate_counts(config)
    est = estimator.estimate_source(counts, estimator.KnownLosses.from_setup(config))
    p = est.heralded
    wcp = estimator.equivalent_wcp(p.probability(1), p2_source=p.probability(2))
    return counts.to_dict(), {"estimate": est.to_dict(), "wcp": wcp.to_dict()}


def spectral(entry: dict):
    """Angle, tuning curve, joint spectrum and heralded bandwidth; returns the raw results."""
    crystal = pm.CrystalSpec()
    pump, signal = entry["pump_nm"], entry["signal_nm"]
    theta = pm.collinear_pm_angle(crystal, pm.WavelengthTriple.from_pump_signal(pump, signal))
    curve = pm.tuning_curve(
        crystal, theta, pump, (signal - TUNING_HALF_SPAN_NM, signal + TUNING_HALF_SPAN_NM), TUNING_POINTS
    )
    jsi = pm.joint_spectral_intensity(crystal, theta, pump, entry["pump_fwhm_nm"], SIGNAL_AXIS, IDLER_AXIS)
    fwhm = pm.heralded_marginal_bandwidth(jsi, signal, SIGNAL_FILTER_FWHM_NM)
    return theta, curve, jsi, fwhm


def spectral_summary(theta, curve, jsi, fwhm) -> dict:
    """What is compared of a spectral task: the JSI through its marginals."""
    return {
        "theta_deg": theta,
        "curve": curve.T.tolist(),
        "jsi_signal_marginal": jsi.signal_marginal().tolist(),
        "jsi_idler_marginal": jsi.idler_marginal().tolist(),
        "jsi_peak": list(jsi.peak()),
        "heralded_fwhm_nm": fwhm,
    }


def compare_spectral(summary: dict, ref: dict) -> list[str]:
    errors = []
    for key, value in ref.items():
        if key == "curve":
            # the mismatch column crosses zero: floor at 1e-12 of its scale
            for i, (col, ref_col) in enumerate(zip(summary[key], value)):
                floor = checks.REL_TOL * max(abs(v) for v in ref_col)
                errors += checks.compare(col, ref_col, floor=floor, path=f"curve[{i}]")
        else:
            errors += checks.compare(summary[key], value, path=key)
    return errors


def check_inversion(entry: dict, counts: dict, result: dict) -> tuple[list[str], bool]:
    """(errors, miss): forward counts against the reference, estimates finite."""
    errors = checks.compare(counts, entry["ref"]["counts"], path="counts")
    errors += checks.non_finite(result, "estimate")
    mu_true = entry["config"]["mu"]
    miss = not abs(result["estimate"]["mu"] / mu_true - 1.0) <= ROUNDTRIP_TOL
    return errors, miss


# ---------------------------------------------------------------------------
# CLI invocations


def cli_argv(entry: dict, out_dir) -> list[str]:
    argv = [entry["subcommand"], SCENARIO]
    for item in entry["overrides"]:
        argv += ["--override", item]
    return argv + ["--out-dir", str(out_dir)]


def cli_in_process(argv: list[str]) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code


def cli_subprocess(argv: list[str], boot: list[str] | None = None) -> int:
    """Run the CLI in a fresh interpreter, or through the traced bootstrap ``boot``.

    The interpreter inherits this process's environment, whose PYTHONPATH
    points at the checkout's sources.
    """
    cmd = [sys.executable] + (boot if boot else ["-m", "spdcherald.cli"]) + argv
    return subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def cli_artifacts(out_dir: Path) -> dict:
    """JSON results and CSV fingerprints of everything a CLI call wrote."""
    out = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".json":
            out[path.name] = json.loads(path.read_text())["result"]
        elif path.suffix == ".csv":
            out[path.name] = checks.csv_fingerprint(path)
    return out


def check_cli(entry: dict, code: int, artifacts: dict) -> list[str]:
    """Exit code 0; `estimate` finite, every other artifact equal to the reference."""
    if code != 0:
        return [f"exit code {code}"]
    ref = entry["ref"]
    errors = [f"{name}: not written" for name in ref if name not in artifacts]
    for name, got in artifacts.items():
        if entry["subcommand"] == "estimate":
            errors += checks.non_finite(got, name)
        elif name not in ref:
            continue
        elif name.endswith(".csv"):
            errors += checks.compare_csv(got, ref[name], path=name)
        else:
            errors += checks.compare(got, ref[name], path=name)
    return errors


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
