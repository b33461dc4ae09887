"""Command-line interface: scenario execution and result emission.

Every subcommand reads one scenario file, applies ``--override`` entries,
executes, writes a JSON record and a CSV table into the output directory,
and prints a short human summary.  Identical invocations with an identical
seed produce bit-identical artifacts (no timestamps in the outputs).

Exit codes: 0 success, 2 validation failure, 3 numerical failure, 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import __version__
from .errors import NumericalError, SpdcHeraldError, ValidationError
from .estimator import equivalent_wcp, estimate_source
from .experiment import hbt_g2, heralded_photon_statistics, simulate_counts
from .phase_matching import (
    WavelengthTriple,
    collinear_mismatch,
    collinear_pm_angle,
    heralded_marginal_bandwidth,
    joint_spectral_intensity,
    tuning_curve,
)
from .qkd import multiphoton_fraction, pump_sweep
from .scenario import Scenario, load_scenario

SUBCOMMANDS = (
    "simulate",
    "herald-stats",
    "estimate",
    "wcp-compare",
    "sweep",
    "phasematch",
    "spectrum",
    "g2",
)

# scenario sections each subcommand reads
_USED_SECTIONS = {
    "simulate": {"source", "losses", "detectors", "dead_time", "run"},
    "herald-stats": {"source", "losses", "detectors", "dead_time", "run"},
    "estimate": {"counts", "source", "losses", "detectors", "run"},
    "wcp-compare": {"source", "losses", "detectors", "dead_time", "run"},
    "sweep": {"source", "losses", "detectors", "dead_time", "channel", "run"},
    "phasematch": {"crystal", "run"},
    "spectrum": {"crystal", "run"},
    "g2": {"source", "losses", "detectors", "dead_time", "run"},
}

OUTPUT_DIR_ENV = "SPDCHERALD_OUT"


def _write_json(path: Path, command: str, scenario: Scenario, result: dict, run: dict) -> None:
    record = {
        "command": command,
        "provenance": {
            "version": __version__,
            "config_sha256": scenario.sha256(),
            "mode": run.get("mode"),
            "n_pulses": run.get("n_pulses"),
            "seed": run.get("seed"),
        },
        "result": result,
    }
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _run_params(scenario: Scenario, args) -> dict:
    run = dict(scenario.run)
    if args.mode is not None:
        run["mode"] = args.mode
    if args.pulses is not None:
        run["n_pulses"] = args.pulses
    if args.seed is not None:
        run["seed"] = args.seed
    run.setdefault("mode", "analytic")
    if run["mode"] == "analytic":
        # seed/pulses are irrelevant to analytic output; keep records stable
        run["n_pulses"] = None
        run["seed"] = None
    run["counts_file"] = getattr(args, "counts", None)
    return run


def _counts_from_file(path: str):
    """CountRates from a JSON record (as written by `simulate`) or a CSV row."""
    from .experiment import CountRates

    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"counts file {path!r} not found")
    if p.suffix.lower() == ".csv":
        with p.open() as fh:
            rows = list(csv.reader(fh))
        if len(rows) < 2:
            raise ValidationError(f"counts file {path!r} has no data row")
        record = {k: float(v) for k, v in zip(rows[0], rows[1])}
    else:
        loaded = json.loads(p.read_text())
        record = loaded.get("result", loaded)
    try:
        trigger = record["trigger_rate_cps"]
        coinc = record["coincidences_cps"]
        return CountRates(
            signal_singles=record["signal_singles_cps"],
            idler_singles=record["idler_singles_cps"],
            coincidences=coinc,
            trigger_rate=trigger,
            gate_rate=record["gate_rate_hz"],
            per_trigger_coincidence_prob=coinc / trigger if trigger > 0 else 0.0,
        )
    except KeyError as exc:
        raise ValidationError(f"counts file {path!r} is missing the {exc} field") from exc
    except ValidationError as exc:
        raise ValidationError(f"counts file {path!r}: {exc}") from exc


def _sim_kwargs(run: dict) -> dict:
    return {"mode": run["mode"], "n_pulses": run.get("n_pulses"), "seed": run.get("seed")}


def run_scenario(path: str, subcommand: str, overrides: list[str] | None = None, args=None) -> int:
    """Execute one subcommand against a scenario file; returns the exit code."""
    if args is None:
        args = argparse.Namespace(mode=None, pulses=None, seed=None, out_dir=None, counts=None)
    scenario = load_scenario(path, overrides or [])
    unused = sorted(set(scenario.data) - _USED_SECTIONS[subcommand])
    if unused:
        sys.stderr.write(f"note: sections not used by {subcommand!r}: {', '.join(unused)}\n")
    run = _run_params(scenario, args)
    out_dir = Path(args.out_dir or os.environ.get(OUTPUT_DIR_ENV) or run.get("outputs") or "out")
    out_dir.mkdir(parents=True, exist_ok=True)

    handler = _HANDLERS[subcommand]
    handler(scenario, run, out_dir)
    return 0


def _cmd_simulate(scenario: Scenario, run: dict, out: Path) -> None:
    counts = simulate_counts(scenario.to_setup_config(), **_sim_kwargs(run))
    d = counts.to_dict()
    _write_json(out / "counts.json", "simulate", scenario, d, run)
    _write_csv(out / "counts.csv", list(d.keys()), [[d[k] for k in d]])
    print(f"simulate ({run['mode']})")
    print(f"  signal singles : {counts.signal_singles:12.1f} cps")
    print(f"  trigger rate   : {counts.trigger_rate:12.1f} cps")
    print(f"  idler singles  : {counts.idler_singles:12.2f} cps @ {counts.gate_rate:.0f} Hz gating")
    print(f"  coincidences   : {counts.coincidences:12.1f} cps")
    print(f"  coinc/trigger  : {counts.per_trigger_coincidence_prob:12.6f}")
    print(f"  wrote {out / 'counts.json'} and counts.csv")


def _cmd_herald_stats(scenario: Scenario, run: dict, out: Path) -> None:
    stats = heralded_photon_statistics(scenario.to_setup_config(), **_sim_kwargs(run))
    _write_json(out / "herald_stats.json", "herald-stats", scenario, stats.to_dict(), run)
    _write_csv(
        out / "herald_stats.csv",
        ["n", "probability"],
        [[n, float(p)] for n, p in enumerate(stats.p)],
    )
    print(f"heralded photon-number statistics ({run['mode']})")
    for n, p in enumerate(stats.p[:4]):
        print(f"  P({n}) = {p:.6g}")
    print(f"  multiphoton fraction = {multiphoton_fraction(stats):.6g}")
    print(f"  wrote {out / 'herald_stats.json'} and herald_stats.csv")


def _cmd_estimate(scenario: Scenario, run: dict, out: Path) -> None:
    counts_file = run.get("counts_file")
    counts = _counts_from_file(counts_file) if counts_file else scenario.to_counts()
    estimate = estimate_source(counts, scenario.to_known_losses())
    d = estimate.to_dict()
    _write_json(out / "estimate.json", "estimate", scenario, d, run)
    _write_csv(
        out / "estimate.csv",
        ["mu", "pair_rate_per_s", "alpha_signal", "alpha_idler"],
        [[estimate.mu, estimate.pair_rate, estimate.alpha_signal, estimate.alpha_idler]],
    )
    print("source estimate from measured counts")
    print(f"  mu            = {estimate.mu:.6f} pairs/pulse")
    print(f"  pair rate     = {estimate.pair_rate:.4g} pairs/s")
    print(f"  alpha_signal  = {estimate.alpha_signal:.4f}")
    print(f"  alpha_idler   = {estimate.alpha_idler:.4f}")
    print(f"  heralded P(1) = {estimate.heralded.probability(1):.4f}")
    print(f"  wrote {out / 'estimate.json'} and estimate.csv")


def _cmd_wcp_compare(scenario: Scenario, run: dict, out: Path) -> None:
    stats = heralded_photon_statistics(scenario.to_setup_config(), **_sim_kwargs(run))
    p1, p2 = stats.probability(1), stats.probability(2)
    comparison = equivalent_wcp(p1, p2_source=p2)
    result = {"p1": p1, "p2_source": p2, **comparison.to_dict()}
    _write_json(out / "wcp_compare.json", "wcp-compare", scenario, result, run)
    _write_csv(
        out / "wcp_compare.csv",
        ["p1", "mu_coherent", "p2_coherent", "p2_source", "suppression_ratio"],
        [[p1, comparison.mu_coherent, comparison.p2_coherent, p2, comparison.suppression_ratio]],
    )
    print("attenuated-coherent-source comparison at matched P(1)")
    print(f"  P(1)              = {p1:.6f}")
    print(f"  coherent mu       = {comparison.mu_coherent:.6f}")
    print(f"  coherent P(2)     = {comparison.p2_coherent:.6g}")
    print(f"  source P(2)       = {p2:.6g}")
    print(f"  suppression ratio = {comparison.suppression_ratio:.3f}")
    print(f"  wrote {out / 'wcp_compare.json'} and wcp_compare.csv")


def _cmd_sweep(scenario: Scenario, run: dict, out: Path) -> None:
    src = scenario.section("source")
    rows = pump_sweep(
        scenario.to_setup_config(),
        run.get("sweep_mu") or [src["mu"]],
        scenario.to_channel(),
        pairs_per_pulse_per_mw=src.get("pairs_per_pulse_per_mw", 0.0) or 0.0,
    )
    table = [
        [r.mu, r.pump_power_mw, r.trigger_rate, r.p1, r.p2, r.max_secure_km] for r in rows
    ]
    _write_csv(out / "sweep.csv", ["mu", "pump_mW", "trigger_cps", "p1", "p2", "max_km"], table)
    _write_json(
        out / "sweep.json",
        "sweep",
        scenario,
        {"rows": [r.__dict__ for r in rows]},
        run,
    )
    print("pump-power tradeoff sweep")
    print(f"  {'mu':>8} {'pump mW':>9} {'trigger':>10} {'P(1)':>9} {'P(2)':>10} {'max km':>8}")
    for r in rows:
        if r.error:
            print(f"  {r.mu:8.4f}  row failed: {r.error}")
        else:
            print(
                f"  {r.mu:8.4f} {r.pump_power_mw:9.1f} {r.trigger_rate:10.0f}"
                f" {r.p1:9.5f} {r.p2:10.3e} {r.max_secure_km:8.1f}"
            )
    print(f"  wrote {out / 'sweep.json'} and sweep.csv")


def _cmd_phasematch(scenario: Scenario, run: dict, out: Path) -> None:
    crystal = scenario.to_crystal()
    cry = scenario.section("crystal")
    pump = cry["pump_center_nm"]
    signal = cry["signal_center_nm"]
    triple = WavelengthTriple.from_pump_signal(pump, signal)
    theta = collinear_pm_angle(crystal, triple)
    curve = tuning_curve(crystal, theta, pump, (signal - 40.0, signal + 40.0), 201)
    result = {
        "pump_nm": triple.pump_nm,
        "signal_nm": triple.signal_nm,
        "idler_nm": triple.idler_nm,
        "phase_matching_angle_deg": theta,
        "cut_angle_deg": crystal.cut_angle_deg,
        "residual_rad_per_mm": collinear_mismatch(crystal, theta, triple) * 1e6,
    }
    _write_json(out / "phasematch.json", "phasematch", scenario, result, run)
    _write_csv(
        out / "tuning_curve.csv",
        ["signal_nm", "idler_nm", "mismatch_rad_per_mm"],
        curve.tolist(),
    )
    print("collinear type-I phase matching")
    print(f"  triple          : {triple.pump_nm:.1f} -> {triple.signal_nm:.1f} + {triple.idler_nm:.1f} nm")
    print(f"  solved angle    : {theta:.4f} deg (crystal cut {crystal.cut_angle_deg:.2f} deg)")
    print(f"  wrote {out / 'phasematch.json'} and tuning_curve.csv")


def _cmd_spectrum(scenario: Scenario, run: dict, out: Path) -> None:
    crystal = scenario.to_crystal()
    cry = scenario.section("crystal")
    pump = cry["pump_center_nm"]
    signal = cry["signal_center_nm"]
    theta = collinear_pm_angle(crystal, WavelengthTriple.from_pump_signal(pump, signal))
    sig_axis, idl_axis = scenario.spectral_grid()
    spectrum = joint_spectral_intensity(
        crystal, theta, pump, cry["pump_fwhm_nm"], sig_axis, idl_axis
    )
    fwhm = heralded_marginal_bandwidth(
        spectrum, cry.get("signal_center_nm", signal), cry.get("signal_fwhm_nm", 6.0)
    )
    peak_s, peak_i = spectrum.peak()
    result = {
        "phase_matching_angle_deg": theta,
        "peak_signal_nm": peak_s,
        "peak_idler_nm": peak_i,
        "heralded_idler_fwhm_nm": fwhm,
        "signal_filter_fwhm_nm": cry.get("signal_fwhm_nm", 6.0),
    }
    _write_json(out / "spectrum.json", "spectrum", scenario, result, run)
    idler_axis = spectrum.idler_axis.tolist()
    rows = [
        [s, w, v]
        for s, row in zip(spectrum.signal_axis.tolist(), spectrum.intensity.tolist())
        for w, v in zip(idler_axis, row)
    ]
    _write_csv(out / "spectrum.csv", ["signal_nm", "idler_nm", "intensity"], rows)
    print("joint spectral intensity")
    print(f"  peak            : ({peak_s:.2f}, {peak_i:.2f}) nm")
    print(f"  heralded idler  : {fwhm:.2f} nm FWHM behind the signal bandpass")
    print(f"  wrote {out / 'spectrum.json'} and spectrum.csv ({len(rows)} cells)")


def _cmd_g2(scenario: Scenario, run: dict, out: Path) -> None:
    result = hbt_g2(
        scenario.to_setup_config(),
        arm=run.get("g2_arm", "signal_unconditioned"),
        splitter_ratio=run.get("splitter_ratio", 0.5),
        **_sim_kwargs(run),
    )
    d = {"arm": result.arm, "mode": result.mode, "g2": result.value, "stderr": result.stderr}
    _write_json(out / "g2.json", "g2", scenario, d, run)
    _write_csv(out / "g2.csv", ["arm", "mode", "g2", "stderr"], [[result.arm, result.mode, result.value, result.stderr]])
    print(f"g2(0) of the {result.arm} arm ({result.mode})")
    print(f"  g2 = {result.value:.6f} +- {result.stderr:.6f}")
    print(f"  wrote {out / 'g2.json'} and g2.csv")


_HANDLERS = {
    "simulate": _cmd_simulate,
    "herald-stats": _cmd_herald_stats,
    "estimate": _cmd_estimate,
    "wcp-compare": _cmd_wcp_compare,
    "sweep": _cmd_sweep,
    "phasematch": _cmd_phasematch,
    "spectrum": _cmd_spectrum,
    "g2": _cmd_g2,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdcherald",
        description="Heralded single-photon source simulation and estimation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} analysis")
        p.add_argument("scenario", help="scenario file path or bundled name (e.g. paper.scenario)")
        p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                       help="override a scenario entry, e.g. source.mu=0.1")
        p.add_argument("--mode", choices=["analytic", "monte_carlo"], default=None)
        p.add_argument("--pulses", type=int, default=None, help="Monte Carlo pulse count")
        p.add_argument("--seed", type=int, default=None, help="Monte Carlo seed")
        p.add_argument("--out-dir", default=None,
                       help=f"output directory (default: ${OUTPUT_DIR_ENV} or the scenario's run.outputs)")
        if name == "estimate":
            p.add_argument(
                "--counts", default=None, metavar="FILE",
                help="CountRates record (counts.json or counts.csv) instead of the scenario's counts section",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_scenario(args.scenario, args.command, args.override, args)
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 2
    except (NumericalError, FloatingPointError, ZeroDivisionError) as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 4
    except SpdcHeraldError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
