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
import contextlib
import csv
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, defaults
from .errors import DomainError, EmptyMarginalError, EstimationError, NumericalError, SpdcHeraldError
from .errors import ValidationError, check_run
from .scenario import SCHEMA, Scenario, _coerce, keyed, load_scenario, named

if TYPE_CHECKING:  # each compute function imports its model modules when it runs
    from .experiment import CountRates

OUTPUT_DIR_ENV = "SPDCHERALD_OUT"


# the run keys an option can stand in for, and the option; a range error of
# one names the option where the option gave the value
_OPTIONS = {"mode": "mode", "n_pulses": "pulses", "seed": "seed"}


def _run_params(scenario: Scenario, args) -> dict:
    section = scenario.section("run")
    run = {key: section[key] for key in SCHEMA["run"]}
    for key, option in _OPTIONS.items():
        if getattr(args, option) is not None:
            run[key] = getattr(args, option)
    check_run(run["mode"], run["n_pulses"], run["seed"])
    if run["mode"] == "analytic":
        # seed/pulses are irrelevant to analytic output; keep records stable
        run["n_pulses"] = run["seed"] = None
    run["counts_file"] = getattr(args, "counts", None)
    return run


def _counts_from_file(path: str) -> CountRates:
    """CountRates from a JSON record (as written by `simulate`) or a CSV of a
    header and exactly one data row of as many cells, read as the scenario's
    counts section; a per-trigger probability must agree with its rates."""
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"counts file {path!r} not found")
    try:
        if p.suffix.lower() == ".csv":
            with p.open() as fh:
                rows = [row for row in csv.reader(fh) if row]  # a blank line holds no cells
            if len(rows) != 2:
                raise ValidationError(f"expected a header and one data row, found {len(rows)} rows")
            header, values = rows
            if len(values) != len(header):
                raise ValidationError(f"the data row has {len(values)} cells for {len(header)} header cells")
            if len(set(header)) != len(header):
                raise ValidationError(f"the header names a column twice: {','.join(header)}")
            record = dict(zip(header, values))
        else:
            loaded = json.loads(p.read_text())
            record = loaded.get("result", loaded) if isinstance(loaded, dict) else loaded
        # simulate's one column besides the section's keys, derived from them
        given = record.pop("per_trigger_coincidence_prob", None) if isinstance(record, dict) else None
        counts = Scenario({"counts": record}).to_counts()
        derived = counts.per_trigger_coincidence_prob
        if given is not None and counts.trigger_rate > 0 and not math.isclose(
            _coerce(given, "float", "per_trigger_coincidence_prob"), derived, rel_tol=1e-12
        ):
            raise ValidationError(
                f"'per_trigger_coincidence_prob' is {given!r}, but coincidences_cps / trigger_rate_cps is {derived!r}"
            )
        return counts
    except (ValidationError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
        raise ValidationError(f"counts file {path!r}: {exc}") from exc


def _sim_kwargs(run: dict) -> dict:
    return {"mode": run["mode"], "n_pulses": run["n_pulses"], "seed": run["seed"]}


# the keys that set the wavelengths a crystal relation checks
_CENTRES = ("crystal.pump_center_nm", "crystal.signal_center_nm")
_GRID_RANGE = tuple(f"crystal.grid.{axis}_{end}_nm" for axis in ("signal", "idler") for end in ("min", "max"))


@contextlib.contextmanager
def _relation(*keys: str):
    """A ValidationError that names no field, raised inside, names ``keys``:
    the values it rejects are derived from theirs."""
    try:
        yield
    except ValidationError as exc:
        if exc.field is not None:
            raise
        raise keyed(exc, *keys) from None


def _phase_matched(scenario: Scenario) -> tuple:
    """The crystal section, the crystal, its pump/signal triple and their collinear angle."""
    from .phase_matching import WavelengthTriple, collinear_pm_angle
    cry = scenario.section("crystal")
    crystal = scenario.to_crystal()
    triple = WavelengthTriple.from_pump_signal(cry["pump_center_nm"], cry["signal_center_nm"])
    with _relation(*_CENTRES):  # the idler follows from both centres
        return cry, crystal, triple, collinear_pm_angle(crystal, triple)


def _simulate(scenario: Scenario, run: dict) -> tuple:
    from .experiment import simulate_counts
    counts = simulate_counts(scenario.to_setup_config(), **_sim_kwargs(run))
    d = counts.to_dict()
    return "counts.json", d, "counts.csv", list(d), [list(d.values())], [
        f"simulate ({run['mode']})",
        f"  signal singles : {counts.signal_singles:12.1f} cps",
        f"  trigger rate   : {counts.trigger_rate:12.1f} cps",
        f"  idler singles  : {counts.idler_singles:12.2f} cps @ {counts.gate_rate:.0f} Hz gating",
        f"  coincidences   : {counts.coincidences:12.1f} cps",
        f"  coinc/trigger  : {counts.per_trigger_coincidence_prob:12.6f}",
    ]


def _herald_stats(scenario: Scenario, run: dict) -> tuple:
    from .experiment import heralded_photon_statistics
    from .qkd import multiphoton_fraction
    stats = heralded_photon_statistics(scenario.to_setup_config(), **_sim_kwargs(run))
    return (
        "herald_stats.json", stats.to_dict(),
        "herald_stats.csv", ["n", "probability"], [[n, p] for n, p in enumerate(stats.values)],
        [f"heralded photon-number statistics ({run['mode']})"]
        + [f"  P({n}) = {p:.6g}" for n, p in enumerate(stats.values[:4])]
        + [f"  multiphoton fraction = {multiphoton_fraction(stats):.6g}"],
    )


def _estimate(scenario: Scenario, run: dict) -> tuple:
    from .estimator import estimate_source
    counts_file = run["counts_file"]
    counts = _counts_from_file(counts_file) if counts_file else scenario.to_counts()
    try:
        estimate = estimate_source(counts, scenario.to_setup_config())
    except ValidationError as exc:
        # counts read from a file are named by the file and its columns, not by the scenario's keys
        columns = {leaf.field: column for column, leaf in SCHEMA["counts"].items()}
        fields = exc.field if isinstance(exc.field, tuple) else (exc.field,)
        if not counts_file or not all(field in columns for field in fields):
            raise
        listed = ", ".join(repr(columns[field]) for field in fields)
        raise ValidationError(f"counts file {counts_file!r}, columns {listed}: {exc}") from None
    return (
        "estimate.json", estimate.to_dict(),
        "estimate.csv", ["mu", "pair_rate_per_s", "alpha_signal", "alpha_idler"],
        [[estimate.mu, estimate.pair_rate, estimate.alpha_signal, estimate.alpha_idler]],
        [
            "source estimate from measured counts",
            f"  mu            = {estimate.mu:.6f} pairs/pulse",
            f"  pair rate     = {estimate.pair_rate:.4g} pairs/s",
            f"  alpha_signal  = {estimate.alpha_signal:.4f}",
            f"  alpha_idler   = {estimate.alpha_idler:.4f}",
            f"  heralded P(1) = {estimate.heralded.probability(1):.4f}",
        ],
    )


def _wcp_compare(scenario: Scenario, run: dict) -> tuple:
    from .estimator import equivalent_wcp
    from .experiment import heralded_photon_statistics
    stats = heralded_photon_statistics(scenario.to_setup_config(), **_sim_kwargs(run))
    p1, p2 = stats.probability(1), stats.probability(2)
    if p1 == 0.0 or p2 == 0.0:
        # valid inputs can herald no photon, or a P(2) below the 1e-15 that P(n) resolves
        raise EstimationError(
            f"heralded P(1) = {p1:.6g} and P(2) = {p2:.6g}: matching a coherent source needs both positive"
        )
    comparison = equivalent_wcp(p1, p2_source=p2)
    return (
        "wcp_compare.json", {"p1": p1, "p2_source": p2, **comparison.to_dict()},
        "wcp_compare.csv", ["p1", "mu_coherent", "p2_coherent", "p2_source", "suppression_ratio"],
        [[p1, comparison.mu_coherent, comparison.p2_coherent, p2, comparison.suppression_ratio]],
        [
            "attenuated-coherent-source comparison at matched P(1)",
            f"  P(1)              = {p1:.6f}",
            f"  coherent mu       = {comparison.mu_coherent:.6f}",
            f"  coherent P(2)     = {comparison.p2_coherent:.6g}",
            f"  source P(2)       = {p2:.6g}",
            f"  suppression ratio = {comparison.suppression_ratio:.3f}",
        ],
    )


def _sweep(scenario: Scenario, run: dict) -> tuple:
    from .qkd import pump_sweep
    src = scenario.section("source")
    rows = pump_sweep(
        scenario.to_setup_config(),
        [src["mu"]] if run["sweep_mu"] is None else run["sweep_mu"],
        scenario.to_channel(),
        pairs_per_pulse_per_mw=src["pairs_per_pulse_per_mw"],
    )
    summary = [
        "pump-power tradeoff sweep",
        f"  {'mu':>8} {'pump mW':>9} {'trigger':>10} {'P(1)':>9} {'P(2)':>10} {'max km':>8}",
    ] + [
        f"  {r.mu:8.4f}  row failed: {r.error}" if r.error else
        f"  {r.mu:8.4f} {r.pump_power_mw:9.1f} {r.trigger_rate:10.0f}"
        f" {r.p1:9.5f} {r.p2:10.3e} {r.max_secure_km:8.1f}"
        for r in rows
    ]
    # a value the model cannot give (a failed row, no pump calibration) is null
    records = [
        {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in vars(r).items()}
        for r in rows
    ]
    return (
        "sweep.json", {"rows": records},
        "sweep.csv", ["mu", "pump_mW", "trigger_cps", "p1", "p2", "max_km"],
        [[r.mu, r.pump_power_mw, r.trigger_rate, r.p1, r.p2, r.max_secure_km] for r in rows],
        summary,
    )


def _phasematch(scenario: Scenario, run: dict) -> tuple:
    from .phase_matching import collinear_mismatch, tuning_curve
    _, crystal, triple, theta = _phase_matched(scenario)
    signal = triple.signal_nm
    with _relation(*_CENTRES):  # the curve's signal range and its idlers follow from both centres
        curve = tuning_curve(crystal, theta, triple.pump_nm, (signal - 40.0, signal + 40.0), 201)
    result = {
        **vars(triple),
        "phase_matching_angle_deg": theta,
        "cut_angle_deg": crystal.cut_angle_deg,
        "residual_rad_per_mm": collinear_mismatch(crystal, theta, triple) * 1e6,
    }
    return (
        "phasematch.json", result,
        "tuning_curve.csv", ["signal_nm", "idler_nm", "mismatch_rad_per_mm"], curve.tolist(),
        [
            "collinear type-I phase matching",
            f"  triple          : {triple.pump_nm:.1f} -> {triple.signal_nm:.1f} + {triple.idler_nm:.1f} nm",
            f"  solved angle    : {theta:.4f} deg (crystal cut {crystal.cut_angle_deg:.2f} deg)",
        ],
    )


def _spectrum(scenario: Scenario, run: dict) -> tuple:
    from .phase_matching import heralded_marginal_bandwidth, joint_spectral_intensity
    cry, crystal, triple, theta = _phase_matched(scenario)
    sig_axis, idl_axis = scenario.spectral_grid()
    try:
        spectrum = joint_spectral_intensity(
            crystal, theta, triple.pump_nm, cry["pump_fwhm_nm"], sig_axis, idl_axis
        )
    except DomainError as exc:  # a grid wavelength, or the pump a grid cell implies, outside the window
        raise keyed(exc, *_GRID_RANGE) from None
    except ValidationError as exc:
        if exc.field is not None:
            raise
        # the pump envelope and the crystal's sinc^2 ridge vanish on every grid cell
        keys = (*_GRID_RANGE, "crystal.pump_center_nm", "crystal.pump_fwhm_nm", "crystal.length_mm")
        raise keyed(exc, *keys) from None
    filter_fwhm = cry["signal_fwhm_nm"]
    try:
        with _relation("crystal.grid.idler_min_nm", "crystal.grid.idler_max_nm"):  # the FWHM runs past the idler axis
            fwhm = heralded_marginal_bandwidth(spectrum, triple.signal_nm, filter_fwhm)
    except EmptyMarginalError as exc:  # only the signal grid and the filter can leave the marginal empty
        keys = ("crystal.grid.signal_min_nm", "crystal.grid.signal_max_nm", "crystal.grid.signal_points",
                "crystal.signal_center_nm", "crystal.signal_fwhm_nm")
        raise keyed(exc, *keys) from None
    peak_s, peak_i = spectrum.peak()
    result = {
        "phase_matching_angle_deg": theta,
        "peak_signal_nm": peak_s,
        "peak_idler_nm": peak_i,
        "heralded_idler_fwhm_nm": fwhm,
        "signal_filter_fwhm_nm": filter_fwhm,
    }
    # streamed to the CSV writer, one signal row converted at a time, each axis value formatted once
    idler_axis = [repr(w) for w in spectrum.idler_axis.tolist()]
    rows = (
        (s, w, v)
        for s, row in zip(map(repr, spectrum.signal_axis.tolist()), spectrum.intensity)
        for w, v in zip(idler_axis, row.tolist())
    )
    return (
        "spectrum.json", result, "spectrum.csv", ["signal_nm", "idler_nm", "intensity"], rows,
        [
            "joint spectral intensity",
            f"  peak            : ({peak_s:.2f}, {peak_i:.2f}) nm",
            f"  heralded idler  : {fwhm:.2f} nm FWHM behind the signal bandpass",
            f"  grid            : {spectrum.intensity.size} cells",
        ],
    )


def _g2(scenario: Scenario, run: dict) -> tuple:
    from .experiment import hbt_g2
    g2 = hbt_g2(
        scenario.to_setup_config(),
        arm=run["g2_arm"],
        splitter_ratio=run["splitter_ratio"],
        **_sim_kwargs(run),
    )
    d = {"arm": g2.arm, "mode": g2.mode, "g2": g2.value, "stderr": g2.stderr}
    return "g2.json", d, "g2.csv", list(d), [list(d.values())], [
        f"g2(0) of the {g2.arm} arm ({g2.mode})",
        f"  g2 = {g2.value:.6f} +- {g2.stderr:.6f}",
    ]


_SETUP = frozenset({"source", "losses", "detectors", "dead_time", "run"})

# subcommand -> (scenario sections it reads, compute function).  The function
# imports the model modules it runs and returns (JSON name, result dict, CSV
# name, CSV header, CSV rows, summary lines); run_scenario is the only code
# that writes or prints them.
COMMANDS = {
    "simulate": (_SETUP, _simulate),
    "herald-stats": (_SETUP, _herald_stats),
    "estimate": (_SETUP | {"counts"}, _estimate),
    "wcp-compare": (_SETUP, _wcp_compare),
    "sweep": (_SETUP | {"channel"}, _sweep),
    "phasematch": (frozenset({"crystal", "run"}), _phasematch),
    "spectrum": (frozenset({"crystal", "run"}), _spectrum),
    "g2": (_SETUP, _g2),
}


def run_scenario(path: str, subcommand: str, overrides: list[str], args: argparse.Namespace) -> int:
    """Execute one subcommand against a scenario file and write its artifacts; returns the exit code."""
    sections, compute = COMMANDS[subcommand]
    scenario = load_scenario(path, overrides)
    unused = sorted(set(scenario.data) - sections)
    if unused:
        sys.stderr.write(f"note: sections not used by {subcommand!r}: {', '.join(unused)}\n")
    try:
        run = _run_params(scenario, args)
        out_dir = Path(args.out_dir or os.environ.get(OUTPUT_DIR_ENV) or run["outputs"])
        out_dir.mkdir(parents=True, exist_ok=True)
        json_name, result, csv_name, header, rows, summary = compute(scenario, run)
    except ValidationError as exc:
        option = _OPTIONS.get(exc.field)
        if option and getattr(args, option) is not None:
            raise ValidationError(f"option '--{option}': {exc}") from None
        raise named(exc) from None
    record = {
        "command": subcommand,
        "provenance": {
            "version": __version__,
            "config_sha256": scenario.sha256(),
            "mode": run["mode"],
            "n_pulses": run["n_pulses"],
            "seed": run["seed"],
        },
        "result": result,
    }
    try:
        text = json.dumps(record, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{subcommand} produced a non-finite result: {exc}") from exc
    (out_dir / json_name).write_text(text + "\n")
    with (out_dir / csv_name).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(*summary, sep="\n")
    print(f"  wrote {out_dir / json_name} and {csv_name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    parser = argparse.ArgumentParser(
        prog="spdcherald",
        description="Heralded single-photon source simulation and estimation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # the arguments every subcommand takes, declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("scenario", help="scenario file path or bundled name (e.g. paper.scenario)")
    common.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                        help="override a scenario entry, e.g. source.mu=0.1")
    common.add_argument("--mode", choices=defaults.RUN_MODES, default=None)
    common.add_argument("--pulses", type=int, default=None, help="Monte Carlo pulse count")
    common.add_argument("--seed", type=int, default=None, help="Monte Carlo seed")
    common.add_argument("--out-dir", default=None,
                        help=f"output directory (default: ${OUTPUT_DIR_ENV} or the scenario's run.outputs)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} analysis", parents=[common])
        if name == "estimate":
            p.add_argument(
                "--counts", default=None, metavar="FILE",
                help="CountRates record (counts.json or counts.csv) instead of the scenario's counts section",
            )
    return parser


# argparse changes no parser while parsing, so main reuses one across calls in a process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)  # argv None parses sys.argv[1:]
    try:
        return run_scenario(args.scenario, args.command, args.override, args)
    except ValidationError as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 4
    except (SpdcHeraldError, FloatingPointError, ZeroDivisionError) as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
