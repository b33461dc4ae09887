import contextlib
import copy
import csv
import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import zlib
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import pytest
import yaml

from spdcherald import cli, defaults, scenario as scenario_module
from spdcherald.cli import COMMANDS, main, run_scenario
from spdcherald.errors import ValidationError
from spdcherald.experiment import reference_setup, simulate_counts
from spdcherald.scenario import Scenario, load_scenario, parse_scenario

BUNDLED = "paper.scenario"


def bundled_text():
    from importlib import resources

    return resources.files("spdcherald.data").joinpath(BUNDLED).read_text()


class TestScenarioParsing:
    def test_bundled_parses_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scenario = parse_scenario(bundled_text())
        assert scenario.section("source")["mu"] == 0.0829

    def test_bundled_matches_reference_setup(self):
        scenario = load_scenario(BUNDLED)
        assert scenario.to_setup_config() == reference_setup()

    def test_unknown_key_named(self):
        text = bundled_text().replace("alpha_signal", "alpha_signl")
        with pytest.raises(ValidationError, match="losses.alpha_signl"):
            parse_scenario(text)

    def test_unknown_section_named(self):
        with pytest.raises(ValidationError, match="detector_bank"):
            parse_scenario(bundled_text() + "\ndetector_bank:\n  x: 1\n")

    def test_type_coercion_of_unparsed_floats(self):
        # YAML 1.1 reads exponents without a sign as strings
        scenario = parse_scenario(bundled_text().replace("8.2e+7", "8.2e7"))
        assert scenario.section("source")["rep_rate_hz"] == 8.2e7

    def test_bad_number_rejected_with_path(self):
        text = bundled_text().replace("mu: 0.0829", "mu: lots")
        with pytest.raises(ValidationError, match="source.mu"):
            parse_scenario(text)

    def test_overrides(self):
        scenario = parse_scenario(bundled_text(), overrides=["source.mu=0.1"])
        assert scenario.section("source")["mu"] == 0.1
        assert scenario.to_setup_config().mu == 0.1

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="source.muu"):
            parse_scenario(bundled_text(), overrides=["source.muu=0.1"])

    @pytest.mark.parametrize(
        "override,message",
        [
            ("no_equals_sign", "is not of the form path=value"),
            ("source..mu=0.1", "is malformed"),
            ("source.mu.x=0.1", "crosses a scalar"),
        ],
    )
    def test_override_malformed(self, override, message):
        with pytest.raises(ValidationError, match=message):
            parse_scenario(bundled_text(), overrides=[override])

    def test_counts_section(self):
        counts = load_scenario(BUNDLED).to_counts()
        assert counts.signal_singles == 2.90e5
        assert counts.per_trigger_coincidence_prob == pytest.approx(3053.0 / 2.16e5, rel=1e-12)

    def test_count_rates_record_round_trip(self):
        counts = simulate_counts(reference_setup())
        record = counts.to_dict()
        del record["per_trigger_coincidence_prob"]
        assert Scenario({"counts": record}).to_counts() == counts

    def test_missing_file(self):
        with pytest.raises(ValidationError, match="not found"):
            load_scenario("nonexistent.scenario")


class TestValidByConstruction:
    """A Scenario validates the data it is given when it is built, and reads it
    afterwards without another walk."""

    @pytest.mark.parametrize(
        "data,message",
        [
            ({"source": {"mu": 0.1, "muu": 0.1}}, "unknown scenario key 'source.muu'"),
            ({"detectors": {"herald": 0.5}}, "scenario key 'detectors.herald' must be a mapping"),
            ({"source": {"rep_rate_hz": "fast"}}, "scenario key 'source.rep_rate_hz' must be a number, got 'fast'"),
            (["source"], "scenario must be a mapping of sections"),
        ],
        ids=["unknown_key", "scalar_section", "uncoercible_value", "no_mapping"],
    )
    def test_raw_data_is_rejected_naming_its_key(self, data, message):
        with pytest.raises(ValidationError) as exc:
            Scenario(data=data)
        assert str(exc.value) == message

    def test_raw_data_is_coerced(self):
        data = yaml.safe_load(bundled_text().replace("8.2e+7", "8.2e7"))
        assert data["source"]["rep_rate_hz"] == "8.2e7"
        assert Scenario(data=data).to_setup_config() == reference_setup()

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_no_section_is_built_after_the_load(self, monkeypatch, tmp_path, capsys, command):
        loaded, built = [], []
        init = scenario_module.Section.__init__

        def counted(section, data, path="", *args):
            if loaded:
                built.append(path)
            init(section, data, path, *args)

        def load(*args):
            loaded.append(load_scenario(*args))
            return loaded[-1]

        monkeypatch.setattr(scenario_module.Section, "__init__", counted)
        monkeypatch.setattr(cli, "load_scenario", load)
        assert main([command, BUNDLED, "--out-dir", str(tmp_path)]) == 0
        assert len(loaded) == 1 and len(list(tmp_path.iterdir())) == 2
        assert built == []


OVERRIDE_VALUES = ["0.1", "[0.01, 0.02]", "1e-3", "2.5e+5", ".inf", "~", "yes", "multimode_thermal"]


def _parsed(text, overrides):
    """repr of the scenario data, or of the validation error, so types count as well as values."""
    try:
        return repr(parse_scenario(text, overrides).data)
    except ValidationError as exc:
        return f"ValidationError({exc})"


class TestLoader:
    """The scenario loader (libyaml's where PyYAML has it) builds what PyYAML's
    pure-Python loader builds."""

    @pytest.mark.parametrize("value", OVERRIDE_VALUES)
    def test_value_loads_as_with_the_python_loader(self, value):
        loaded = yaml.load(value, Loader=scenario_module._LOADER)
        assert repr(loaded) == repr(yaml.load(value, Loader=yaml.SafeLoader))

    @pytest.mark.parametrize("key", ["source.mu", "source.law", "source.modes", "run.sweep_mu", "crystal.name"])
    def test_scenario_parses_as_with_the_python_loader(self, monkeypatch, key):
        text = bundled_text()
        got = [_parsed(text, [])] + [_parsed(text, [f"{key}={value}"]) for value in OVERRIDE_VALUES]
        monkeypatch.setattr(scenario_module, "_LOADER", yaml.SafeLoader)
        assert got == [_parsed(text, [])] + [_parsed(text, [f"{key}={value}"]) for value in OVERRIDE_VALUES]

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_tab_after_the_key_is_separation(self):
        # YAML allows a tab as separation whitespace; PyYAML's Python scanner rejects it
        text = bundled_text().replace("  mu: 0.0829", "  mu:\t0.1")
        assert "mu:\t0.1" in text
        assert parse_scenario(text).section("source")["mu"] == 0.1
        with pytest.raises(yaml.YAMLError, match="found character '\\\\t'"):
            yaml.load(text, Loader=yaml.SafeLoader)

    def test_missing_section_named(self):
        scenario = parse_scenario(bundled_text())
        del scenario.data["channel"]
        with pytest.raises(ValidationError, match="^scenario is missing the required key 'channel'$"):
            scenario.section("channel")
        assert scenario.section("source").path == "source."
        assert scenario.section("detectors")["idler"].path == "detectors.idler."


def _written(directory):
    """The bytes of each file under ``directory``, by its path relative to it."""
    return {str(path.relative_to(directory)): path.read_bytes() for path in directory.rglob("*") if path.is_file()}


def _artifacts(argv, out):
    """Exit code and the bytes of each artifact of ``main(argv)`` written into ``out``."""
    return main([*argv, "--out-dir", str(out)]), _written(out)


class TestParseCache:
    """A process parses each distinct YAML text once; each load gets data of its own."""

    GRID = "crystal.grid={signal_points: 11.0}"

    def test_mutating_a_load_leaves_the_next_load(self):
        overrides = [self.GRID, "run.sweep_mu=[0.1, 0.2]"]
        first = parse_scenario(bundled_text(), overrides)
        expected = copy.deepcopy(first.data)
        assert expected["crystal"]["grid"] == {"signal_points": 11}
        first.data["crystal"]["grid"]["signal_points"] = 99
        first.data["run"]["sweep_mu"].append(0.3)
        first.data["source"]["mu"] = 5.0
        assert parse_scenario(bundled_text(), overrides).data == expected
        # validation coerced the load's own copy, never the cached value
        assert repr(scenario_module._load_yaml("{signal_points: 11.0}")) == "{'signal_points': 11.0}"

    def test_an_override_into_an_overridden_mapping_leaves_the_cached_value(self):
        grid = "crystal.grid={signal_points: 11}"
        both = parse_scenario(bundled_text(), [grid, "crystal.grid.idler_points=21"])
        assert both.section("crystal")["grid"] == {"signal_points": 11, "idler_points": 21}
        assert parse_scenario(bundled_text(), [grid]).section("crystal")["grid"] == {"signal_points": 11}

    def test_invalid_yaml_raises_the_same_error_each_time(self):
        bad_text = bundled_text().replace("  mu: 0.0829", "     mu: 0.0829")
        for text, overrides in [(bad_text, []), (bundled_text(), ["source.mu=[0.1"])]:
            messages = []
            for _ in range(2):
                with pytest.raises(ValidationError, match="is not valid YAML") as exc:
                    parse_scenario(text, overrides)
                messages.append(str(exc.value))
            assert messages[0] == messages[1]

    def test_a_rewritten_file_is_parsed_again(self, tmp_path):
        path = tmp_path / "edited.scenario"
        path.write_text(bundled_text())
        assert load_scenario(path).section("source")["mu"] == 0.0829
        path.write_text(bundled_text().replace("  mu: 0.0829", "  mu: 0.1"))
        assert load_scenario(path).section("source")["mu"] == 0.1

    def test_an_override_never_reaches_a_later_call(self, tmp_path, capsys):
        plain = _artifacts(["simulate", BUNDLED], tmp_path / "before")
        assert _artifacts(["simulate", BUNDLED, "--override", "source.mu=0.2"], tmp_path / "override") != plain
        assert _artifacts(["simulate", BUNDLED], tmp_path / "after") == plain

    def test_one_process_writes_the_same_bytes_twice(self, tmp_path, capsys):
        # a second round reads the parse cache the first filled; the console rows compare a
        # run in this process with a fresh one
        argvs = [
            ["simulate", BUNDLED, "--override", "source.mu=0.2"],
            ["spectrum", BUNDLED, "--override", self.GRID],
            ["herald-stats", BUNDLED],
            ["estimate", BUNDLED, "--override", "detectors.herald.efficiency=0"],
            ["g2", BUNDLED, "--mode", "monte_carlo", "--pulses", "1000000", "--seed", "2",
             "--override", "source.law=thermal"],
            ["simulate", BUNDLED],
        ]
        rounds = [[_artifacts(argv, tmp_path / f"{r}-{i}") for i, argv in enumerate(argvs)] for r in range(2)]
        assert [code for code, _ in rounds[0]] == [0, 0, 0, 2, 0, 0]
        assert rounds[0] == rounds[1]


class TestCli:
    def test_simulate_writes_artifacts(self, tmp_path, capsys):
        code = main(["simulate", BUNDLED, "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "signal singles" in out
        record = json.loads((tmp_path / "counts.json").read_text())
        expected = simulate_counts(reference_setup())
        assert record["result"]["signal_singles_cps"] == pytest.approx(
            expected.signal_singles, rel=1e-12
        )
        assert record["provenance"]["version"]
        with (tmp_path / "counts.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "signal_singles_cps"
        assert float(rows[1][0]) == pytest.approx(expected.signal_singles, rel=1e-12)

    def test_monte_carlo_rerun_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = [
            "simulate", BUNDLED, "--mode", "monte_carlo", "--pulses", "1000000", "--seed", "77",
        ]
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        assert (a / "counts.json").read_bytes() == (b / "counts.json").read_bytes()

    @pytest.mark.parametrize("model", ["paralyzable", "nonparalyzable"])
    def test_dead_time_longer_than_the_run(self, tmp_path, model):
        # 1e20 us is 8.2e21 pulses, past int64 once added to a pulse index
        args = [
            "simulate", BUNDLED, "--mode", "monte_carlo", "--pulses", "1000000", "--seed", "1",
            "--override", "dead_time.tau_us=1e20", "--override", f"dead_time.model={model}",
        ]
        assert main(args + ["--out-dir", str(tmp_path)]) == 0
        rates = json.loads((tmp_path / "counts.json").read_text())["result"]
        assert rates["trigger_rate_cps"] == 8.2e7 / 1_000_000  # the first herald only

    def test_herald_stats_and_override(self, tmp_path, capsys):
        code = main(
            [
                "herald-stats", BUNDLED,
                "--override", "source.mu=0",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        record = json.loads((tmp_path / "herald_stats.json").read_text())
        assert record["result"]["p"][0] == pytest.approx(1.0, abs=1e-9)

    def test_estimate(self, tmp_path):
        assert main(["estimate", BUNDLED, "--out-dir", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "estimate.json").read_text())
        assert record["result"]["mu"] == pytest.approx(0.0822733, rel=1e-4)

    def test_wcp_compare(self, tmp_path):
        assert main(["wcp-compare", BUNDLED, "--out-dir", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "wcp_compare.json").read_text())
        assert record["result"]["suppression_ratio"] == pytest.approx(8.5, abs=0.2)

    def test_sweep_schema(self, tmp_path):
        assert main(["sweep", BUNDLED, "--out-dir", str(tmp_path)]) == 0
        with (tmp_path / "sweep.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mu", "pump_mW", "trigger_cps", "p1", "p2", "max_km"]
        assert len(rows) == 1 + 5
        mus = [float(r[0]) for r in rows[1:]]
        assert mus == sorted(mus)

    def test_sweep_mu_left_out_sweeps_source_mu(self, tmp_path):
        argv = ["sweep", BUNDLED, "--override", "run.sweep_mu=null", "--override", "source.mu=0.05"]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 0
        with (tmp_path / "sweep.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert [float(r[0]) for r in rows[1:]] == [0.05]

    def test_phasematch_and_spectrum(self, tmp_path):
        assert main(["phasematch", BUNDLED, "--out-dir", str(tmp_path)]) == 0
        pm = json.loads((tmp_path / "phasematch.json").read_text())
        assert pm["result"]["phase_matching_angle_deg"] == pytest.approx(26.4155, abs=2e-3)
        assert main(["spectrum", BUNDLED, "--out-dir", str(tmp_path)]) == 0
        with (tmp_path / "spectrum.csv").open() as fh:
            header = fh.readline().strip()
        assert header == "signal_nm,idler_nm,intensity"
        sp = json.loads((tmp_path / "spectrum.json").read_text())
        assert 12.0 <= sp["result"]["heralded_idler_fwhm_nm"] <= 27.0

    def test_g2_monte_carlo(self, tmp_path):
        code = main(
            [
                "g2", BUNDLED,
                "--mode", "monte_carlo", "--pulses", "1000000", "--seed", "4",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        record = json.loads((tmp_path / "g2.json").read_text())
        assert abs(record["result"]["g2"] - 1.0) < 3.0 * record["result"]["stderr"]

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPDCHERALD_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", BUNDLED]) == 0
        assert (tmp_path / "envout" / "counts.json").exists()

    def test_idler_dark_in_every_gate(self, tmp_path, capsys):
        # log1p(-1) divided by zero under the tier-1 RuntimeWarning filter
        override = "detectors.idler.dark_prob_per_gate=1"
        assert main(["simulate", BUNDLED, "--override", override, "--out-dir", str(tmp_path)]) == 0
        assert _strict_record(tmp_path / "counts.json")["result"]["idler_singles_cps"] > 0

    def test_io_failure_exits_4(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = main(["simulate", BUNDLED, "--out-dir", str(blocker / "sub")])
        assert code == 4

    def test_non_finite_list_entry_named(self):
        with pytest.raises(ValidationError, match=r"run.sweep_mu\[1\]"):
            parse_scenario(bundled_text(), overrides=["run.sweep_mu=[0.1, .nan]"])

    def test_estimate_notes_only_the_sections_it_skips(self, tmp_path, capsys):
        assert main(["estimate", BUNDLED, "--out-dir", str(tmp_path)]) == 0
        assert "note: sections not used by 'estimate': channel, crystal\n" in capsys.readouterr().err

    def test_run_scenario_notes_unused_sections(self, tmp_path, capsys):
        import argparse

        args = argparse.Namespace(mode=None, pulses=None, seed=None, out_dir=str(tmp_path))
        run_scenario(BUNDLED, "phasematch", [], args)
        err = capsys.readouterr().err
        assert "sections not used" in err


class TestOneTruncationRule:
    """A law that the pmf cuts at MAX_PAIRS = 64 pairs is refused in both run modes, naming the
    key its mean came from (rows of CONSOLE and IN_PROCESS); in a sweep, its row is an error row."""

    def test_sweep_row_past_the_cut_is_an_error_row(self, tmp_path):
        assert main(["sweep", BUNDLED, "--override", "run.sweep_mu=[0.1, 60]", "--out-dir", str(tmp_path)]) == 0
        first, cut = json.loads((tmp_path / "sweep.json").read_text())["result"]["rows"]
        assert first["error"] is None and first["p1"] > 0.0
        assert cut["error"].startswith("ValidationError: the poissonian pmf at mean 60.0 is cut at MAX_PAIRS = 64 pairs")
        assert cut["p1"] is None and cut["trigger_rate"] is None


class TestParser:
    """main parses with one parser kept for the process; argparse must answer
    every line as a parser of its own does."""

    EXITS = [
        ["--help"], ["--version"], ["bogus"], ["--help", "simulate"], ["simulate"],
        ["simulate", BUNDLED, "--counts", "x.json"], ["simulate", BUNDLED, "--bogus"],
        ["estimate", BUNDLED, "--counts"], ["g2", BUNDLED, "--mode", "fast"], ["sweep", BUNDLED, "--pulses", "x"],
        *([name, "--help"] for name in COMMANDS),
    ]

    @pytest.mark.parametrize("argv", EXITS, ids=" ".join)
    def test_exits_as_the_full_tree(self, capsys, argv):
        outcomes = []
        for parse in (main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(list(argv))
            outcomes.append((exc.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]


# what each subcommand writes; the README's "Command line" section lists the same
ARTIFACTS = {
    "simulate": (
        "counts.json", "counts.csv",
        ["signal_singles_cps", "idler_singles_cps", "coincidences_cps", "trigger_rate_cps",
         "gate_rate_hz", "per_trigger_coincidence_prob"],
    ),
    "herald-stats": ("herald_stats.json", "herald_stats.csv", ["n", "probability"]),
    "estimate": ("estimate.json", "estimate.csv", ["mu", "pair_rate_per_s", "alpha_signal", "alpha_idler"]),
    "wcp-compare": (
        "wcp_compare.json", "wcp_compare.csv",
        ["p1", "mu_coherent", "p2_coherent", "p2_source", "suppression_ratio"],
    ),
    "sweep": ("sweep.json", "sweep.csv", ["mu", "pump_mW", "trigger_cps", "p1", "p2", "max_km"]),
    "phasematch": ("phasematch.json", "tuning_curve.csv", ["signal_nm", "idler_nm", "mismatch_rad_per_mm"]),
    "spectrum": ("spectrum.json", "spectrum.csv", ["signal_nm", "idler_nm", "intensity"]),
    "g2": ("g2.json", "g2.csv", ["arm", "mode", "g2", "stderr"]),
}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _strict_record(path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# Every check of a CLI run's exit code and messages, one row each, in two lists run by one
# check.  Each row runs through cli.main in this process.  A CONSOLE row, whose point is the
# fresh process, also runs through the installed script as a user runs it, with no PYTHONPATH,
# where it must write the bytes a run in this process writes.  A new refusal or round trip is
# one more row: in CONSOLE to be checked both ways, else in IN_PROCESS.

SCRIPT = shutil.which("spdcherald")
MC = ("--mode", "monte_carlo", "--pulses", "1000000", "--seed", "7")
COUNTS_COLUMNS = ["signal_singles_cps", "idler_singles_cps", "coincidences_cps", "trigger_rate_cps", "gate_rate_hz"]
REFUSED_COUNTS = [2.0e7, 20000, 100, 216000, 205000]  # they imply mu ~ 552, past the pmf's cut at 64 pairs
# the refusal of counts that imply a mean the law cannot take, and the keys or columns it names
IMPLIED = "the counts imply a mean pair number the model refuses: "
COUNTS_KEYS = ("validation error: scenario keys 'counts.signal_singles_cps', 'counts.idler_singles_cps' and "
               f"'counts.coincidences_cps': {IMPLIED}")
# the keys a crystal relation names
CENTRES = "'crystal.pump_center_nm' and 'crystal.signal_center_nm'"
GRID = "'crystal.grid.signal_min_nm', 'crystal.grid.signal_max_nm', 'crystal.grid.idler_min_nm'"
NO_OVERLAP = f"{GRID}, 'crystal.grid.idler_max_nm', 'crystal.pump_center_nm', 'crystal.pump_fwhm_nm'"
NO_OVERLAP += " and 'crystal.length_mm'"
SIGNAL_WINDOW = "'crystal.grid.signal_min_nm', 'crystal.grid.signal_max_nm', 'crystal.grid.signal_points', "
SIGNAL_WINDOW += "'crystal.signal_center_nm' and 'crystal.signal_fwhm_nm'"
IDLER_RANGE = "'crystal.grid.idler_min_nm' and 'crystal.grid.idler_max_nm'"


@dataclass(frozen=True)
class Row:
    """``spdcherald ARGV --out-dir DIR/out`` exits ``code``; its stderr holds each of ``err`` and
    none of ``not_err``, and a warning only where ``err`` names one; a refusal writes nothing.
    ``inputs`` are (file name, text or argv) pairs: the text is written into DIR, or the argv,
    run first the same way with ``--out-dir DIR``, writes that file there.  ``check(out,
    stdout)`` then reads the artifacts.  "{dir}" in argv and err stands for DIR."""

    argv: tuple
    code: int = 0
    err: tuple = ()
    not_err: tuple = ()
    inputs: tuple = ()
    check: Callable | None = None


def _argv(command: str, *items: str, extra: tuple = ()) -> tuple:
    """``COMMAND paper.scenario`` with the options ``extra`` and the overrides ``items``."""
    return (command, BUNDLED, *extra, *(arg for item in items for arg in ("--override", item)))


def _row(command: str, *items: str, extra: tuple = (), **fields) -> Row:
    return Row(_argv(command, *items, extra=extra), **fields)


def _writes(command, out, stdout, mode="analytic"):
    json_name, csv_name, header = ARTIFACTS[command]
    assert sorted(p.name for p in out.iterdir()) == sorted([json_name, csv_name])
    record = _strict_record(out / json_name)
    assert record["command"] == command
    assert set(record["provenance"]) == {"version", "config_sha256", "mode", "n_pulses", "seed"}
    assert record["provenance"]["mode"] == mode
    with (out / csv_name).open() as fh:
        assert next(csv.reader(fh)) == header
    assert f"wrote {out / json_name} and {csv_name}" in stdout


def _inverts(out, stdout):
    # back to paper.scenario's source.mu, losses.alpha_signal and losses.alpha_idler
    estimate = _strict_record(out / "estimate.json")["result"]
    for key, want in (("mu", 0.0829), ("alpha_signal", 0.1687), ("alpha_idler", 0.2200)):
        assert abs(estimate[key] / want - 1.0) <= 1e-9, (key, estimate[key], want)


def _flags(flag, out, stdout):
    # no row is an error, and each carries its flag (an interior row neither)
    rows = _strict_record(out / "sweep.json")["result"]["rows"]
    assert rows and all(row["error"] is None for row in rows), rows
    for row in rows:
        assert [row["capped"], row["insecure_at_zero"]] == [flag == "capped", flag == "insecure_at_zero"], row


ROUND_TRIPS = [(), ("source.law=thermal", "detectors.coincidence_window_gates=3"),
               ("source.law=multimode_thermal", "source.modes=3")]
EXTREME = ("detectors.idler.dark_prob_per_gate=0", "counts.coincidences_cps=1e-300")
SELLMEIER = ["[-5, 0.01878, 0.01822, 0.01354]", "[2.7359, 1.0, 0.36, 0.01354]"]  # n^2 < 0, a pole at 600 nm
MU_CUT = ("validation error: scenario key 'source.mu': the poissonian pmf at mean 60.0 is cut at "
          "MAX_PAIRS = 64 pairs, dropping tail mass 0.276;")
MODES_CUT = "validation error: scenario key 'source.modes': modes must not exceed the largest float"

CONSOLE = [
    # every subcommand, as cli.COMMANDS lists them, so a new one is run too
    *(_row(command, check=partial(_writes, command)) for command in COMMANDS),
    # the Monte Carlo of each of its three reductions, both g2 arms
    *(_row(command, extra=MC, check=partial(_writes, command, mode="monte_carlo")) for command in ("simulate", "herald-stats")),
    *(_row("g2", f"run.g2_arm={arm}", extra=MC, check=partial(_writes, "g2", mode="monte_carlo"))
      for arm in defaults.HBT_ARMS),
    # simulate's own artifacts invert through the one counts reader
    *(_row("estimate", *items, extra=("--counts", f"{{dir}}/{name}"), inputs=((name, _argv("simulate", *items)),),
           check=_inverts)
      for items in ROUND_TRIPS for name in ("counts.json", "counts.csv")),
    # a mean whose law the pmf cuts at 64 pairs is refused, in both run modes: analytic, it wrote
    # 0.320 coincidences per trigger where the closed form gives 0.0380
    _row("simulate", "source.mu=60", code=2, err=(MU_CUT,)),
    _row("simulate", "source.mu=60", extra=MC, code=2, err=(MU_CUT,)),
    # so is a one-mode law whose 65 kept terms hold about 65 / mu of its mass, where the
    # rounded ratio of the next two excused it: it exited 0 with P(1) = 0.0428
    _row("herald-stats", "source.law=multimode_thermal", "source.modes=1", "source.mu=3.0301935371720806e+27", code=2,
         err=("validation error: scenario key 'source.mu': the multimode_thermal pmf at mean 3.0301935371720806e+27 "
              "is cut at MAX_PAIRS = 64 pairs, dropping tail mass 1;",)),
    # a counts file whose counts imply such a mean is refused naming the file, not the scenario's
    # keys, which the run never read
    *(_row("estimate", extra=("--counts", f"{{dir}}/{name}"), code=2, inputs=((name, text),), not_err=("scenario key",),
           err=(f"validation error: counts file '{{dir}}/{name}', columns 'signal_singles_cps', 'idler_singles_cps', "
                f"'coincidences_cps': {IMPLIED}the poissonian pmf at mean 551.",))
      for name, text in (
          ("counts.csv", f"{','.join(COUNTS_COLUMNS)}\n2.0e7,20000,100,216000,205000\n"),
          ("counts.json", json.dumps(dict(zip(COUNTS_COLUMNS, REFUSED_COUNTS)))),
      )),
    # counts that imply an infinite mean (thermal) or a mean per mode that underflows (10^21
    # modes) are refused naming the three counts keys: they exited 2 naming no key, and 3
    # with "float division by zero"
    _row("estimate", *EXTREME, "source.law=thermal", "counts.signal_singles_cps=81999999.99999",
         "counts.idler_singles_cps=204999.9999", code=2, err=(f"{COUNTS_KEYS}mean pair number must be finite, got inf",)),
    _row("estimate", *EXTREME, "source.law=multimode_thermal", "source.modes=1000000000000000000000", code=2,
         err=(f"{COUNTS_KEYS}the multimode_thermal pmf at mean 3.0",)),
    # a Sellmeier set without a real index in the window is refused naming its key, by both
    # crystal subcommands: spectrum exited 0 with every intensity NaN, phasematch 3 with
    # "non-finite result"
    *(_row(command, f"{key}={value}", code=2, err=(f"validation error: scenario key {key!r}: Sellmeier set",))
      for command in ("phasematch", "spectrum")
      for key in ("crystal.sellmeier_ordinary", "crystal.sellmeier_extraordinary") for value in SELLMEIER),
    # a mode count past the largest float (10^400) is refused naming its key: it exited 1 with
    # an OverflowError traceback from the pmf's mu / modes
    *(_row(command, "source.law=multimode_thermal", f"source.modes=1{'0' * 400}", code=2, err=(MODES_CUT,))
      for command in ("simulate", "estimate")),
    # crystal relations name the keys their values derive from.  The idler of the centres,
    # 4.7 um, then that of the tuning curve's shortest signal, 3.4 um:
    *(_row("phasematch", item, code=2, err=(f"validation error: scenario keys {CENTRES}: ",))
      for item in ("crystal.signal_center_nm=425", "crystal.signal_center_nm=480")),
    # a negative, zero or subnormal wavelength was divided by before the window check
    *(_row("spectrum", item, code=2, err=(f"validation error: scenario keys {GRID} and 'crystal.grid.idler_max_nm': ",))
      for item in ("crystal.grid.idler_max_nm=-1", "crystal.grid.idler_max_nm=0", "crystal.grid.idler_min_nm=5e-324")),
    *(_row("spectrum", item, code=2, err=(f"validation error: scenario keys {NO_OVERLAP}: ",))
      for item in ("crystal.pump_fwhm_nm=1e-9", "crystal.length_mm=1e300")),
    # a signal grid too coarse for the filter leaves the heralded marginal empty: it exited 3
    # (and its two signal rows resolve no ridge)
    _row("spectrum", "crystal.grid.signal_points=2", code=2,
         err=(f"validation error: scenario keys {SIGNAL_WINDOW}: ", "ResolutionWarning: idler grid is too coarse")),
    # an idler axis inside the heralded FWHM: it reported the axis span, then a clipped width
    *(_row("spectrum", f"crystal.grid.idler_min_nm={low}", f"crystal.grid.idler_max_nm={high}", code=2,
           err=(f"validation error: scenario keys {IDLER_RANGE}: ",))
      for low, high in ((1548, 1554), (1551, 1600))),
    # a signal grid from 210 nm implies pumps below the window: the error names the pump of the
    # grid's first cell outside it, as the block's corner check must
    _row("spectrum", "crystal.grid.signal_min_nm=210", code=2,
         err=(f"validation error: scenario keys {GRID} and 'crystal.grid.idler_max_nm': wavelength 183.766 nm "
              "outside the Sellmeier validity window [200, 3000] nm\n",)),
    # the secure-distance search at channels where its first guess cannot be formed, and at a
    # grid of interior rows
    _row("sweep", "channel.loss_db_per_km=5e-324", check=partial(_flags, "capped")),
    _row("sweep", "channel.receiver_efficiency=0", check=partial(_flags, "insecure_at_zero")),
    _row("sweep", "run.sweep_mu=[0.01,0.1,0.3]", check=partial(_flags, "interior")),
]


def _set(data, key, value=None, drop=False):
    *sections, leaf = key.split(".")
    node = data
    for section in sections:
        node = node.setdefault(section, {})
    if drop:
        node.pop(leaf, None)
    else:
        node[leaf] = list(value) if isinstance(value, tuple) else value


def _edited(*edits) -> str:
    """paper.scenario dumped as YAML after each (key, value) edit; a value of None drops the key."""
    data = yaml.safe_load(bundled_text())
    for key, value in edits:
        _set(data, key, value, drop=value is None)
    return yaml.safe_dump(data)


def _replaced(old: str, new: str) -> str:
    """paper.scenario's text with ``old`` replaced by ``new``."""
    text = bundled_text()
    assert old in text, old
    return text.replace(old, new)


def _g2_is_2(out, stdout):
    assert _strict_record(out / "g2.json")["result"]["g2"] == 2.0


MC_SEED_1 = (*MC[:-1], "1")
HEADER = ",".join(COUNTS_COLUMNS)
# a counts file the reader refuses, and the error it gives
BAD_COUNTS = [
    # json.loads parses NaN, and float("nan") is a float
    ("counts.json", '{"result": {"signal_singles_cps": NaN, "idler_singles_cps": 285.0, '
     '"coincidences_cps": 3058.6, "trigger_rate_cps": 217997.2, "gate_rate_hz": 1e6}}',
     "scenario key 'counts.signal_singles_cps' must be finite"),
    ("counts.csv", f"{HEADER}\n291888.0,285.0,nan,217997.2,1e6\n", "scenario key 'counts.coincidences_cps' must be finite"),
    ("counts.csv", f"{HEADER}\n291888.0,abc,3058.6,217997.2,1e6\n",
     "scenario key 'counts.idler_singles_cps' must be a number, got 'abc'"),
    ("counts.json", '{"result": {"signal_singles_cps": 291888.0, "idler_singles_cps": "many", '
     '"coincidences_cps": 3058.6, "trigger_rate_cps": 217997.2, "gate_rate_hz": 1e6}}',
     "scenario key 'counts.idler_singles_cps' must be a number, got 'many'"),
    ("counts.json", "[291888.0, 285.0, 3058.6, 217997.2, 1e6]", "scenario key 'counts' must be a mapping"),
    ("counts.json", '{"result": {"signal_singles_cps": 291888.0,', "Expecting"),
    # a second data row was ignored, and the run exited 0 on the first
    ("counts.csv", f"{HEADER}\n291888.0,285.0,3058.6,217997.2,2.05e5\n291888.0,285.0,3058.6,217997.2,2.05e5\n",
     "expected a header and one data row, found 3 rows"),
    # cells past the header's were dropped, and the run exited 0
    ("counts.csv", f"{HEADER}\n291888.0,285.0,3058.6,217997.2,2.05e5,7\n", "the data row has 6 cells for 5 header cells"),
    ("counts.csv", f"{HEADER}\n291888.0,285.0,3058.6,217997.2\n", "the data row has 4 cells for 5 header cells"),
    ("counts.csv", "signal_singles_cps,idler_singles_cps\n\n", "expected a header and one data row, found 1 rows"),
    # the last of two cells under one name was read, the first dropped
    ("counts.csv", f"{HEADER},signal_singles_cps\n291888.0,285.0,3058.6,217997.2,2.05e5,291888.0\n",
     "the header names a column twice"),
    # a column no counts key has was ignored, and the run exited 0
    ("counts.csv", f"{HEADER},bogus\n291888.0,285.0,3058.6,217997.2,2.05e5,1\n", "unknown scenario key 'counts.bogus'"),
    ("counts.json", '{"result": {"signal_singles_cps": 291888.0, "idler_singles_cps": 285.0, '
     '"coincidences_cps": 3058.6, "trigger_rate_cps": 217997.2, "gate_rate_hz": 1e6, "bogus": 1}}',
     "unknown scenario key 'counts.bogus'"),
    ("counts.json", '{"signal_singles_cps": 291888.0, "idler_singles_cps": 285.0, '
     '"coincidences_cps": 3058.6, "trigger_rate_cps": 217997.2}',
     "scenario is missing the required key 'counts.gate_rate_hz'"),
    # a per-trigger probability the rates contradict was ignored, and the run exited 0
    ("counts.csv", f"{HEADER},per_trigger_coincidence_prob\n291888.0,285.0,3058.6,217997.2,2.05e5,0.5\n",
     "'per_trigger_coincidence_prob' is '0.5', but coincidences_cps / trigger_rate_cps is"),
]
# a value a model's range refuses, and the subcommand that builds that model
MODEL_RANGES = [
    ("spectrum", "crystal.pump_fwhm_nm=0"), ("spectrum", "crystal.signal_fwhm_nm=0"),
    ("phasematch", "crystal.length_mm=0"), ("phasematch", "crystal.cut_angle_deg=100"),
    ("phasematch", "crystal.sellmeier_ordinary=[2.7359, 0.01878, 0.01822]"),
    ("simulate", "run.seed=-1"), ("simulate", "run.n_pulses=5"), ("simulate", "run.mode=fast"),
    ("g2", "run.g2_arm=both"), ("g2", "run.splitter_ratio=1"),
    ("sweep", "channel.loss_db_per_km=-1"), ("sweep", "channel.receiver_efficiency=2"),
    ("sweep", "channel.receiver_dark_per_pulse=2"), ("sweep", "run.sweep_mu=[-1]"),
    ("sweep", "run.sweep_mu=[0.2, 0.1]"), ("sweep", "run.sweep_mu=[]"),
    ("estimate", "counts.signal_singles_cps=-1"),
    ("phasematch", "crystal.pump_center_nm=2000"), ("phasematch", "crystal.pump_center_nm=100"),
]
# the subcommands that read the pair law's pmf besides g2, g2 by arm, and thermal means whose pmf overflows
LAW_READERS = [("simulate",), ("herald-stats",), ("wcp-compare",)]
UNCONDITIONED, HERALDED = ("g2", "run.g2_arm=signal_unconditioned"), ("g2", "run.g2_arm=idler_heralded")
THERMAL_MEANS = ("4e4", "1e5", "1e300")

IN_PROCESS = [
    # a refusal of the scenario, the counts or an option, and the outcomes beside it, whose
    # point is the exit code and the text, not the fresh process
    _row("simulate", "source.muu=1", code=2),
    _row("estimate", "counts.signal_singles_cps=10", code=3),
    *(_row("estimate", extra=("--counts", f"{{dir}}/{name}"), code=2, inputs=((name, text),),
           err=(message, f"counts file '{{dir}}/{name}'"))
      for name, text, message in BAD_COUNTS),
    _row("estimate", extra=("--counts", "{dir}/missing.json"), code=2,
         err=("validation error: counts file '{dir}/missing.json' not found\n",)),
    # a calibration of 0 is named, each key of it
    *(_row("estimate", *(f"{key}=0" for key in keys), code=2,
           err=(f"validation error: scenario key{'s' * (len(keys) > 1)} {' and '.join(map(repr, keys))}: calibrated ",
                *extra))
      for keys, extra in ((("losses.t_signal_optics",), ()), (("detectors.herald.efficiency",), ()),
                          (("losses.t_idler_optics",), ("t_idler_optics is 0",)), (("losses.t_delay_fiber",), ()),
                          (("detectors.idler.efficiency",), ()),
                          (("losses.t_delay_fiber", "detectors.idler.efficiency"), ()))),
    # valid inputs: no heralded photon survives, or P(2) falls below the 1e-15 that P(n) resolves
    *(_row("wcp-compare", item, code=3, err=("numerical error: heralded P(1) = ",))
      for item in ("losses.alpha_idler=0", "source.mu=1e-9")),
    _row("estimate", "counts.trigger_rate_cps=5e-324", code=2,
         err=("scenario keys 'counts.coincidences_cps' and 'counts.trigger_rate_cps': ",)),
    *(_row("estimate", item, code=3, err=(f"numerical error: {message}\n",))
      for item, message in (("counts.signal_singles_cps=9e7", "signal singles imply 1.098 clicks per pulse (> 1)"),
                            ("counts.coincidences_cps=300000",
                             "per-trigger coincidence probability 1.388e+00 outside [0, 1]"))),
    # the counts imply mu ~ 552; it wrote P(1) = 0.133 from a head holding about 1e-153 of the law
    _row("estimate", "counts.coincidences_cps=100", "counts.signal_singles_cps=2.0e7", "counts.idler_singles_cps=20000",
         code=2, not_err=("source.mu",), err=(f"{COUNTS_KEYS}the poissonian pmf at mean 551.",)),
    # a scenario file that is not YAML, lacks a required key or a Monte Carlo seed
    *(Row(("simulate", "{dir}/bad.scenario"), code=2, inputs=(("bad.scenario", _replaced(old, new)),),
          err=("validation error: scenario is not valid YAML",))
      for old, new in (("sweep_mu: [0.02, 0.04, 0.0829, 0.1658, 0.25]", "sweep_mu: [0.02, 0.04, 0.0829"),
                       ("  mu: 0.0829", "     mu: 0.0829"),
                       ("  law: poissonian", "  law: !!python/object:os.system poissonian"))),
    _row("simulate", "run.sweep_mu=[0.1", code=2, err=("override 'run.sweep_mu=[0.1' is not valid YAML",)),
    *(Row((command, "{dir}/partial.scenario"), code=2, inputs=(("partial.scenario", _edited((key, None))),),
          err=(f"missing the required key {key!r}",))
      for key, command in (("crystal.signal_center_nm", "phasematch"), ("source.rep_rate_hz", "simulate"),
                           ("losses.alpha_idler", "herald-stats"), ("channel.receiver_efficiency", "sweep"),
                           ("counts.gate_rate_hz", "estimate"), ("dead_time.tau_us", "g2"))),
    Row(("simulate", "{dir}/noseed.scenario"), code=2,
        inputs=(("noseed.scenario", _edited(("run.seed", None), ("run.mode", "monte_carlo"))),)),
    # a seed outside [0, 2**128), named as the option or the key that gave it
    *(_row("simulate", *items, extra=(*MC[:4], *option), code=2, err=("seed must lie in [0, 2**128)", name))
      for items, option, name in (((), ("--seed", "-1"), "option '--seed'"),
                                  ((), ("--seed", str(2**128)), "option '--seed'"),
                                  (("run.seed=-1",), (), "scenario key 'run.seed'"))),
    *(_row("simulate", f"source.rep_rate_hz={value}", code=2, err=("source.rep_rate_hz",))
      for value in ("nan", ".nan", "inf", "-.inf", "1e999")),
    *(_row("simulate", f"{key}=0", code=2, err=(f"validation error: scenario key '{key}': {message}\n",))
      for key, message in (("source.rep_rate_hz", "repetition rate must be > 0, got 0.0"),
                           ("detectors.idler.gate_rate_hz", "gate rate must be > 0, got 0.0"),
                           ("detectors.coincidence_window_gates", "coincidence window must be >= 1, got 0"))),
    *(_row("simulate", item, code=2, err=(item.partition("=")[0],))
      for item in ("detectors.herald.mode=gated", "detectors.idler.mode=free_running",
                   "detectors.herald.afterpulse_prob=0.5")),
    *(_row("simulate", item, code=2, err=(f"scenario key {item.partition('=')[0]!r}",))
      for item in ("detectors.idler.efficiency=1.5", "dead_time.tau_us=-1", "losses.alpha_signal=1.5",
                   "detectors.idler.dark_prob_per_gate=2")),
    *(_row(command, item, extra=("--mode", "monte_carlo") * item.startswith(("run.seed", "run.n_pulses", "run.g2")),
           code=2, err=(f"validation error: scenario key {item.partition('=')[0]!r}: ",))
      for command, item in MODEL_RANGES),
    *(_row(command, item, code=2, err=(f"validation error: scenario key {item.partition('=')[0]!r}: expected one of ",))
      for command, item in (("phasematch", "source.law=foo"), ("simulate", "run.g2_arm=foo"))),
    _row("g2", extra=(*MC[:2], "--pulses", "5"), code=2,
         err=("validation error: option '--pulses': monte_carlo mode requires",)),
    # a subcommand that never runs the Monte Carlo still checks its run values
    *(_row(command, extra=extra, code=2, err=(f"validation error: {name}: ",))
      for command in ("estimate", "sweep", "phasematch", "spectrum")
      for extra, name in ((("--override", "run.mode=foo"), "scenario key 'run.mode'"),
                          (("--override", "run.mode=monte_carlo", "--override", "run.seed=-5"), "scenario key 'run.seed'"),
                          (("--override", "run.mode=monte_carlo", "--override", "run.n_pulses=5"),
                           "scenario key 'run.n_pulses'"),
                          (("--mode", "monte_carlo", "--pulses", "5"), "option '--pulses'"),
                          (("--mode", "monte_carlo", "--seed", "-5"), "option '--seed'"))),
    # spectral grids and widths: the envelope of a narrow gaussian underflows to its limit, 0,
    # with no numpy warning; a length in nm that overflowed to inf made every intensity NaN
    *(_row("spectrum", f"{key}=-3", code=2, err=(key,)) for key in ("crystal.grid.signal_points", "crystal.grid.idler_points")),
    _row("spectrum", "crystal.pump_fwhm_nm=1e-300", code=2, err=(f"scenario keys {NO_OVERLAP}: grid does not overlap",)),
    _row("spectrum", "crystal.pump_fwhm_nm=5e-324", code=2,
         err=("scenario key 'crystal.pump_fwhm_nm': pump FWHM 5e-324 nm under",)),
    _row("spectrum", "crystal.signal_fwhm_nm=5e-324"),
    _row("spectrum", "crystal.length_mm=1e303", code=2, err=("validation error: scenario key 'crystal.length_mm': ",)),
    # a law the pmf cuts at MAX_PAIRS = 64 pairs: it exited 3 with a false "herald probability is
    # zero", although every pulse heralds, and the Monte Carlo drew from the law's renormalised head
    _row("herald-stats", "source.mu=1e5", code=2,
         err=("validation error: scenario key 'source.mu': the poissonian pmf at mean 100000.0 is cut at "
              "MAX_PAIRS = 64 pairs, dropping tail mass 1;",)),
    *(_row("simulate", f"source.law={law}", f"source.mu={mu}", extra=MC_SEED_1, code=2,
           err=(f"validation error: scenario key 'source.mu': the {law} pmf at mean {float(mu)} is cut at "
                "MAX_PAIRS = 64 pairs, dropping tail mass",))
      for law, mu in (("thermal", "30"), ("poissonian", "65"))),
    _row("simulate", "source.law=thermal", "source.mu=1.4", extra=MC_SEED_1),
    # at mu = 1e3 every term of the poissonian pmf underflows to 0: the Monte Carlo drew from
    # 0 / 0 and died in numpy with a traceback
    *(_row(command, "source.mu=1e3", *arm, extra=MC_SEED_1, code=2,
           err=("validation error: scenario key 'source.mu': the poissonian pmf at mean 1000.0",))
      for command, *arm in (*LAW_READERS, ("g2",), HERALDED)),
    # the thermal pmf's Python floats overflowed, and each exited 1 with a traceback; the
    # analytic g2 of the unconditioned signal arm needs no pmf
    *(_row(command, "source.law=thermal", f"source.mu={mu}", *arm, extra=("--mode", mode, *MC[2:]), code=2,
           err=(f"validation error: scenario key 'source.mu': the thermal pmf at mean {float(mu)} overflows a float",))
      for command, *arm in (*LAW_READERS, HERALDED, UNCONDITIONED) for mode in defaults.RUN_MODES
      for mu in THERMAL_MEANS if (mode, (command, *arm)) != ("analytic", UNCONDITIONED)),
    *(_row("g2", "source.law=thermal", f"source.mu={mu}", UNCONDITIONED[1], extra=("--mode", "analytic", *MC[2:]),
           check=_g2_is_2)
      for mu in THERMAL_MEANS),
    # it exited 0 and wrote pump_power_mw null on every row
    _row("sweep", "source.pairs_per_pulse_per_mw=-1", code=2,
         err=("validation error: scenario key 'source.pairs_per_pulse_per_mw': pump calibration must be >= 0",)),
]


def _in_process(argv):
    """Exit code, stdout and stderr of cli.main(argv), each warning written to stderr as its category and message."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(list(argv))
    err.writelines(f"{w.category.__name__}: {w.message}\n" for w in seen)
    return code, out.getvalue(), err.getvalue()


def _console(argv):
    """Exit code, stdout and stderr of the installed script, run with no PYTHONPATH."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([SCRIPT, *argv], capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def _check_row(row, run, directory):
    for name, source in row.inputs:
        if isinstance(source, str):
            (directory / name).write_text(source)
        else:
            assert run([*source, "--out-dir", str(directory)])[0] == 0
    out = directory / "out"
    code, stdout, err = run([arg.replace("{dir}", str(directory)) for arg in row.argv] + ["--out-dir", str(out)])
    assert code == row.code, err
    for text in row.err:
        assert text.replace("{dir}", str(directory)) in err, err
    assert not any(text in err for text in row.not_err), err
    assert ("Warning: " in err) == any("Warning: " in text for text in row.err), err
    if row.code:
        assert stdout == "", stdout
        assert not out.exists() or not any(out.iterdir())
    if row.check:
        row.check(out, stdout)


def _row_id(row):
    argv = " ".join(arg if len(arg) <= 40 else f"{arg[:30]}...({len(arg)} chars)" for arg in row.argv)
    # a given text is named by its checksum: rows give different texts under one file name
    inputs = "".join(f" ({name} given, crc {zlib.crc32(source.encode()):08x})" if isinstance(source, str)
                     else f" ({name} of {source[0]})" for name, source in row.inputs)
    return argv + inputs


@pytest.mark.parametrize("row", CONSOLE + IN_PROCESS, ids=_row_id)
def test_console_row_in_process(tmp_path, row):
    _check_row(row, _in_process, tmp_path)


def _script_calls(row, directory):
    """The directory and the result by argv of each script call ``_check_row(row, ..., directory)``
    makes: the row's input files are written, its input argvs run, then its argv."""
    directory.mkdir()
    calls = {}
    for name, source in row.inputs:
        if isinstance(source, str):
            (directory / name).write_text(source)
        else:
            argv = (*source, "--out-dir", str(directory))
            calls[argv] = _console(argv)
    argv = (*(arg.replace("{dir}", str(directory)) for arg in row.argv), "--out-dir", str(directory / "out"))
    calls[argv] = _console(argv)
    return directory, calls


@pytest.fixture(scope="module")
def script_runs(tmp_path_factory):
    """Every row's script calls, the rows run concurrently: each waits on fresh processes."""
    root = tmp_path_factory.mktemp("script")
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        return dict(zip(CONSOLE, pool.map(_script_calls, CONSOLE, (root / str(i) for i in range(len(CONSOLE))))))


@pytest.mark.skipif(SCRIPT is None, reason="no spdcherald console script on PATH")
@pytest.mark.parametrize("row", CONSOLE, ids=_row_id)
def test_console_row_through_the_script(script_runs, tmp_path, row):
    # a call writes the same bytes whatever process it runs in: a fresh one, or this one after
    # every test before it (a refusal: nothing on either side)
    script, calls = script_runs[row]
    _check_row(row, lambda argv: calls[tuple(argv)], script)
    _check_row(row, _in_process, tmp_path)
    assert _written(script) == _written(tmp_path)


def _module(*argv, env=(), **kwargs):
    """``python -m spdcherald.cli ARGV``, run on this test's package, with ``env`` set or, where None, removed."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), **dict(env)}
    env = {key: value for key, value in env.items() if value is not None}
    return subprocess.run([sys.executable, "-m", "spdcherald.cli", *argv], env=env, text=True, **kwargs)


class TestProcessExit:
    """A fresh process exits with main's code once its artifacts and both streams are out, and
    with 4, an i/o error, where a stream cannot be flushed."""

    def test_the_console_script_enters_through_run(self):
        try:
            entries = importlib.metadata.distribution("spdcherald").entry_points
        except importlib.metadata.PackageNotFoundError:
            pytest.skip("spdcherald is not installed")
        assert [(e.name, e.value) for e in entries if e.group == "console_scripts"] == [("spdcherald", "spdcherald.cli:run")]

    def test_streams_on_pipes_arrive_whole(self, tmp_path):
        # buffered stdout: its summary is still in the buffer when main returns
        argv = ("simulate", BUNDLED, "--out-dir", str(tmp_path / "out"))
        done = _module(*argv, env={"PYTHONUNBUFFERED": None}, capture_output=True)
        assert (done.returncode, done.stdout, done.stderr) == _in_process(argv)

    # unbuffered, print raises in main, which reports it; buffered, the summary waits in the
    # buffer, and run reports the flush that fails
    @pytest.mark.parametrize("unbuffered", ["1", None])
    def test_a_closed_stdout_pipe(self, tmp_path, unbuffered):
        read, write = os.pipe()
        os.close(read)
        try:
            done = _module("simulate", BUNDLED, "--out-dir", str(tmp_path), env={"PYTHONUNBUFFERED": unbuffered},
                           stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert done.returncode == 4
        assert done.stderr.endswith("\ni/o error: [Errno 32] Broken pipe\n"), done.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.csv", "counts.json"]

    @pytest.mark.parametrize("environ,threads", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")])
    def test_a_fresh_process_starts_one_openblas_thread(self, monkeypatch, environ, threads):
        # unless the user set a number; numpy reads it at its first import, which main makes
        monkeypatch.setattr(os, "environ", environ)
        monkeypatch.setattr(cli, "main", lambda: os.environ["OPENBLAS_NUM_THREADS"])
        exits = []
        monkeypatch.setattr(os, "_exit", exits.append)
        cli.run()
        assert exits == [threads]

    def test_a_closed_stdout_descriptor(self, tmp_path):
        # with fd 1 closed the interpreter sets sys.stdout to None, and print writes nothing
        done = _module("simulate", BUNDLED, "--out-dir", str(tmp_path), preexec_fn=partial(os.close, 1),
                       stderr=subprocess.PIPE)
        assert done.returncode == 0, done.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["counts.csv", "counts.json"]

    def test_version(self):
        done = _module("--version", capture_output=True)
        assert (done.returncode, done.stdout, done.stderr) == (0, "spdcherald 0.1.0\n", "")

    def test_a_missing_scenario_is_a_usage_error(self):
        done = _module("simulate", capture_output=True)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("usage: spdcherald simulate ")
        assert done.stderr.endswith("\nspdcherald simulate: error: the following arguments are required: scenario\n")


class TestCommandTable:
    def test_artifact_list_covers_the_table(self):
        assert list(ARTIFACTS) == list(COMMANDS)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_rows_are_cell_lists_or_spectrum_text(self, command):
        # run_scenario writes a list through csv.writer and anything else as the body's text
        scenario = load_scenario(BUNDLED, [])
        run = cli._run_params(scenario, cli.build_parser().parse_args([command, BUNDLED]))
        rows = COMMANDS[command][1](scenario, run)[4]
        if command == "spectrum":
            assert not isinstance(rows, list) and all(isinstance(chunk, str) for chunk in rows)
        else:
            assert isinstance(rows, list) and all(isinstance(row, list) for row in rows)

    @pytest.mark.parametrize("key", ["crystal.grid.signal_points", "crystal.grid.idler_points"])
    def test_oversized_grid_exits_2_allocating_nothing(self, tmp_path, capsys, key):
        # 10**9 points on one axis asked numpy for gigabytes
        override = f"{key}={10**9}"
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=key):
                load_scenario(BUNDLED, [override]).spectral_grid()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert main(["spectrum", BUNDLED, "--override", override, "--out-dir", str(tmp_path)]) == 2
        assert f"{key!r}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_spectrum_csv_is_streamed(self, tmp_path, capsys):
        # 25,000 cells: holding a Python row per cell peaked at 3.2 MiB, the
        # streamed rows at 0.75 MiB, most of it the spectrum's own arrays
        argv = [
            "spectrum", BUNDLED, "--override", "crystal.grid.signal_points=10",
            "--override", "crystal.grid.idler_points=2500", "--out-dir", str(tmp_path),
        ]
        assert main(argv) == 0  # warms the caches, which would count otherwise
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20, peak
        assert "grid            : 25000 cells" in capsys.readouterr().out
        with (tmp_path / "spectrum.csv").open() as fh:
            assert sum(1 for _ in fh) == 1 + 25_000

    def test_grid_cell_bound(self):
        square = load_scenario(BUNDLED, ["crystal.grid.signal_points=2048", "crystal.grid.idler_points=2048"])
        assert [axis.size for axis in square.spectral_grid()] == [2048, 2048]
        assert 2048 * 2048 == scenario_module.MAX_GRID_CELLS
        wider = load_scenario(BUNDLED, ["crystal.grid.signal_points=2048", "crystal.grid.idler_points=2049"])
        with pytest.raises(ValidationError, match="at most 4194304"):
            wider.spectral_grid()

    def test_sweep_row_of_a_thermal_overflow_carries_its_message(self, tmp_path):
        argv = ["sweep", BUNDLED, "--override", "source.law=thermal", "--override", "run.sweep_mu=[0.1, 4e4, 1e5, 1e300]",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        rows = _strict_record(tmp_path / "sweep.json")["result"]["rows"]
        assert rows[0]["error"] is None
        for row in rows[1:]:
            assert row["error"].startswith(f"ValidationError: the thermal pmf at mean {row['mu']} overflows a float")

    def test_sweep_without_pump_calibration_writes_null(self, tmp_path):
        argv = ["sweep", BUNDLED, "--override", "source.pairs_per_pulse_per_mw=0", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        rows = _strict_record(tmp_path / "sweep.json")["result"]["rows"]
        assert len(rows) == 5
        assert all(r["pump_power_mw"] is None and r["p1"] > 0.0 for r in rows)
        with (tmp_path / "sweep.csv").open() as fh:
            assert [r[1] for r in list(csv.reader(fh))[1:]] == ["nan"] * 5

    def test_non_finite_result_exits_3_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        def nan_result(scenario, run):
            return "g2.json", {"g2": float("nan")}, "g2.csv", ["g2"], [[0.0]], []

        monkeypatch.setitem(cli.COMMANDS, "g2", (COMMANDS["g2"][0], nan_result))
        assert main(["g2", BUNDLED, "--out-dir", str(tmp_path)]) == 3
        assert "numerical error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


# Numeric scenario leaves that no artifact reads, by design.
DESCRIPTIVE_KEYS = {
    # the sweep derives pump power from mu and source.pairs_per_pulse_per_mw
    "source.pump_power_mw",
    # the model counts per gate, whatever the gate's width
    "detectors.idler.gate_width_ns",
    # added to both sides of the security bound, so it cancels in max_secure_distance
    "channel.receiver_dark_per_pulse",
}


def _numeric_leaves(node, path):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _numeric_leaves(value, f"{path}{key}.")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield f"{path}{key}", value


MODEL_LEAVES = [
    leaf
    for section in ("source", "losses", "detectors", "dead_time", "channel")
    for leaf in _numeric_leaves(load_scenario(BUNDLED).data[section], f"{section}.")
]


def _readers(key):
    return [name for name, (sections, _) in COMMANDS.items() if key.split(".")[0] in sections]


def _analytic_outputs(out_dir, command, overrides=()):
    """Exit code and, on success, the JSON result and the CSV bytes (the
    provenance hashes the scenario, so it changes with any override)."""
    argv = [command, BUNDLED, "--mode", "analytic", "--out-dir", str(out_dir)]
    code = main(argv + [arg for item in overrides for arg in ("--override", item)])
    if code != 0:
        return code, None
    json_name, csv_name, _ = ARTIFACTS[command]
    return code, (_strict_record(out_dir / json_name)["result"], (out_dir / csv_name).read_bytes())


class TestEveryKeyIsRead:
    @pytest.fixture(scope="class")
    def bundled_outputs(self, tmp_path_factory):
        readers = {c for key, _ in MODEL_LEAVES for c in _readers(key)}
        return {c: _analytic_outputs(tmp_path_factory.mktemp(c), c) for c in readers}

    def test_descriptive_keys_are_scenario_leaves(self):
        assert DESCRIPTIVE_KEYS <= {key for key, _ in MODEL_LEAVES}

    @pytest.mark.parametrize("key,value", MODEL_LEAVES, ids=[key for key, _ in MODEL_LEAVES])
    def test_perturbed_key_changes_an_artifact_or_exits_2(self, tmp_path, capsys, bundled_outputs, key, value):
        perturbed = value + 1 if isinstance(value, int) else value * 0.8 if value else 0.5
        outputs = {c: _analytic_outputs(tmp_path / c, c, [f"{key}={perturbed!r}"]) for c in _readers(key)}
        assert all(code in (0, 2) for code, _ in outputs.values()), outputs
        changed = {c for c, out in outputs.items() if out != bundled_outputs[c]}
        assert not changed if key in DESCRIPTIVE_KEYS else changed, (key, changed)


def _optional_leaves():
    return [(key, leaf) for key, leaf in scenario_module.leaves() if leaf.default is not scenario_module.REQUIRED]


def _without_empty_sections(node):
    return {k: _without_empty_sections(v) if isinstance(v, dict) else v for k, v in node.items() if v != {}}


def _models(scenario):
    return (
        scenario.to_setup_config(), scenario.to_crystal(), scenario.to_channel(), scenario.to_counts(),
        [axis.tolist() for axis in scenario.spectral_grid()],
    )


class TestSchema:
    """SCHEMA declares each key once: its kind, its default and the model field it feeds."""

    def test_omitted_defaults_build_what_stated_defaults_build(self, tmp_path):
        omitted, stated = yaml.safe_load(bundled_text()), yaml.safe_load(bundled_text())
        for key, leaf in _optional_leaves():
            _set(omitted, key, drop=True)
            _set(stated, key, leaf.default)
        omitted = _without_empty_sections(omitted)
        assert "run" not in omitted and "grid" not in omitted["crystal"]
        outputs = []
        for name, data in (("omitted", omitted), ("stated", stated)):
            path = tmp_path / f"{name}.scenario"
            path.write_text(yaml.safe_dump(data))
            scenario = load_scenario(path)
            results = {}
            for command, (json_name, csv_name, _) in ARTIFACTS.items():
                out = tmp_path / name / command
                assert main([command, str(path), "--out-dir", str(out)]) == 0
                results[command] = (_strict_record(out / json_name)["result"], (out / csv_name).read_bytes())
            outputs.append((_models(scenario), results))
            # a default is read, never written into the scenario
            assert scenario.data == yaml.safe_load(path.read_text())
        assert outputs[0] == outputs[1]

    def test_choices_are_the_defaults_tuples(self):
        choices = {key: leaf.choices for key, leaf in scenario_module.leaves() if leaf.kind == "choice"}
        assert choices == {
            "source.law": defaults.LAWS,
            "detectors.herald.mode": defaults.HERALD_MODES,
            "detectors.idler.mode": defaults.IDLER_MODES,
            "dead_time.model": defaults.DEAD_TIME_MODELS,
            "run.mode": defaults.RUN_MODES,
            "run.g2_arm": defaults.HBT_ARMS,
        }
        for key, values in choices.items():
            assert dict(scenario_module.leaves())[key].default == values[0]
            for value in values:
                parse_scenario(bundled_text(), [f"{key}={value}"])

    def test_descriptive_keys_are_the_schemas(self):
        assert DESCRIPTIVE_KEYS == {key for key, leaf in scenario_module.leaves() if leaf.descriptive}

    def test_readme_table_is_the_schema(self):
        rows = ["| Key | Kind | Default | Model field |", "| --- | --- | --- | --- |"]
        for key, leaf in scenario_module.leaves():
            default = leaf.default
            if default is scenario_module.REQUIRED:
                default = "required"
            elif default is None:
                default = "none"
            else:
                default = f"`{list(default) if isinstance(default, tuple) else default}`"
            feeds = ", ".join([f"`{leaf.field}`"] * bool(leaf.field) + ["descriptive"] * leaf.descriptive) or "—"
            rows.append(f"| `{key}` | {leaf.kind} | {default} | {feeds} |")
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        assert "\n".join(rows) + "\n\n" in readme

    def test_each_model_field_names_its_key(self):
        fed = [(key, leaf.field) for key, leaf in scenario_module.leaves() if leaf.field]
        fields = [field for _, field in fed]
        # one key per field, but for the two detectors' efficiencies, told apart by their section
        assert {field for field in fields if fields.count(field) > 1} == {"efficiency"}
        for key, field in fed + [("source.mu", "mean")]:
            within = key.rsplit(".", 1)[0] + "." if field == "efficiency" else ""
            named = scenario_module.named(ValidationError("out of range", field), within)
            assert str(named) == f"scenario key {key!r}: out of range"
        unnamed = ValidationError("out of range")
        assert scenario_module.named(unnamed) is unnamed


class TestImportGraph:
    """Each subcommand loads only the package modules it runs, and no scipy."""

    # besides the modules every subcommand loads: cli, scenario, errors and defaults (the bundled
    # scenario is read as a file, importing no spdcherald.data)
    MODELS = {
        "simulate": {"detectors", "pair_source", "experiment"},
        "g2": {"detectors", "pair_source", "experiment"},
        "herald-stats": {"detectors", "pair_source", "experiment", "qkd"},
        "sweep": {"detectors", "pair_source", "experiment", "qkd"},
        "estimate": {"detectors", "pair_source", "experiment", "estimator"},
        "wcp-compare": {"detectors", "pair_source", "experiment", "estimator"},
        "phasematch": {"phase_matching"},
        "spectrum": {"phase_matching"},
    }

    @staticmethod
    def _run(code: str, *args: str) -> list:
        out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, check=True)
        return json.loads(out.stdout.splitlines()[-1])

    def test_table_covers_every_subcommand(self):
        assert set(self.MODELS) == set(COMMANDS)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_loads_only_what_it_runs(self, tmp_path, command):
        # as the spdcherald console script runs it: import spdcherald.cli, call main
        code = (
            "import json, sys, spdcherald.cli; code = spdcherald.cli.main(sys.argv[1:]); "
            "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] in ('spdcherald', 'scipy'))]))"
        )
        code, loaded = self._run(code, command, BUNDLED, "--out-dir", str(tmp_path))
        expected = {"cli", "scenario", "errors", "defaults"} | self.MODELS[command]
        assert code == 0
        assert loaded == sorted({"spdcherald"} | {f"spdcherald.{module}" for module in expected})

    def test_package_loads_no_submodule_and_cli_no_numpy(self):
        code = (
            "import json, sys, spdcherald; package = [m for m in sys.modules if m.startswith('spdcherald.')]; "
            "import spdcherald.cli; print(json.dumps([package, 'numpy' in sys.modules]))"
        )
        assert self._run(code) == [[], False]

    def test_a_module_read_as_a_package_attribute_is_imported(self):
        # in a fresh interpreter, where no import has set the attribute yet
        code = (
            "import json, sys, spdcherald; before = 'spdcherald.qkd' in sys.modules; module = spdcherald.qkd; "
            "print(json.dumps([before, module is sys.modules['spdcherald.qkd']]))"
        )
        assert self._run(code) == [False, True]

    def test_every_public_name_resolves_to_its_modules(self):
        import importlib

        import spdcherald

        assert spdcherald.__all__[0] == "__version__" and len(set(spdcherald.__all__)) == len(spdcherald.__all__)
        for name in spdcherald.__all__[1:]:
            module = importlib.import_module(f"spdcherald.{spdcherald._MODULE_OF[name]}")
            assert getattr(spdcherald, name) is getattr(module, name), name
        assert set(spdcherald.__all__) <= set(dir(spdcherald))
        assert spdcherald.qkd is importlib.import_module("spdcherald.qkd")
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            spdcherald.nonexistent
