import copy
import csv
import json
import subprocess
import sys
import tracemalloc
import warnings
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

    @pytest.mark.parametrize(
        "old,new",
        [
            ("sweep_mu: [0.02, 0.04, 0.0829, 0.1658, 0.25]", "sweep_mu: [0.02, 0.04, 0.0829"),
            ("  mu: 0.0829", "     mu: 0.0829"),
            ("  law: poissonian", "  law: !!python/object:os.system poissonian"),
        ],
        ids=["unclosed_flow_sequence", "bad_indentation", "python_object_tag"],
    )
    def test_invalid_yaml_exits_2(self, tmp_path, capsys, old, new):
        path = tmp_path / "bad.scenario"
        path.write_text(bundled_text().replace(old, new))
        assert new in path.read_text()
        assert main(["simulate", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "validation error: scenario is not valid YAML" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_override_yaml_exits_2_naming_it(self, tmp_path, capsys):
        assert main(["simulate", BUNDLED, "--override", "run.sweep_mu=[0.1", "--out-dir", str(tmp_path)]) == 2
        assert "override 'run.sweep_mu=[0.1' is not valid YAML" in capsys.readouterr().err
        assert not (tmp_path / "counts.json").exists()

    def test_missing_section_named(self):
        scenario = parse_scenario(bundled_text())
        del scenario.data["channel"]
        with pytest.raises(ValidationError, match="^scenario is missing the required key 'channel'$"):
            scenario.section("channel")
        assert scenario.section("source").path == "source."
        assert scenario.section("detectors")["idler"].path == "detectors.idler."


def _written(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())} if out.exists() else {}


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

    def test_one_process_writes_what_fresh_processes_write(self, tmp_path, capsys):
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
        fresh = []
        for i, argv in enumerate(argvs):
            out = tmp_path / f"fresh-{i}"
            code = subprocess.run(
                [sys.executable, "-m", "spdcherald.cli", *argv, "--out-dir", str(out)], capture_output=True
            ).returncode
            fresh.append((code, _written(out)))
        assert [code for code, _ in fresh] == [0, 0, 0, 2, 0, 0]
        assert rounds[0] == rounds[1] == fresh


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

    def test_analytic_rerun_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", BUNDLED, "--out-dir", str(a)]) == 0
        assert main(["simulate", BUNDLED, "--out-dir", str(b)]) == 0
        assert (a / "counts.json").read_bytes() == (b / "counts.json").read_bytes()
        assert (a / "counts.csv").read_bytes() == (b / "counts.csv").read_bytes()

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

    @pytest.mark.parametrize(
        "artifact,overrides",
        [
            ("counts.json", []),
            ("counts.csv", []),
            ("counts.json", ["source.law=thermal", "detectors.coincidence_window_gates=3"]),
            ("counts.csv", ["source.law=thermal", "detectors.coincidence_window_gates=3"]),
            ("counts.json", ["source.law=multimode_thermal", "source.modes=3"]),
            ("counts.csv", ["source.law=multimode_thermal", "source.modes=3"]),
        ],
        ids=[
            "counts.json",
            "counts.csv",
            "counts.json-thermal-window-3",
            "counts.csv-thermal-window-3",
            "counts.json-multimode-3",
            "counts.csv-multimode-3",
        ],
    )
    def test_estimate_from_simulated_counts_file(self, tmp_path, artifact, overrides):
        # simulate -> estimate round trip through the emitted artifacts
        flags = [arg for entry in overrides for arg in ("--override", entry)]
        assert main(["simulate", BUNDLED, *flags, "--out-dir", str(tmp_path)]) == 0
        code = main(
            [
                "estimate", BUNDLED, *flags,
                "--counts", str(tmp_path / artifact),
                "--out-dir", str(tmp_path / "est"),
            ]
        )
        assert code == 0
        record = json.loads((tmp_path / "est" / "estimate.json").read_text())
        assert record["result"]["mu"] == pytest.approx(0.0829, rel=1e-6)
        assert record["result"]["alpha_signal"] == pytest.approx(0.1687, rel=1e-6)
        assert record["result"]["alpha_idler"] == pytest.approx(0.2200, rel=1e-6)

    @pytest.mark.parametrize(
        "name,text,message",
        [
            (
                "counts.json",
                '{"result": {"signal_singles_cps": NaN, "idler_singles_cps": 285.0, '
                '"coincidences_cps": 3058.6, "trigger_rate_cps": 217997.2, "gate_rate_hz": 1e6}}',
                "scenario key 'counts.signal_singles_cps' must be finite",
            ),
            (
                "counts.csv",
                "signal_singles_cps,idler_singles_cps,coincidences_cps,trigger_rate_cps,gate_rate_hz\n"
                "291888.0,285.0,nan,217997.2,1e6\n",
                "scenario key 'counts.coincidences_cps' must be finite",
            ),
            (
                "counts.csv",
                "signal_singles_cps,idler_singles_cps,coincidences_cps,trigger_rate_cps,gate_rate_hz\n"
                "291888.0,abc,3058.6,217997.2,1e6\n",
                "scenario key 'counts.idler_singles_cps' must be a number, got 'abc'",
            ),
            (
                "counts.json",
                '{"result": {"signal_singles_cps": 291888.0, "idler_singles_cps": "many", '
                '"coincidences_cps": 3058.6, "trigger_rate_cps": 217997.2, "gate_rate_hz": 1e6}}',
                "scenario key 'counts.idler_singles_cps' must be a number, got 'many'",
            ),
            ("counts.json", "[291888.0, 285.0, 3058.6, 217997.2, 1e6]", "scenario key 'counts' must be a mapping"),
            ("counts.json", '{"result": {"signal_singles_cps": 291888.0,', "Expecting"),
            # a second data row was ignored, and the run exited 0 on the first
            (
                "counts.csv",
                "signal_singles_cps,idler_singles_cps,coincidences_cps,trigger_rate_cps,gate_rate_hz\n"
                "291888.0,285.0,3058.6,217997.2,2.05e5\n291888.0,285.0,3058.6,217997.2,2.05e5\n",
                "expected a header and one data row, found 3 rows",
            ),
            # cells past the header's were dropped, and the run exited 0
            (
                "counts.csv",
                "signal_singles_cps,idler_singles_cps,coincidences_cps,trigger_rate_cps,gate_rate_hz\n"
                "291888.0,285.0,3058.6,217997.2,2.05e5,7\n",
                "the data row has 6 cells for 5 header cells",
            ),
            (
                "counts.csv",
                "signal_singles_cps,idler_singles_cps,coincidences_cps,trigger_rate_cps,gate_rate_hz\n"
                "291888.0,285.0,3058.6,217997.2\n",
                "the data row has 4 cells for 5 header cells",
            ),
            ("counts.csv", "signal_singles_cps,idler_singles_cps\n\n", "expected a header and one data row, found 1 rows"),
            # the last of two cells under one name was read, the first dropped
            (
                "counts.csv",
                "signal_singles_cps,idler_singles_cps,coincidences_cps,trigger_rate_cps,gate_rate_hz,signal_singles_cps\n"
                "291888.0,285.0,3058.6,217997.2,2.05e5,291888.0\n",
                "the header names a column twice",
            ),
            # a column no counts key has was ignored, and the run exited 0
            (
                "counts.csv",
                "signal_singles_cps,idler_singles_cps,coincidences_cps,trigger_rate_cps,gate_rate_hz,bogus\n"
                "291888.0,285.0,3058.6,217997.2,2.05e5,1\n",
                "unknown scenario key 'counts.bogus'",
            ),
            (
                "counts.json",
                '{"result": {"signal_singles_cps": 291888.0, "idler_singles_cps": 285.0, '
                '"coincidences_cps": 3058.6, "trigger_rate_cps": 217997.2, "gate_rate_hz": 1e6, "bogus": 1}}',
                "unknown scenario key 'counts.bogus'",
            ),
            (
                "counts.json",
                '{"signal_singles_cps": 291888.0, "idler_singles_cps": 285.0, '
                '"coincidences_cps": 3058.6, "trigger_rate_cps": 217997.2}',
                "scenario is missing the required key 'counts.gate_rate_hz'",
            ),
            # a per-trigger probability the rates contradict was ignored, and the run exited 0
            (
                "counts.csv",
                "signal_singles_cps,idler_singles_cps,coincidences_cps,trigger_rate_cps,gate_rate_hz,"
                "per_trigger_coincidence_prob\n291888.0,285.0,3058.6,217997.2,2.05e5,0.5\n",
                "'per_trigger_coincidence_prob' is '0.5', but coincidences_cps / trigger_rate_cps is",
            ),
        ],
        ids=[
            "json", "csv", "csv-non-numeric", "json-string", "json-list", "json-malformed",
            "csv-two-data-rows", "csv-extra-cells", "csv-missing-cells", "csv-no-data-row", "csv-repeated-column",
            "csv-unknown-column", "json-unknown-key", "json-missing-rate", "csv-disagreeing-per-trigger",
        ],
    )
    def test_estimate_from_non_finite_counts_file_exits_2(self, tmp_path, capsys, name, text, message):
        # json.loads parses NaN, and float("nan") is a float
        path = tmp_path / name
        path.write_text(text)
        code = main(["estimate", BUNDLED, "--counts", str(path), "--out-dir", str(tmp_path / "est")])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert f"counts file {str(path)!r}" in err
        assert not (tmp_path / "est" / "estimate.json").exists()

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

    def test_validation_failure_exits_2(self, tmp_path):
        code = main(
            ["simulate", BUNDLED, "--override", "source.muu=1", "--out-dir", str(tmp_path)]
        )
        assert code == 2

    def test_numerical_failure_exits_3(self, tmp_path):
        code = main(
            [
                "estimate", BUNDLED,
                "--override", "counts.signal_singles_cps=10",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 3

    def test_zero_calibration_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "estimate", BUNDLED,
                "--override", "losses.t_idler_optics=0",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert "t_idler_optics is 0" in capsys.readouterr().err
        assert not (tmp_path / "estimate.json").exists()

    @pytest.mark.parametrize(
        "keys",
        [
            ["losses.t_signal_optics"],
            ["detectors.herald.efficiency"],
            ["losses.t_idler_optics"],
            ["losses.t_delay_fiber"],
            ["detectors.idler.efficiency"],
            ["losses.t_delay_fiber", "detectors.idler.efficiency"],
        ],
        ids=" ".join,
    )
    def test_zero_calibration_names_each_zero_key(self, tmp_path, capsys, keys):
        overrides = [arg for key in keys for arg in ("--override", f"{key}=0")]
        assert main(["estimate", BUNDLED, *overrides, "--out-dir", str(tmp_path)]) == 2
        named = f"scenario key{'s' * (len(keys) > 1)} {' and '.join(map(repr, keys))}"
        assert f"validation error: {named}: calibrated " in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["losses.alpha_idler=0", "source.mu=1e-9"], ids=["no_p1", "no_p2"])
    def test_wcp_compare_of_a_zero_p1_or_p2_exits_3(self, tmp_path, capsys, override):
        # valid inputs: no heralded photon survives, or P(2) falls below the 1e-15 that P(n) resolves
        assert main(["wcp-compare", BUNDLED, "--override", override, "--out-dir", str(tmp_path)]) == 3
        assert "numerical error: heralded P(1) = " in capsys.readouterr().err
        assert not (tmp_path / "wcp_compare.json").exists()

    def test_zero_per_trigger_denominator_names_its_keys(self, tmp_path, capsys):
        argv = ["estimate", BUNDLED, "--override", "counts.trigger_rate_cps=5e-324", "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert "scenario keys 'counts.coincidences_cps' and 'counts.trigger_rate_cps': " in capsys.readouterr().err

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

    def test_monte_carlo_without_seed_exits_2(self, tmp_path):
        text = bundled_text()
        data = yaml.safe_load(text)
        data["run"].pop("seed")
        data["run"]["mode"] = "monte_carlo"
        path = tmp_path / "noseed.scenario"
        path.write_text(yaml.safe_dump(data))
        assert main(["simulate", str(path), "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "how", [["--seed", "-1"], ["--seed", str(2**128)], ["--override", "run.seed=-1"]]
    )
    def test_out_of_range_seed_exits_2(self, tmp_path, capsys, how):
        argv = ["simulate", BUNDLED, "--mode", "monte_carlo", "--pulses", "1000000", *how]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "seed must lie in [0, 2**128)" in err
        assert ("option '--seed'" if how[0] == "--seed" else "scenario key 'run.seed'") in err
        assert not (tmp_path / "counts.json").exists()

    @pytest.mark.parametrize("value", ["nan", ".nan", "inf", "-.inf", "1e999"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, value):
        override = f"source.rep_rate_hz={value}"
        assert main(["simulate", BUNDLED, "--override", override, "--out-dir", str(tmp_path)]) == 2
        assert "source.rep_rate_hz" in capsys.readouterr().err
        assert not (tmp_path / "counts.json").exists()

    def test_non_finite_list_entry_named(self):
        with pytest.raises(ValidationError, match=r"run.sweep_mu\[1\]"):
            parse_scenario(bundled_text(), overrides=["run.sweep_mu=[0.1, .nan]"])

    def test_estimate_notes_only_the_sections_it_skips(self, tmp_path, capsys):
        assert main(["estimate", BUNDLED, "--out-dir", str(tmp_path)]) == 0
        assert "note: sections not used by 'estimate': channel, crystal\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            "detectors.herald.mode=gated",
            "detectors.idler.mode=free_running",
            "detectors.herald.afterpulse_prob=0.5",
        ],
    )
    def test_detector_key_the_model_cannot_take_exits_2(self, tmp_path, capsys, override):
        assert main(["simulate", BUNDLED, "--override", override, "--out-dir", str(tmp_path)]) == 2
        assert override.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "counts.json").exists()

    @pytest.mark.parametrize(
        "override",
        [
            "detectors.idler.efficiency=1.5",
            "dead_time.tau_us=-1",
            "losses.alpha_signal=1.5",
            "detectors.idler.dark_prob_per_gate=2",
        ],
    )
    def test_out_of_range_value_exits_2_naming_its_key(self, tmp_path, capsys, override):
        assert main(["simulate", BUNDLED, "--override", override, "--out-dir", str(tmp_path)]) == 2
        assert f"scenario key {override.split('=')[0]!r}" in capsys.readouterr().err
        assert not (tmp_path / "counts.json").exists()

    @pytest.mark.parametrize(
        "command,override",
        [
            ("spectrum", "crystal.pump_fwhm_nm=0"),
            ("spectrum", "crystal.signal_fwhm_nm=0"),
            ("phasematch", "crystal.length_mm=0"),
            ("phasematch", "crystal.cut_angle_deg=100"),
            ("phasematch", "crystal.sellmeier_ordinary=[2.7359, 0.01878, 0.01822]"),
            ("simulate", "run.seed=-1"),
            ("simulate", "run.n_pulses=5"),
            ("simulate", "run.mode=fast"),
            ("g2", "run.g2_arm=both"),
            ("g2", "run.splitter_ratio=1"),
            ("sweep", "channel.loss_db_per_km=-1"),
            ("sweep", "channel.receiver_efficiency=2"),
            ("sweep", "channel.receiver_dark_per_pulse=2"),
            ("sweep", "run.sweep_mu=[-1]"),
            ("sweep", "run.sweep_mu=[0.2, 0.1]"),
            ("sweep", "run.sweep_mu=[]"),
            ("estimate", "counts.signal_singles_cps=-1"),
            ("phasematch", "crystal.pump_center_nm=2000"),
            ("phasematch", "crystal.pump_center_nm=100"),
        ],
    )
    def test_model_range_error_exits_2_naming_its_key(self, tmp_path, capsys, command, override):
        mode = ["--mode", "monte_carlo"] if override.startswith(("run.seed", "run.n_pulses", "run.g2")) else []
        argv = [command, BUNDLED, *mode, "--override", override, "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert f"validation error: scenario key {override.split('=')[0]!r}: " in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["phasematch", "spectrum"])
    @pytest.mark.parametrize("key", ["crystal.sellmeier_ordinary", "crystal.sellmeier_extraordinary"])
    @pytest.mark.parametrize(
        "value", ["[-5, 0.01878, 0.01822, 0.01354]", "[2.7359, 1.0, 0.36, 0.01354]"], ids=["negative", "pole_at_600nm"]
    )
    def test_sellmeier_set_without_a_real_index_exits_2_naming_its_key(self, tmp_path, capsys, command, key, value):
        # spectrum exited 0 with every intensity NaN, phasematch 3 with "non-finite result"
        assert main([command, BUNDLED, "--override", f"{key}={value}", "--out-dir", str(tmp_path)]) == 2
        assert f"validation error: scenario key {key!r}: Sellmeier set" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_mode_count_past_the_largest_float_exits_2_naming_its_key(self, tmp_path, capsys, command):
        # it exited 1 with an OverflowError traceback from the pmf's mu / modes
        overrides = ["source.law=multimode_thermal", f"source.modes=1{'0' * 400}"]
        argv = [command, BUNDLED, *(arg for item in overrides for arg in ("--override", item))]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 2
        assert ("validation error: scenario key 'source.modes': modes must not exceed the largest float"
                in capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    def test_pulses_option_named(self, tmp_path, capsys):
        argv = ["g2", BUNDLED, "--mode", "monte_carlo", "--pulses", "5", "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert "validation error: option '--pulses': monte_carlo mode requires" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "sweep", "phasematch", "spectrum"])
    @pytest.mark.parametrize(
        "extra,name",
        [
            (["--override", "run.mode=foo"], "scenario key 'run.mode'"),
            (["--override", "run.mode=monte_carlo", "--override", "run.seed=-5"], "scenario key 'run.seed'"),
            (["--override", "run.mode=monte_carlo", "--override", "run.n_pulses=5"], "scenario key 'run.n_pulses'"),
            (["--mode", "monte_carlo", "--pulses", "5"], "option '--pulses'"),
            (["--mode", "monte_carlo", "--seed", "-5"], "option '--seed'"),
        ],
        ids=["run.mode", "run.seed", "run.n_pulses", "--pulses", "--seed"],
    )
    def test_run_values_are_checked_where_unused(self, tmp_path, capsys, command, extra, name):
        # a subcommand that never runs the Monte Carlo still records its run values
        assert main([command, BUNDLED, *extra, "--out-dir", str(tmp_path)]) == 2
        assert f"validation error: {name}: " in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_run_scenario_notes_unused_sections(self, tmp_path, capsys):
        import argparse

        args = argparse.Namespace(mode=None, pulses=None, seed=None, out_dir=str(tmp_path))
        run_scenario(BUNDLED, "phasematch", [], args)
        err = capsys.readouterr().err
        assert "sections not used" in err


class TestOneTruncationRule:
    """A law that the pmf cuts at MAX_PAIRS = 64 pairs is refused in both run modes,
    naming the key its mean came from.  Analytic, each of these exited 0 or 3 with an
    answer read from the law's head."""

    MC = ["--mode", "monte_carlo", "--pulses", "1000000", "--seed", "1"]

    @pytest.mark.parametrize("mode", [[], MC])
    def test_simulate_past_the_cut_exits_2(self, tmp_path, capsys, mode):
        # analytic, it wrote 0.320 coincidences per trigger where the closed form gives 0.0380
        assert main(["simulate", BUNDLED, "--override", "source.mu=60", *mode, "--out-dir", str(tmp_path)]) == 2
        assert ("validation error: scenario key 'source.mu': the poissonian pmf at mean 60.0 is cut at "
                "MAX_PAIRS = 64 pairs, dropping tail mass 0.276;") in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_herald_stats_of_an_empty_head_exits_2(self, tmp_path, capsys):
        # it exited 3 with a false "herald probability is zero", although every pulse heralds
        assert main(["herald-stats", BUNDLED, "--override", "source.mu=1e5", "--out-dir", str(tmp_path)]) == 2
        assert ("validation error: scenario key 'source.mu': the poissonian pmf at mean 100000.0 is cut at "
                "MAX_PAIRS = 64 pairs, dropping tail mass 1;") in capsys.readouterr().err

    def test_sweep_row_past_the_cut_is_an_error_row(self, tmp_path):
        assert main(["sweep", BUNDLED, "--override", "run.sweep_mu=[0.1, 60]", "--out-dir", str(tmp_path)]) == 0
        first, cut = json.loads((tmp_path / "sweep.json").read_text())["result"]["rows"]
        assert first["error"] is None and first["p1"] > 0.0
        assert cut["error"].startswith("ValidationError: the poissonian pmf at mean 60.0 is cut at MAX_PAIRS = 64 pairs")
        assert cut["p1"] is None and cut["trigger_rate"] is None

    def test_estimate_of_a_refused_mean_names_the_counts(self, tmp_path, capsys):
        # the counts imply mu ~ 552; it wrote P(1) = 0.133 from a head holding about 1e-153 of the law
        counts = ["counts.coincidences_cps=100", "counts.signal_singles_cps=2.0e7", "counts.idler_singles_cps=20000"]
        argv = ["estimate", BUNDLED, *(arg for item in counts for arg in ("--override", item)), "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert ("validation error: scenario keys 'counts.signal_singles_cps', 'counts.idler_singles_cps' and "
                "'counts.coincidences_cps': the counts imply a mean pair number the model refuses: "
                "the poissonian pmf at mean 551.") in err
        assert "source.mu" not in err

    @pytest.mark.parametrize(
        "overrides,refusal",
        [
            # it exited 2 naming no key: the pair law's finiteness check carried no field
            (["source.law=thermal", "counts.signal_singles_cps=81999999.99999", "counts.idler_singles_cps=204999.9999"],
             "mean pair number must be finite, got inf"),
            # it exited 3 with "float division by zero": M * expm1(x / M) lost the coincidences' mean
            (["source.law=multimode_thermal", "source.modes=1000000000000000000000"],
             "the multimode_thermal pmf at mean 3.0"),
        ],
    )
    def test_estimate_of_an_extreme_mean_names_the_counts(self, tmp_path, capsys, overrides, refusal):
        overrides = [*overrides, "detectors.idler.dark_prob_per_gate=0", "counts.coincidences_cps=1e-300"]
        argv = ["estimate", BUNDLED, *(arg for item in overrides for arg in ("--override", item))]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 2
        assert ("validation error: scenario keys 'counts.signal_singles_cps', 'counts.idler_singles_cps' and "
                "'counts.coincidences_cps': the counts imply a mean pair number the model refuses: "
                + refusal) in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_estimate_of_a_refused_mean_from_a_counts_file_names_the_file(self, tmp_path, capsys, suffix):
        # it named the scenario's counts keys, which the run never read
        columns = ["signal_singles_cps", "idler_singles_cps", "coincidences_cps", "trigger_rate_cps", "gate_rate_hz"]
        values = [2.0e7, 20000, 100, 216000, 205000]
        path = tmp_path / f"counts{suffix}"
        if suffix == ".csv":
            path.write_text(",".join(columns) + "\n" + ",".join(map(str, values)) + "\n")
        else:
            path.write_text(json.dumps(dict(zip(columns, values))))
        assert main(["estimate", BUNDLED, "--counts", str(path), "--out-dir", str(tmp_path / "est")]) == 2
        err = capsys.readouterr().err
        assert (f"validation error: counts file {str(path)!r}, columns 'signal_singles_cps', 'idler_singles_cps', "
                "'coincidences_cps': the counts imply a mean pair number the model refuses: "
                "the poissonian pmf at mean 551.") in err
        assert "scenario key" not in err


class TestValidationBranches:
    @pytest.mark.parametrize(
        "override,message",
        [
            ("source.rep_rate_hz=0", "repetition rate must be > 0, got 0.0"),
            ("detectors.idler.gate_rate_hz=0", "gate rate must be > 0, got 0.0"),
            ("detectors.coincidence_window_gates=0", "coincidence window must be >= 1, got 0"),
        ],
    )
    def test_a_zero_setup_value_exits_2_naming_its_key(self, tmp_path, capsys, override, message):
        key = override.partition("=")[0]
        assert main(["simulate", BUNDLED, "--override", override, "--out-dir", str(tmp_path)]) == 2
        assert f"validation error: scenario key '{key}': {message}\n" in capsys.readouterr().err

    def test_estimate_of_a_missing_counts_file_exits_2_naming_it(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["estimate", BUNDLED, "--counts", missing, "--out-dir", str(tmp_path)]) == 2
        assert f"validation error: counts file {missing!r} not found\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override,message",
        [
            ("counts.signal_singles_cps=9e7", "signal singles imply 1.098 clicks per pulse (> 1)"),
            ("counts.coincidences_cps=300000", "per-trigger coincidence probability 1.388e+00 outside [0, 1]"),
        ],
    )
    def test_estimate_of_impossible_counts_exits_3(self, tmp_path, capsys, override, message):
        assert main(["estimate", BUNDLED, "--override", override, "--out-dir", str(tmp_path)]) == 3
        assert f"numerical error: {message}\n" in capsys.readouterr().err


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


class TestCommandTable:
    def test_artifact_list_covers_the_table(self):
        assert list(ARTIFACTS) == list(COMMANDS)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_each_command_writes_its_two_artifacts(self, tmp_path, capsys, command):
        json_name, csv_name, header = ARTIFACTS[command]
        assert main([command, BUNDLED, "--mode", "analytic", "--out-dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([json_name, csv_name])
        record = _strict_record(tmp_path / json_name)
        assert record["command"] == command
        assert set(record["provenance"]) == {"version", "config_sha256", "mode", "n_pulses", "seed"}
        assert record["provenance"]["mode"] == "analytic"
        with (tmp_path / csv_name).open() as fh:
            assert next(csv.reader(fh)) == header
        assert f"wrote {tmp_path / json_name} and {csv_name}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "key,command",
        [
            ("crystal.signal_center_nm", "phasematch"),
            ("source.rep_rate_hz", "simulate"),
            ("losses.alpha_idler", "herald-stats"),
            ("channel.receiver_efficiency", "sweep"),
            ("counts.gate_rate_hz", "estimate"),
            ("dead_time.tau_us", "g2"),
        ],
    )
    def test_missing_required_key_exits_2(self, tmp_path, capsys, key, command):
        data = yaml.safe_load(bundled_text())
        section, leaf = key.split(".")
        del data[section][leaf]
        path = tmp_path / "partial.scenario"
        path.write_text(yaml.safe_dump(data))
        assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert f"missing the required key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("key", ["crystal.grid.signal_points", "crystal.grid.idler_points"])
    def test_negative_grid_size_exits_2(self, tmp_path, capsys, key):
        argv = ["spectrum", BUNDLED, "--override", f"{key}=-3", "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "spectrum.json").exists()

    CENTRES = "'crystal.pump_center_nm' and 'crystal.signal_center_nm'"
    GRID = "'crystal.grid.signal_min_nm', 'crystal.grid.signal_max_nm', 'crystal.grid.idler_min_nm'"
    NO_OVERLAP = f"{GRID}, 'crystal.grid.idler_max_nm', 'crystal.pump_center_nm', 'crystal.pump_fwhm_nm'"
    NO_OVERLAP += " and 'crystal.length_mm'"
    SIGNAL_WINDOW = "'crystal.grid.signal_min_nm', 'crystal.grid.signal_max_nm', 'crystal.grid.signal_points', "
    SIGNAL_WINDOW += "'crystal.signal_center_nm' and 'crystal.signal_fwhm_nm'"
    IDLER_RANGE = "'crystal.grid.idler_min_nm' and 'crystal.grid.idler_max_nm'"

    RELATIONS = [
        # the idler of the centres, 4.7 um, then that of the tuning curve's shortest signal, 3.4 um
        ("phasematch", "crystal.signal_center_nm=425", CENTRES),
        ("phasematch", "crystal.signal_center_nm=480", CENTRES),
        ("spectrum", "crystal.grid.idler_max_nm=-1", f"{GRID} and 'crystal.grid.idler_max_nm'"),
        # a zero or subnormal wavelength was divided by before the window check
        ("spectrum", "crystal.grid.idler_max_nm=0", f"{GRID} and 'crystal.grid.idler_max_nm'"),
        ("spectrum", "crystal.grid.idler_min_nm=5e-324", f"{GRID} and 'crystal.grid.idler_max_nm'"),
        ("spectrum", "crystal.pump_fwhm_nm=1e-9", NO_OVERLAP),
        ("spectrum", "crystal.length_mm=1e300", NO_OVERLAP),
        # a signal grid too coarse for the filter leaves the heralded marginal empty: it exited 3
        ("spectrum", "crystal.grid.signal_points=2", SIGNAL_WINDOW),
        # an idler axis inside the heralded marginal's FWHM: it reported the axis span, then a clipped width
        ("spectrum", "crystal.grid.idler_min_nm=1548 crystal.grid.idler_max_nm=1554", IDLER_RANGE),
        ("spectrum", "crystal.grid.idler_min_nm=1551 crystal.grid.idler_max_nm=1600", IDLER_RANGE),
    ]

    @pytest.mark.parametrize("command,override,keys", RELATIONS, ids=[override for _, override, _ in RELATIONS])
    @pytest.mark.filterwarnings("ignore:idler grid is too coarse")  # two signal rows resolve no ridge
    def test_crystal_relation_exits_2_naming_its_keys(self, tmp_path, capsys, command, override, keys):
        overrides = [arg for item in override.split() for arg in ("--override", item)]
        assert main([command, BUNDLED, *overrides, "--out-dir", str(tmp_path)]) == 2
        assert f"validation error: scenario keys {keys}: " in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "override,code,error",
        [
            ("crystal.pump_fwhm_nm=1e-300", 2, f"scenario keys {NO_OVERLAP}: grid does not overlap"),
            ("crystal.pump_fwhm_nm=5e-324", 2, "scenario key 'crystal.pump_fwhm_nm': pump FWHM 5e-324 nm under"),
            ("crystal.signal_fwhm_nm=5e-324", 0, ""),
        ],
        ids=["no_overlap", "pump_underflow", "filter"],
    )
    def test_narrow_gaussian_raises_no_numpy_warning(self, tmp_path, capsys, override, code, error):
        # the envelope's exponent overflows to -inf, whose exp is the envelope's limit, 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectrum", BUNDLED, "--override", override, "--out-dir", str(tmp_path)]) == code
        assert error in capsys.readouterr().err

    def test_infinite_phase_exits_2_naming_the_length(self, tmp_path, capsys):
        # the length in nm overflowed to inf, and sin(inf) made every intensity NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["spectrum", BUNDLED, "--override", "crystal.length_mm=1e303", "--out-dir", str(tmp_path)]
            assert main(argv) == 2
        assert "validation error: scenario key 'crystal.length_mm': " in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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

    @pytest.mark.parametrize(
        "command,extra",
        [("simulate", []), ("herald-stats", []), ("wcp-compare", []), ("g2", []),
         ("g2", ["--override", "run.g2_arm=idler_heralded"])],
    )
    def test_monte_carlo_of_an_underflowed_pmf_exits_2(self, tmp_path, capsys, command, extra):
        # at mu = 1e3 every term of the poissonian pmf underflows to 0; the Monte
        # Carlo drew from 0 / 0 and died in numpy with a traceback
        argv = [command, BUNDLED, "--mode", "monte_carlo", "--pulses", "1000000", "--seed", "1",
                "--override", "source.mu=1e3", *extra, "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert "validation error: scenario key 'source.mu': the poissonian pmf at mean 1000.0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("law,mu,code", [("thermal", "30", 2), ("poissonian", "65", 2), ("thermal", "1.4", 0)])
    def test_monte_carlo_of_a_truncated_pmf_exits_2(self, tmp_path, capsys, law, mu, code):
        # it drew from the renormalised head of the law and exited 0
        argv = ["simulate", BUNDLED, "--mode", "monte_carlo", "--pulses", "1000000", "--seed", "1",
                "--override", f"source.law={law}", "--override", f"source.mu={mu}", "--out-dir", str(tmp_path)]
        assert main(argv) == code
        if code:
            assert (f"validation error: scenario key 'source.mu': the {law} pmf at mean {float(mu)} is cut at "
                    "MAX_PAIRS = 64 pairs, dropping tail mass") in capsys.readouterr().err
            assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("mu", ["4e4", "1e5", "1e300"])
    @pytest.mark.parametrize("mode", ["analytic", "monte_carlo"])
    @pytest.mark.parametrize(
        "command,arm", [("simulate", None), ("herald-stats", None), ("wcp-compare", None), ("g2", "idler_heralded"),
                        ("g2", "signal_unconditioned")]
    )
    def test_thermal_overflow_exits_2_naming_the_mean(self, tmp_path, capsys, command, arm, mode, mu):
        # the thermal pmf's Python floats overflowed, and each exited 1 with a traceback
        argv = [command, BUNDLED, "--mode", mode, "--pulses", "1000000", "--seed", "7", "--override",
                "source.law=thermal", "--override", f"source.mu={mu}", "--out-dir", str(tmp_path)]
        if arm:
            argv += ["--override", f"run.g2_arm={arm}"]
        if (mode, arm) == ("analytic", "signal_unconditioned"):  # the law's g2 needs no pmf
            assert main(argv) == 0
            assert _strict_record(tmp_path / "g2.json")["result"]["g2"] == 2.0
            return
        assert main(argv) == 2
        assert (f"validation error: scenario key 'source.mu': the thermal pmf at mean {float(mu)} overflows a float"
                in capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    def test_sweep_row_of_a_thermal_overflow_carries_its_message(self, tmp_path):
        argv = ["sweep", BUNDLED, "--override", "source.law=thermal", "--override", "run.sweep_mu=[0.1, 4e4, 1e5, 1e300]",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        rows = _strict_record(tmp_path / "sweep.json")["result"]["rows"]
        assert rows[0]["error"] is None
        for row in rows[1:]:
            assert row["error"].startswith(f"ValidationError: the thermal pmf at mean {row['mu']} overflows a float")

    def test_sweep_with_a_negative_pump_calibration_exits_2(self, tmp_path, capsys):
        # it exited 0 and wrote pump_power_mw null on every row
        argv = ["sweep", BUNDLED, "--override", "source.pairs_per_pulse_per_mw=-1", "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert ("validation error: scenario key 'source.pairs_per_pulse_per_mw': pump calibration must be >= 0"
                in capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

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


def _set(data, key, value=None, drop=False):
    *sections, leaf = key.split(".")
    node = data
    for section in sections:
        node = node.setdefault(section, {})
    if drop:
        node.pop(leaf, None)
    else:
        node[leaf] = list(value) if isinstance(value, tuple) else value


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

    @pytest.mark.parametrize("command,override", [("phasematch", "source.law=foo"), ("simulate", "run.g2_arm=foo")])
    def test_bad_choice_exits_2_in_a_subcommand_that_does_not_read_it(self, tmp_path, capsys, command, override):
        assert main([command, BUNDLED, "--override", override, "--out-dir", str(tmp_path)]) == 2
        key = override.split("=")[0]
        assert f"validation error: scenario key {key!r}: expected one of " in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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

    # besides the modules every subcommand loads: cli, scenario, errors, defaults and the bundled data
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
        expected = {"cli", "scenario", "errors", "defaults", "data"} | self.MODELS[command]
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
