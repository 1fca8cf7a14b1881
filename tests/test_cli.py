"""Command-line interface: exit codes, precedence, reproducible artifacts."""

import json

import pytest

from mvmlab.cli import EXIT_CHECK_FAILED, EXIT_PASS, EXIT_USAGE, main
from mvmlab.scenarios import SCENARIOS


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_list_shows_every_scenario(capsys):
    assert main(["list"]) == EXIT_PASS
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out
    assert out.count("defaults:") == len(SCENARIOS)


def test_run_prints_one_line_per_check_and_passes(tmp_path, capsys):
    config = write_config(tmp_path, {"scenario": "sup_measures_oracle",
                                     "params": {"trials": 10}})
    assert main(["run", config]) == EXIT_PASS
    lines = capsys.readouterr().out.strip().split("\n")
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1].startswith("sup_measures_oracle: PASS")
    assert f"({len(lines) - 1}/{len(lines) - 1} checks" in lines[-1]


def test_failed_check_exits_two(tmp_path, capsys):
    # An unattainably tight tolerance turns a healthy run into a failure.
    config = write_config(tmp_path, {
        "scenario": "discrete_levy_qv",
        "params": {"sphere": 64, "qv_rtol": 1e-9}})
    assert main(["run", config]) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "discrete_levy_qv: FAIL" in out.strip().split("\n")[-1]


SEED_RULE = "'seed' of scenario 'fubini' must be an integer, got"
SEED_RANGE = "'seed' of scenario 'fubini' must be in 0..9223372036854775807"
PATHS_RULE = "'paths' of scenario 'fubini' must be an integer, got"
PATHS_RANGE = "'paths' of scenario 'fubini' must be at least 2"


@pytest.mark.parametrize("payload,fragment", [
    ("not json {", "not valid JSON"),
    (json.dumps([1, 2]), "must be a JSON object"),
    (json.dumps({"scenario": "fubini", "bogus": 1}), "unknown config keys"),
    (json.dumps({"scenario": "fubini", "threads": 2}), "unknown config keys"),
    (json.dumps({"seed": 3}), "missing the required"),
    (json.dumps({"scenario": "nope"}), "unknown scenario"),
    (json.dumps({"scenario": ["fubini"]}), "unknown scenario ['fubini']"),
    (json.dumps({"scenario": "fubini", "params": [1]}), "must be a JSON object"),
    (json.dumps({"scenario": "fubini", "seed": "abc"}), SEED_RULE),
    (json.dumps({"scenario": "fubini", "seed": 1.7}), SEED_RULE),
    (json.dumps({"scenario": "fubini", "seed": -1}), SEED_RANGE),
    (json.dumps({"scenario": "fubini", "seed": True}), SEED_RULE),
    (json.dumps({"scenario": "fubini", "seed": 2 ** 63}), SEED_RANGE),
    (json.dumps({"scenario": "fubini", "paths": -3}), PATHS_RANGE),
    (json.dumps({"scenario": "fubini", "paths": 0}), PATHS_RANGE),
    (json.dumps({"scenario": "fubini", "paths": 50.9}), PATHS_RULE),
    (json.dumps({"scenario": "fubini", "paths": 2.0}), PATHS_RULE),
    (json.dumps({"scenario": "fubini", "paths": False}), PATHS_RULE),
    (json.dumps({"scenario": "sup_measures_oracle",
                 "params": {"trials": "many"}}), "'trials' of scenario"),
    (json.dumps({"scenario": "sup_measures_oracle",
                 "params": {"trials": 2.5}}), "must be an integer, got 2.5"),
    (json.dumps({"scenario": "sup_measures_oracle",
                 "params": {"trials": True}}), "must be an integer, got True"),
    (json.dumps({"scenario": "fubini", "params": {"tol": "tiny"}}),
     "'tol' of scenario 'fubini' must be a number, got 'tiny'"),
    (json.dumps({"scenario": "stopped_integral",
                 "params": {"thresholds": 2.0}}), "must be a list, got 2.0"),
    (json.dumps({"scenario": "stopped_integral",
                 "params": {"thresholds": ["big"]}}),
     "'thresholds[0]' of scenario 'stopped_integral' must be a number, "
     "got 'big'"),
    (json.dumps({"scenario": "stopped_integral",
                 "params": {"thresholds": [True]}}),
     "'thresholds[0]' of scenario 'stopped_integral' must be a number, "
     "got True"),
    # JSON readers take NaN and Infinity; a parameter refuses them, in a
    # list too, before the scenario runs.
    (json.dumps({"scenario": "stopped_integral",
                 "params": {"thresholds": [1.0, float("nan")]}}),
     "'thresholds[1]' of scenario 'stopped_integral' must be a finite "
     "number, got nan"),
    (json.dumps({"scenario": "picard_contraction",
                 "params": {"drift_gain": float("nan")}}),
     "'drift_gain' of scenario 'picard_contraction' must be a finite "
     "number, got nan"),
    (json.dumps({"scenario": "white_noise_qv",
                 "params": {"t_max": float("inf")}}),
     "'t_max' of scenario 'white_noise_qv' must be a finite number, got inf"),
    (json.dumps({"scenario": "white_noise_qv",
                 "params": {"rates": [["a", 1.0], ["b", -float("inf")]]}}),
     "'rates[1][1]' of scenario 'white_noise_qv' must be a finite number, "
     "got -inf"),
    (json.dumps({"scenario": "white_noise_qv",
                 "params": {"rates": [["a", "x"]]}}),
     "'rates[0][1]' of scenario 'white_noise_qv' must be a number, got 'x'"),
    (json.dumps({"scenario": "white_noise_qv",
                 "params": {"rates": [["a", 1.0]]}}),
     "'rates' of scenario 'white_noise_qv' needs two atoms"),
    (json.dumps({"scenario": "hvalued_levy_qm", "params": {"jumps": 0}}),
     "'jumps' of scenario 'hvalued_levy_qm' must be at least 1, got 0"),
    (json.dumps({"scenario": "white_noise_qv",
                 "params": {"rates": [["a", -1.0], ["b", 1.0]]}}),
     "'rates' of scenario 'white_noise_qv' has a negative rate"),
    (json.dumps({"scenario": "white_noise_qv",
                 "params": {"rates": [["a", 1.0], ["a", 2.0]]}}),
     "'rates' of scenario 'white_noise_qv' repeats an atom label"),
    (json.dumps({"scenario": "hvalued_levy_qm", "params": {"dim": 0}}),
     "'dim' of scenario 'hvalued_levy_qm' must be at least 2, got 0"),
    (json.dumps({"scenario": "discrete_levy_qv", "params": {"dim": 0}}),
     "'dim' of scenario 'discrete_levy_qv' must be at least 1, got 0"),
    (json.dumps({"scenario": "white_noise_qv", "params": {"steps": 0}}),
     "'steps' of scenario 'white_noise_qv' must be at least 1, got 0"),
    (json.dumps({"scenario": "discrete_levy_qv", "params": {"steps": 0}}),
     "'steps' of scenario 'discrete_levy_qv' must be at least 1, got 0"),
    (json.dumps({"scenario": "hvalued_levy_qm", "params": {"steps": 0}}),
     "'steps' of scenario 'hvalued_levy_qm' must be at least 1, got 0"),
    (json.dumps({"scenario": "heat_spde", "params": {"steps": 0}}),
     "'steps' of scenario 'heat_spde' must be at least 4, got 0"),
    (json.dumps({"scenario": "picard_contraction", "params": {"steps": 0}}),
     "'steps' of scenario 'picard_contraction' must be at least 1, got 0"),
    (json.dumps({"scenario": "white_noise_qv", "params": {"t_max": 0.0}}),
     "'t_max' of scenario 'white_noise_qv' must be > 0"),
    (json.dumps({"scenario": "discrete_levy_qv", "params": {"t_max": 0.0}}),
     "'t_max' of scenario 'discrete_levy_qv' must be > 0"),
    (json.dumps({"scenario": "hvalued_levy_qm", "params": {"t_max": 0.0}}),
     "'t_max' of scenario 'hvalued_levy_qm' must be > 0"),
    (json.dumps({"scenario": "heat_spde", "params": {"modes": 0}}),
     "'modes' of scenario 'heat_spde' must be at least 1, got 0"),
    (json.dumps({"scenario": "heat_spde", "params": {"channels": 0}}),
     "'channels' of scenario 'heat_spde' must be at least 1, got 0"),
    (json.dumps({"scenario": "heat_spde", "params": {"instance_seed": -1}}),
     "'instance_seed' of scenario 'heat_spde' must be at least 0, got -1"),
    (json.dumps({"scenario": "picard_contraction", "params": {"modes": 0}}),
     "'modes' of scenario 'picard_contraction' must be at least 1, got 0"),
    (json.dumps({"scenario": "picard_contraction", "params": {"channels": 0}}),
     "'channels' of scenario 'picard_contraction' must be at least 1, got 0"),
    (json.dumps({"scenario": "picard_contraction",
                 "params": {"instance_seed": -1}}),
     "'instance_seed' of scenario 'picard_contraction' must be at least 0, "
     "got -1"),
    (json.dumps({"scenario": "picard_contraction", "params": {"max_iter": 0}}),
     "'max_iter' of scenario 'picard_contraction' must be at least 1, got 0"),
    (json.dumps({"scenario": "discrete_levy_qv", "params": {"sphere": 3}}),
     "'sphere' of scenario 'discrete_levy_qv' must be at least 'dim' = 4"),
    (json.dumps({"scenario": "hvalued_levy_qm", "params": {"sphere": 2}}),
     "'sphere' of scenario 'hvalued_levy_qm' must be at least 'dim' = 3"),
    (json.dumps({"scenario": "discrete_levy_qv",
                 "params": {"sphere_seed": -1}}),
     "'sphere_seed' of scenario 'discrete_levy_qv' must be at least 0, "
     "got -1"),
    (json.dumps({"scenario": "hvalued_levy_qm",
                 "params": {"sphere_seed": -1}}),
     "'sphere_seed' of scenario 'hvalued_levy_qm' must be at least 0, got -1"),
    (json.dumps({"scenario": "sup_measures_oracle",
                 "params": {"max_cells": 0}}),
     "'max_cells' of scenario 'sup_measures_oracle' must be at least 1, "
     "got 0"),
    (json.dumps({"scenario": "sup_measures_oracle",
                 "params": {"max_measures": 0}}),
     "'max_measures' of scenario 'sup_measures_oracle' must be at least 1, "
     "got 0"),
    (json.dumps({"scenario": "fubini", "params": {"family_size": 0}}),
     "'family_size' of scenario 'fubini' must be at least 1, got 0"),
    (json.dumps({"scenario": "heat_spde", "params": {"residual_paths": 0}}),
     "'residual_paths' of scenario 'heat_spde' must be at least 1, got 0"),
    (json.dumps({"scenario": "ito_isometry", "params": {"pair_seed": -1}}),
     "'pair_seed' of scenario 'ito_isometry' must be at least 0, got -1"),
    (json.dumps({"scenario": "stopped_integral",
                 "params": {"thresholds": []}}),
     "'thresholds' of scenario 'stopped_integral' must not be empty"),
    (json.dumps({"scenario": "white_noise_qv", "paths": 99}),
     "'paths' of scenario 'white_noise_qv' must be at least 100, got 99"),
    (json.dumps({"scenario": "hvalued_levy_qm", "paths": 99}),
     "'paths' of scenario 'hvalued_levy_qm' must be at least 100, got 99"),
    (json.dumps({"scenario": "haar_counterexample", "paths": 99}),
     "'paths' of scenario 'haar_counterexample' must be at least 100, got 99"),
    (json.dumps({"scenario": "haar_counterexample", "params": {"k_max": 0}}),
     "'k_max' of scenario 'haar_counterexample' must be at least 1, got 0"),
    (json.dumps({"scenario": "haar_counterexample", "params": {"k_sim": -1}}),
     "'k_sim' of scenario 'haar_counterexample' must be at least 0, got -1"),
    (json.dumps({"scenario": "haar_counterexample", "params": {"k_max": 13}}),
     "'k_max' of scenario 'haar_counterexample' must be at most 12, got 13"),
    # Rejected before the run: k_sim 12 would need about 500 GB.
    (json.dumps({"scenario": "haar_counterexample", "params": {"k_sim": 13}}),
     "'k_sim' of scenario 'haar_counterexample' must be at most 12, got 13"),
    (json.dumps({"scenario": "sup_measures_oracle", "params": {"trials": 0}}),
     "'trials' of scenario 'sup_measures_oracle' must be at least 1, got 0"),
    (json.dumps({"scenario": "ito_isometry", "paths": 1}),
     "'paths' of scenario 'ito_isometry' must be at least 2, got 1"),
    (json.dumps({"scenario": "heat_spde", "paths": 1}),
     "'paths' of scenario 'heat_spde' must be at least 2, got 1"),
    (json.dumps({"scenario": "fubini", "paths": 1}),
     "'paths' of scenario 'fubini' must be at least 2, got 1"),
])
def test_bad_configs_exit_one(tmp_path, capsys, payload, fragment):
    path = tmp_path / "bad.json"
    path.write_text(payload, encoding="utf-8")
    assert main(["run", str(path)]) == EXIT_USAGE
    assert fragment in capsys.readouterr().err


def test_missing_file_unknown_param_and_bad_commands(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == EXIT_USAGE
    assert "cannot read config" in capsys.readouterr().err
    config = write_config(tmp_path, {"scenario": "sup_measures_oracle",
                                     "params": {"marbles": 3}})
    assert main(["run", config]) == EXIT_USAGE
    assert "unknown parameter 'marbles'" in capsys.readouterr().err
    assert main([]) == EXIT_USAGE
    assert "expected a command" in capsys.readouterr().err
    assert main(["dance"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["run"]) == EXIT_USAGE  # missing config argument
    assert main(["run", "x.json", "--seed", "abc"]) == EXIT_USAGE


def test_out_directory_receives_report_and_artifacts(tmp_path, capsys):
    config = write_config(tmp_path, {"scenario": "sup_measures_oracle",
                                     "params": {"trials": 8},
                                     "out": str(tmp_path / "results")})
    assert main(["run", config]) == EXIT_PASS
    report_path = tmp_path / "results" / "sup_measures_oracle_report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["all_passed"] is True
    assert report["scenario"] == "sup_measures_oracle"
    assert report["params"]["trials"] == 8
    for name in report["artifact_files"]:
        assert (tmp_path / "results" / name).is_file()
    assert "written to" in capsys.readouterr().out


def test_flag_overrides_config_overrides_default(tmp_path, capsys):
    config = write_config(tmp_path, {"scenario": "haar_counterexample",
                                     "seed": 3, "paths": 300,
                                     "out": str(tmp_path / "a")})
    assert main(["run", config, "--seed", "4",
                 "--out", str(tmp_path / "b")]) == EXIT_PASS
    capsys.readouterr()
    report = json.loads((tmp_path / "b" / "haar_counterexample_report.json")
                        .read_text(encoding="utf-8"))
    assert report["seed"] == 4  # flag beat the config value
    assert report["paths"] == 300  # config value beat the default
    assert not (tmp_path / "a").exists()  # flag replaced the out directory
    # Without the flag the config seed applies.
    config2 = write_config(tmp_path, {"scenario": "haar_counterexample",
                                      "seed": 3, "paths": 300,
                                      "out": str(tmp_path / "c")},
                           name="second.json")
    assert main(["run", config2]) == EXIT_PASS
    capsys.readouterr()
    report2 = json.loads((tmp_path / "c" / "haar_counterexample_report.json")
                         .read_text(encoding="utf-8"))
    assert report2["seed"] == 3
    # Flag values are validated like config values, before anything runs.
    for flag, value, rule in (
            ("--seed", "-1", "in 0..9223372036854775807, got -1"),
            ("--seed", "9223372036854775808",
             "in 0..9223372036854775807, got 9223372036854775808"),
            ("--paths", "0", "at least 100, got 0"),
            ("--paths", "-3", "at least 100, got -3")):
        assert main(["run", config2, flag, value]) == EXIT_USAGE
        assert (f"{flag[2:]!r} of scenario 'haar_counterexample' must be "
                f"{rule}") in capsys.readouterr().err


def test_seed_changes_artifacts(tmp_path, capsys):
    config = write_config(tmp_path, {"scenario": "hvalued_levy_qm",
                                     "paths": 600})
    for seed, sub in ((5, "s5"), (6, "s6")):
        assert main(["run", config, "--seed", str(seed),
                     "--out", str(tmp_path / sub)]) == EXIT_PASS
        capsys.readouterr()
    a = (tmp_path / "s5" / "hvalued_qv.csv").read_bytes()
    b = (tmp_path / "s6" / "hvalued_qv.csv").read_bytes()
    assert a != b
