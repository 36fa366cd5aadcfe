import copy
import dataclasses
import json
import math
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from risim import cli, experiments
from risim.cli import main
from risim.experiments import (
    MAX_COORDINATE, MAX_ELEMENTS, MAX_PATH_GAIN_DB, MAX_PATTERN_EXPONENT, MAX_POWER_DBM,
    MAX_SHADOW_SIGMA_DB, MAX_THREADS, MAX_TRIALS, MAX_USERS, MIN_FREQ_HZ, derived_rng,
    scenario_from_dict, scenario_to_dict,
)
from risim.propagation import LOS_73GHZ, NLOS_73GHZ, pathloss_db

_LOS, _NLOS = (dataclasses.asdict(pl) for pl in (LOS_73GHZ, NLOS_73GHZ))
_SCATTERERS = "env.mean_clusters and env.max_scatterers_per_cluster give"


@pytest.fixture
def scenario_file(tmp_path):
    cfg = {
        "tx": [0.0, 20.0, 2.0],
        "rx": [75.0, 35.0, 1.0],
        "ris_list": [{"position": [75.0, 30.0, 2.0], "n_elements": 16}],
        "n_trials": 12,
        "master_seed": 3,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


def test_simulate_writes_expected_files(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", str(scenario_file), "--out", str(out)]) == 0

    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == ("receiver,ergodic_rate_bps_hz,mean_snr_db,"
                        "rate_ci_low,rate_ci_high,n_trials,seed")
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "0"
    assert fields[5:] == ["12", "3"]
    assert float(fields[1]) > 0.0

    cdf_lines = (out / "cdf.csv").read_text().splitlines()
    assert cdf_lines[0] == "value,probability"
    assert len(cdf_lines) == 13

    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["n_trials"] == 12

    stdout = capsys.readouterr().out
    assert stdout.count("wrote ") == 3


def test_simulate_json_format(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", str(scenario_file), "--out", str(out),
                 "--format", "json"]) == 0
    rec, = json.loads((out / "metrics.json").read_text())
    assert rec["receiver"] == 0
    assert rec["n_trials"] == 12 and rec["seed"] == 3
    assert "mean_snr_db" in rec and "snr_db_trial_mean" not in rec


def test_simulate_seed_and_trials_overrides(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", str(scenario_file), "--out", str(out),
                 "--seed", "99", "--trials", "5"]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[1].split(",")[5:] == ["5", "99"]
    assert len((out / "cdf.csv").read_text().splitlines()) == 6


def test_simulate_multiuser_files(tmp_path):
    cfg = {
        "tx": [0.0, 20.0, 2.0],
        "rx": [[70.0, 32.0, 1.0], [70.0, 35.0, 1.0]],
        "ris_list": [{"position": [70.0, 30.0, 2.0], "n_elements": 16}],
        "n_trials": 6,
    }
    path = tmp_path / "two_users.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["simulate", str(path), "--out", str(out)]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert len(lines) == 3
    assert (out / "cdf_rx0.csv").exists()
    assert (out / "cdf_rx1.csv").exists()


def test_sweep_command(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", str(scenario_file), "--var", "tx_power_dbm",
                 "--values", "10,20", "--out", str(out)]) == 0
    lines = (out / "sweep_tx_power_dbm.csv").read_text().splitlines()
    assert lines[0].startswith("sweep_value,ergodic_rate_bps_hz")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "10"
    assert lines[2].split(",")[0] == "20"
    meta = json.loads((out / "sweep_tx_power_dbm_meta.json").read_text())
    assert meta["sweep"]["values"] == [10.0, 20.0]


def test_figure_command(tmp_path, capsys):
    out = tmp_path / "fig"
    assert main(["figure", "F6", "--trials", "3", "--seed", "9",
                 "--override", "pt_values=30", "--out", str(out)]) == 0
    assert (out / "f6_free.csv").exists()
    assert (out / "f6_n256.csv").exists()
    meta = json.loads((out / "f6_n64_meta.json").read_text())
    assert meta["config"]["n_trials"] == 3
    assert meta["config"]["master_seed"] == 9
    capsys.readouterr()


def test_figure_rejects_bad_override(tmp_path, capsys):
    assert main(["figure", "F6", "--override", "bogus=1",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["figure", "F6", "--override", "no_equals",
                 "--out", str(tmp_path)]) == 2


def test_validate_command(scenario_file, tmp_path, capsys):
    assert main(["validate", str(scenario_file)]) == 0
    assert capsys.readouterr().out.startswith("ok")

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"tx": [0, 20, 2], "rx": [75, 35, 1],
                               "n_trials": 0}))
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid scenario:")
    assert "n_trials" in err


def test_unknown_config_key_exits_two(tmp_path, capsys):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"tx": [0, 20, 2], "rx": [75, 35, 1],
                                "n_trails": 4}))
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("override, where, key", [
    ({"pl_los": {**_LOS, "freq_hz": 73e9}}, "pl_los", "freq_hz"),
    ({"pl_nlos": {**_NLOS, "freq_hz": 73e9}}, "pl_nlos", "freq_hz"),
    ({"shadow_scatter_paths": False}, "scenario", "shadow_scatter_paths"),
    ({"shadow_los_paths": False}, "scenario", "shadow_los_paths"),
], ids=["los_carrier", "nlos_carrier", "scatter_shadow_flag", "los_shadow_flag"])
def test_retired_config_key_exits_two(tmp_path, capsys, override, where, key):
    # the carrier is the one top-level freq_hz, and sigma = 0 unshadows a link
    path = tmp_path / "retired.json"
    path.write_text(json.dumps({"tx": [0, 20, 2], "rx": [75, 35, 1], **override}))
    for argv in (["validate", str(path)],
                 ["simulate", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: unknown key(s) in {where}: {key}")
        assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, message", [
    ({"n_trials": "100"}, "n_trials must be an integer"),
    ({"budget": {"tx_power_dbm": "30"}}, "budget.tx_power_dbm must be a number"),
    ({"master_seed": 1.5}, "master_seed must be an integer"),
    ({"resample_geometry": "no"}, "resample_geometry must be true or false"),
    ({"ris_list": {"a": 1}}, "ris_list must be a list"),
    ({"budget": {"tx_power_dbm": math.nan}},
     "budget.tx_power_dbm must be a finite number"),
    ({"rx": [75, math.inf, 1]}, "rx[0] must be a finite number"),
    ({"budget": {"tx_power_dbm": 10**400}},
     "budget.tx_power_dbm must be a finite number"),
], ids=["trials_string", "power_string", "seed_fraction", "flag_string",
        "ris_list_object", "power_nan", "rx_infinity", "power_400_digits"])
def test_mistyped_config_value_exits_two(tmp_path, capsys, override, message):
    path = tmp_path / "typed.json"
    path.write_text(json.dumps({"tx": [0, 20, 2], "rx": [75, 35, 1], **override}))
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert message in captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("override, message", [
    ({"n_trials": 999999999999999999999999999999}, "n_trials must be at most"),
    ({"n_trials": MAX_TRIALS + 1}, "n_trials must be at most"),
    ({"ris_list": [{"position": [75, 30, 2], "n_elements": 4 * MAX_ELEMENTS}]},
     "at most 65536"),
    ({"rx": [[75, 35, 1]] * (MAX_USERS + 1)}, "at most 256 receivers"),
    ({"rx": [1e160, 35, 1], "n_trials": 5}, "rx[0] coordinates must lie within"),
    ({"tx": [0, -2 * MAX_COORDINATE, 2]}, "tx coordinates must lie within"),
    ({"ris_list": [{"position": [75, 30, 1e200]}]},
     "ris[0] coordinates must lie within"),
    ({"env": {"min_range_m": 1e300}}, "env.min_range_m must be at most"),
    ({"env": {"mean_clusters": 1e300}}, _SCATTERERS),
    ({"env": {"max_scatterers_per_cluster": 4e12}}, _SCATTERERS),
    ({"env": {"max_scatterers_per_cluster": 1e8}}, _SCATTERERS),
], ids=["trials_30_digits", "trials_over_bound", "elements_over_bound",
        "users_over_bound", "rx_far_out", "tx_past_bound", "ris_far_up",
        "clusters_far_out", "clusters_1e300", "scatterers_4e12", "scatterers_1e8"])
def test_oversized_config_exits_two(tmp_path, capsys, override, message):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"tx": [0, 20, 2], "rx": [75, 35, 1], **override}))
    for argv in (["validate", str(path)],
                 ["simulate", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert message in captured.err
        assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", [
    "azimuth_spread_deg", "elevation_spread_deg", "cluster_azimuth_limit_deg",
    "cluster_elevation_limit_deg"])
def test_negative_angular_spread_exits_two(tmp_path, capsys, field):
    path = tmp_path / "spread.json"
    path.write_text(json.dumps({"tx": [0, 20, 2], "rx": [75, 35, 1], "n_trials": 4,
                                "env": {field: -1.0}}))
    for argv in (["validate", str(path)],
                 ["simulate", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert field in captured.err
        assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, message", [
    ({"freq_hz": 1e-300}, "freq_hz must be at least"),
    ({"budget": {"tx_power_dbm": 1e300}}, "budget.tx_power_dbm must lie within"),
    ({"budget": {"noise_power_dbm": 1e300}}, "budget.noise_power_dbm must lie within"),
    ({"ris_list": [{"position": [75, 30, 2], "spacing": 1e308}]},
     "ris[0] lattice extent, spacing"),
    ({"pl_los": {**_LOS, "shadow_sigma_db": 1e300}}, "pl_los.shadow_sigma_db must be"),
    ({"pl_nlos": {**_NLOS, "shadow_sigma_db": 1e300}}, "pl_nlos.shadow_sigma_db must be"),
    ({"pl_nlos": {**_NLOS, "freq_dependence": -1e300, "ref_freq_hz": 1e9}},
     "pl_nlos's effective pathloss exponent, exponent x (1 + freq_dependence"),
    ({"ris_list": [{"position": [75, 30, 2], "pattern_exponent": 1e308}]},
     "ris[0].pattern_exponent must be at most"),
    # a sightline 0.5 m and 1 mm long under a steep exponent: a traceback, inf
    ({"rx": [75, 30.5, 2], "ris_list": [{"position": [75, 30, 2], "n_elements": 16}],
      "pl_los": {**_LOS, "exponent": 2500}}, "pl_los turns its shortest link"),
    ({"rx": [75, 30.001, 2], "ris_list": [{"position": [75, 30, 2], "n_elements": 16}],
      "pl_los": {**_LOS, "exponent": 200}}, "pl_los turns its shortest link"),
    # direct scatter paths about 1 mm long: inf
    ({"rx": [0, 20.001, 2], "ris_list": [], "env": {"min_range_m": 1e-6},
      "pl_nlos": {**_NLOS, "exponent": 200}}, "pl_nlos turns its shortest link"),
], ids=["carrier_tiny", "tx_power_huge", "noise_power_huge", "spacing_huge",
        "los_shadow_huge", "nlos_shadow_huge", "exponent_minus_inf",
        "pattern_exponent_huge", "los_gain_overflows", "los_gain_inf", "nlos_gain_inf"])
def test_config_that_would_overflow_exits_two(tmp_path, capsys, override, message):
    # without their bounds these run to a traceback, or to nan rates with exit 0
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"tx": [0, 20, 2], "rx": [75, 35, 1], "n_trials": 4,
                                "ris_list": [{"position": [75, 30, 2]}], **override}))
    for argv in (["validate", str(path)],
                 ["simulate", str(path), "--out", str(tmp_path / "out")]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert message in captured.err
        assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


def test_bounds_are_inclusive(tmp_path, capsys):
    path = tmp_path / "edge.json"
    side = math.isqrt(MAX_ELEMENTS)
    path.write_text(json.dumps({
        "tx": [-MAX_COORDINATE, 20, 2], "rx": [[75, 35, 1]] * MAX_USERS,
        "n_trials": MAX_TRIALS, "env": {"min_range_m": MAX_COORDINATE},
        "freq_hz": MIN_FREQ_HZ,
        "pl_los": {**_LOS, "shadow_sigma_db": MAX_SHADOW_SIGMA_DB},
        "pl_nlos": {**_NLOS, "shadow_sigma_db": MAX_SHADOW_SIGMA_DB},
        "budget": {"tx_power_dbm": MAX_POWER_DBM, "noise_power_dbm": -MAX_POWER_DBM},
        "ris_list": [{"position": [75, 30, 2], "n_elements": MAX_ELEMENTS,
                      "spacing": MAX_COORDINATE / side,
                      "pattern_exponent": MAX_PATTERN_EXPONENT}]}))
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.startswith("ok")


def test_path_gain_at_its_bound_runs_to_finite_rates(tmp_path):
    # both hops 0.5 m long at just under MAX_PATH_GAIN_DB of gain, at
    # +-MAX_POWER_DBM, the largest shadow sigma and pattern exponent, on
    # 4096 co-phased elements: every rate and CI bound stays finite
    free = pathloss_db(LOS_73GHZ, 73e9, 1.0)   # the exponent's term is 0 at 1 m
    exponent = (MAX_PATH_GAIN_DB - free) / (10.0 * math.log10(2.0)) * (1.0 - 1e-9)
    los = {**_LOS, "exponent": exponent, "shadow_sigma_db": MAX_SHADOW_SIGMA_DB}
    assert MAX_PATH_GAIN_DB - 1e-3 < pathloss_db(
        dataclasses.replace(LOS_73GHZ, exponent=exponent), 73e9, 0.5) <= MAX_PATH_GAIN_DB
    path, out = tmp_path / "edge.json", tmp_path / "out"
    path.write_text(json.dumps({
        "tx": [75, 29.5, 2], "rx": [75, 30.5, 2], "n_trials": 50, "pl_los": los,
        "budget": {"tx_power_dbm": MAX_POWER_DBM, "noise_power_dbm": -MAX_POWER_DBM},
        "ris_list": [{"position": [75, 30, 2], "n_elements": 4096,
                      "pattern_exponent": MAX_PATTERN_EXPONENT}]}))
    assert main(["simulate", str(path), "--out", str(out)]) == 0
    _, row = (out / "metrics.csv").read_text().splitlines()
    rate, snr_db, low, high = map(float, row.split(",")[1:5])
    assert all(map(math.isfinite, (rate, snr_db, low, high))) and 0 < low <= rate <= high


@pytest.mark.parametrize("argv", [
    ["sweep", "{cfg}", "--var", "n_elements", "--values", f"16,{4 * MAX_ELEMENTS}"],
    ["figure", "F6", "--override", f"trials={MAX_TRIALS + 1}"],
    ["sweep", "{cfg}", "--var", "tx_power_dbm", "--values", "10", "--target-ris", "7"],
    ["sweep", "{cfg}", "--var", "ris_count", "--values", "1", "--target-ris", "-3"],
], ids=["sweep_elements_over_bound", "figure_trials_over_bound",
        "target_ris_on_tx_power", "target_ris_on_ris_count"])
def test_failed_run_leaves_no_output_directory(scenario_file, tmp_path, capsys,
                                               argv):
    out = tmp_path / "out"
    argv = [a.format(cfg=scenario_file) for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "{missing}"],
    ["sweep", "{missing}", "--var", "tx_power_dbm", "--values", "10"],
    ["validate", "{missing}"],
    ["simulate", "{cfg}", "--out", "{file}"],
    ["sweep", "{cfg}", "--var", "tx_power_dbm", "--values", "10", "--out", "{file}"],
    ["figure", "F6", "--trials", "2", "--out", "{file}"],
], ids=["simulate_missing_config", "sweep_missing_config",
        "validate_missing_config", "simulate_out_is_file", "sweep_out_is_file",
        "figure_out_is_file"])
def test_io_errors_exit_two(scenario_file, tmp_path, capsys, argv):
    # the message names the path at fault, and the file --out names survives
    missing, taken = tmp_path / "missing.json", tmp_path / "taken"
    taken.write_text("keep")
    argv = [a.format(cfg=scenario_file, missing=missing, file=taken) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and (str(missing) in err or str(taken) in err)
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["file", "under_file"])
@pytest.mark.parametrize("argv", [
    ["simulate", "{cfg}"],
    ["sweep", "{cfg}", "--var", "tx_power_dbm", "--values", "10"],
    ["figure", "F6", "--trials", "2"],
], ids=["simulate", "sweep", "figure"])
def test_bad_out_fails_before_the_first_trial(scenario_file, tmp_path, capsys,
                                              monkeypatch, argv, out):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before --out was checked")

    monkeypatch.setattr(cli, "run_scenario", no_trials)
    monkeypatch.setattr(experiments, "run_scenario", no_trials)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    argv = [a.format(cfg=scenario_file) for a in argv]
    assert main(argv + ["--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(taken) in err
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("threads", [0, -1, MAX_THREADS + 1])
@pytest.mark.parametrize("argv", [
    ["simulate", "{cfg}"],
    ["sweep", "{cfg}", "--var", "tx_power_dbm", "--values", "10,20"],
    ["figure", "F6", "--trials", "2"],
], ids=["simulate", "sweep", "figure"])
def test_thread_count_out_of_bounds_exits_two(scenario_file, tmp_path, capsys,
                                              argv, threads):
    # main checks the flag before any command runs, so nothing is written
    out = tmp_path / "out"
    argv = [a.format(cfg=scenario_file) for a in argv]
    assert main(argv + ["--threads", str(threads), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"1..{MAX_THREADS}" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "{cfg}"],
    ["sweep", "{cfg}", "--var", "tx_power_dbm", "--values", "10,20"],
    ["figure", "F6", "--trials", "2"],
], ids=["simulate", "sweep", "figure"])
def test_threads_flag_runs_every_trial_on_the_calling_thread(
        scenario_file, tmp_path, monkeypatch, argv):
    callers = []

    def recording(*key):
        callers.append(threading.get_ident())
        return derived_rng(*key)

    monkeypatch.setattr(experiments, "derived_rng", recording)
    argv = [a.format(cfg=scenario_file) for a in argv]
    assert main(argv + ["--threads", "4", "--out", str(tmp_path / "out")]) == 0
    assert callers and set(callers) == {threading.get_ident()}


@pytest.mark.parametrize("argv, name", [
    (["sweep", "{cfg}", "--var", "tx_power_dbm", "--values", "10,abc"], "--values"),
    (["sweep", "{cfg}", "--var", "tx_power_dbm", "--values", "nan"], "--values"),
    (["sweep", "{cfg}", "--var", "tx_power_dbm", "--values", "inf"], "--values"),
    (["figure", "F6", "--override", "pt_values=1,x"], "pt_values"),
    (["figure", "F6", "--override", "trials=2.5"], "trials"),
    (["figure", "F6", "--override", "z_ris=abc"], "z_ris"),
    # an empty field fails rather than being skipped
    (["sweep", "{cfg}", "--var", "tx_power_dbm", "--values", "10,,20"], "--values"),
    (["sweep", "{cfg}", "--var", "tx_power_dbm", "--values", "10,"], "--values"),
    (["sweep", "{cfg}", "--var", "tx_power_dbm", "--values", ",10"], "--values"),
    (["sweep", "{cfg}", "--var", "tx_power_dbm", "--values", "10, ,20"], "--values"),
    (["figure", "F6", "--override", "z_ris=5,"], "z_ris"),
    (["figure", "F6", "--override", "pt_values=1,,2"], "pt_values"),
    (["figure", "F6", "--override", "trials="], "trials"),
], ids=["values_text", "values_nan", "values_inf", "override_list_text",
        "override_trials_fraction", "override_float_text", "values_empty_middle",
        "values_empty_last", "values_empty_first", "values_blank_middle",
        "override_float_empty_last", "override_list_empty_middle", "override_empty"])
def test_malformed_cli_values_exit_two(scenario_file, tmp_path, capsys, argv, name):
    argv = [a.format(cfg=scenario_file) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and name in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


# A valid scenario with every field spelled out, including optional ones
# left null, so that every leaf of the schema can be corrupted.
_VALID = scenario_to_dict(scenario_from_dict({
    "tx": [0, 20, 2], "rx": [[70, 32, 1], [70, 35, 1]],
    "ris_list": [{"position": [70, 30, 2], "n_elements": 16}],
    "n_trials": 5,
}))
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_CONTAINERS = st.one_of(
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _nodes(node, path=()):
    """(path, value) for every object and every scalar leaf of a JSON tree."""
    if isinstance(node, list):
        for i, v in enumerate(node):
            yield from _nodes(v, path + (i,))
        return
    yield path, node
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _nodes(v, path + (k,))


def _corruptions(value):
    """Values that must not pass where value stands: an unknown key for an
    object, else a wrong JSON type or a non-finite or oversized number."""
    if isinstance(value, dict):
        return st.text(min_size=1, max_size=8).filter(
            lambda k: k not in value).map(lambda k: {**value, k: 0})
    if isinstance(value, bool):
        wrong = [st.integers(), st.floats(), st.text(), st.none()]
    elif isinstance(value, int):
        wrong = [st.text(), st.booleans(), st.none(), _NON_FINITE,
                 st.floats(allow_nan=False, allow_infinity=False).filter(
                     lambda v: not v.is_integer())]
    elif isinstance(value, float):
        wrong = [st.text(), st.booleans(), st.none(), _NON_FINITE,
                 st.sampled_from([10**400, -10**400])]
    elif isinstance(value, str):
        wrong = [st.integers(), st.floats(), st.booleans(), st.none()]
    else:   # null: an optional number or enum
        wrong = [st.booleans(), _NON_FINITE]
    return st.one_of(_CONTAINERS, *wrong)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_config_fails_cleanly(tmp_path, data):
    tree = copy.deepcopy(_VALID)
    path, value = data.draw(st.sampled_from(list(_nodes(tree))))
    bad = data.draw(_corruptions(value))
    if path:
        parent = tree
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = bad
    else:
        tree = bad
    config = tmp_path / "corrupt.json"
    config.write_text(json.dumps(tree))
    assert main(["validate", str(config)]) in (1, 2)
