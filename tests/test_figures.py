import json
import math

import numpy as np
import pytest

from risim.experiments import ConfigError, SweepVariable
from risim.figures import FIGURES, build_figure, reproduce_figure
from risim.geometry import Plane, Point3


def test_f2_surface_count_ladder():
    runs = build_figure("F2")
    assert [r.name for r in runs] == ["free", "one_surface", "two_surfaces",
                                      "three_surfaces"]
    assert [len(r.cfg.ris_list) for r in runs] == [0, 1, 2, 3]
    for run in runs:
        assert run.sweep.variable is SweepVariable.TX_POWER_DBM
        assert run.cfg.budget.noise_power_dbm == -100.0
        assert run.cdf_at == max(run.sweep.values) == 30.0


def test_f5_tilt_sweeps():
    runs = build_figure("f5")
    assert [r.name for r in runs] == ["pivot_x", "pivot_y"]
    for run in runs:
        assert run.sweep.variable is SweepVariable.TILT
        assert run.cfg.budget.tx_power_dbm == 15.0
        assert math.radians(-80.0) in run.sweep.values
        assert 0.0 in run.sweep.values
    assert runs[0].cfg.rx == [Point3(70.0, 35.0, 1.0)]
    assert runs[0].cfg.ris_list[0].orient.plane is Plane.XZ
    assert runs[1].cfg.ris_list[0].orient.plane is Plane.YZ


def test_f9_two_users_share_one_surface():
    run, = build_figure("F9")
    assert run.name == "shared"
    assert len(run.cfg.rx) == 2
    assert run.cfg.ris_list[0].n_elements == 256
    assert run.sweep.variable is SweepVariable.RIS_X
    assert run.cfg.budget.tx_power_dbm == 30.0


def test_overrides_apply_and_unknowns_fail():
    runs = build_figure("F6", {"trials": 10, "seed": 5})
    for run in runs:
        assert run.cfg.n_trials == 10
        assert run.cfg.master_seed == 5

    runs = build_figure("F6", {"pt_values": "25,30"})
    assert runs[0].sweep.values == [25.0, 30.0]

    with pytest.raises(ConfigError, match="does not take override"):
        build_figure("F6", {"tilt_deg_values": "0,-10"})
    with pytest.raises(ConfigError, match="unknown figure"):
        build_figure("F1")


@pytest.mark.parametrize("fig", sorted(FIGURES))
def test_every_knob_parses_like_its_default_and_moves_the_runs(fig):
    _, defaults = FIGURES[fig]
    runs = build_figure(fig)
    for key, default in defaults.items():
        as_text = (",".join(map(str, default)) if isinstance(default, list)
                   else str(default))
        assert build_figure(fig, {key: as_text}) == runs
        moved = ([v + 1 for v in default] if isinstance(default, list)
                 else default + 1)
        assert build_figure(fig, {key: moved}) != runs


def test_seed_override_is_kept_exact():
    seed = 2**53 + 1
    for value in (str(seed), seed):
        for run in build_figure("F9", {"seed": value}):
            assert run.cfg.master_seed == seed


def test_reproduce_f6_files(tmp_path):
    written = reproduce_figure("F6", {"trials": 4, "pt_values": "25,30"},
                               out_dir=str(tmp_path))
    names = {p.name for p in written}
    assert names == {
        "f6_free.csv", "f6_free_meta.json",
        "f6_n64.csv", "f6_n64_meta.json",
        "f6_n256.csv", "f6_n256_meta.json",
    }
    lines = (tmp_path / "f6_n64.csv").read_text().splitlines()
    assert len(lines) == 3                      # header + one row per power
    assert lines[1].split(",")[0] == "25"
    meta = json.loads((tmp_path / "f6_n64_meta.json").read_text())
    assert meta["figure"] == "F6"
    assert meta["sweep"]["variable"] == "tx_power_dbm"
    assert meta["config"]["n_trials"] == 4


def test_reproduce_f2_writes_cdf_files(tmp_path):
    reproduce_figure("F2", {"trials": 6, "pt_values": "25,30"},
                     out_dir=str(tmp_path))
    cdf = tmp_path / "f2_one_surface_cdf.csv"
    assert cdf.exists()
    lines = cdf.read_text().splitlines()
    assert lines[0] == "value,probability"
    assert len(lines) == 7                      # one step per trial
    probs = [float(l.split(",")[1]) for l in lines[1:]]
    np.testing.assert_allclose(probs, np.arange(1, 7) / 6, rtol=1e-8)
    assert (tmp_path / "f2_free_cdf.csv").exists()
    assert (tmp_path / "f2_three_surfaces_cdf.csv").exists()


def test_reproduce_f9_per_user_files(tmp_path):
    written = reproduce_figure("F9", {"trials": 5, "x_values": "30,50"},
                               out_dir=str(tmp_path))
    names = {p.name for p in written}
    assert names == {"f9_shared_rx0.csv", "f9_shared_rx1.csv",
                     "f9_shared_meta.json"}
    for name in ("f9_shared_rx0.csv", "f9_shared_rx1.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) == 3


def test_reproduce_json_tables(tmp_path):
    written = reproduce_figure("F6", {"trials": 3, "pt_values": "30"},
                               out_dir=str(tmp_path), fmt="json")
    assert {p.name for p in written if p.suffix == ".json"} >= {
        "f6_free.json", "f6_n64.json", "f6_n256.json"}
    rec, = json.loads((tmp_path / "f6_free.json").read_text())
    assert rec["sweep_value"] == 30.0
    assert rec["n_trials"] == 3
