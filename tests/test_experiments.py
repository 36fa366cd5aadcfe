import dataclasses
import json
import math

import numpy as np
import pytest

from risim.channel import RisDescriptor
from risim.environment import EnvironmentConfig
from risim.experiments import (
    SWEEP_HEADER, ConfigError, ScenarioConfig, SweepSpec, SweepVariable,
    apply_sweep_value, derived_rng, load_scenario, run_scenario, run_sweep,
    scenario_from_dict, scenario_to_dict, validate, write_cdf_csv,
    write_metadata, write_sweep_csv, write_sweep_json,
)
from risim.geometry import (
    Orientation, Plane, Point3, TiltAxis, angles_at_surface, distance,
)
from risim.metrics import LinkBudget, MetricsResult
from risim.propagation import (
    LOS_73GHZ, LosMode, LosModel, PathlossParams, element_gain, pathloss_db,
)

TX = Point3(0.0, 20.0, 2.0)
RX = Point3(75.0, 35.0, 1.0)


def _cfg(n_elements=16, n_trials=30, seed=7, **overrides):
    base = dict(
        tx=TX, rx=[RX],
        ris_list=[RisDescriptor(position=Point3(75.0, 30.0, 2.0),
                                n_elements=n_elements)],
        n_trials=n_trials, master_seed=seed,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_everything_blocked_gives_zero_rate():
    dead = dict(los_model=LosModel(mode=LosMode.NEVER),
                env=EnvironmentConfig(include_scatter=False), n_trials=8)
    for cfg in (_cfg(**dead), _cfg(ris_list=[], **dead)):
        res = run_scenario(cfg)[0]
        assert res.ergodic_rate == 0.0
        np.testing.assert_array_equal(res.rate_samples, np.zeros(8))
        assert np.isneginf(res.mean_snr_db)


@pytest.mark.parametrize("surfaces", [
    [RisDescriptor(position=Point3(75.0, 30.0, 2.0), n_elements=64)],
    [RisDescriptor(position=Point3(70.0, 30.0, 2.0), n_elements=16, amplitude=0.7,
                   orient=Orientation(plane=Plane.XZ, tilt_rad=-0.3)),
     RisDescriptor(position=Point3(74.0, 30.0, 2.5), n_elements=256)],
], ids=["one_surface", "two_surfaces_tilt_amplitude"])
def test_pure_sightline_matches_closed_form(surfaces):
    # sightlines only, no shadowing, "aligned": whatever the random sightline
    # phases, |h_eff| = |h_d| + sum over surfaces of amp N |g||h|
    cfg = _cfg(ris_list=surfaces, n_trials=20,
               los_model=LosModel(mode=LosMode.ALWAYS),
               env=EnvironmentConfig(include_scatter=False),
               shadow_scatter_paths=False, shadow_los_paths=False,
               direct_phase_sign="aligned")

    def magnitude(a, b, ris=None):
        gain = 10.0 ** (pathloss_db(LOS_73GHZ, distance(a, b)) / 10.0)
        if ris is not None:
            el = angles_at_surface(ris.position, ris.orient, b).elevation
            gain *= element_gain(el, ris.pattern_exponent)
        return math.sqrt(gain)

    h_eff = magnitude(TX, RX) + sum(
        ris.amplitude * ris.n_elements * magnitude(ris.position, TX, ris)
        * magnitude(ris.position, RX, ris) for ris in surfaces)
    rate = math.log2(1.0 + 10.0 ** ((30.0 + 100.0) / 10.0) * h_eff ** 2)
    res = run_scenario(cfg)[0]
    np.testing.assert_allclose(res.rate_samples, np.full(20, rate), rtol=1e-12)


def test_run_scenario_bitwise_deterministic():
    a = run_scenario(_cfg())[0]
    b = run_scenario(_cfg())[0]
    np.testing.assert_array_equal(a.rate_samples, b.rate_samples)
    assert a.ergodic_rate == b.ergodic_rate
    assert (a.rate_ci_low, a.rate_ci_high) == (b.rate_ci_low, b.rate_ci_high)
    assert a.n_trials == 30 and a.seed == 7


def test_thread_count_does_not_change_results():
    a = run_scenario(_cfg(), threads=1)[0]
    b = run_scenario(_cfg(), threads=4)[0]
    np.testing.assert_array_equal(a.rate_samples, b.rate_samples)
    assert (a.rate_ci_low, a.rate_ci_high) == (b.rate_ci_low, b.rate_ci_high)


def test_seed_changes_results():
    a = run_scenario(_cfg(seed=7))[0]
    b = run_scenario(_cfg(seed=8))[0]
    assert a.ergodic_rate != b.ergodic_rate


def test_sweep_single_point_matches_direct_run():
    cfg = _cfg()
    spec = SweepSpec(SweepVariable.TX_POWER_DBM, [25.0])
    (value, results), = run_sweep(cfg, spec)
    assert value == 25.0
    manual = run_scenario(apply_sweep_value(cfg, spec, 25.0), sweep_index=0)
    np.testing.assert_array_equal(results[0].rate_samples,
                                  manual[0].rate_samples)


def test_apply_sweep_value_each_variable():
    cfg = _cfg()
    cfg.ris_list.append(RisDescriptor(position=Point3(40.0, 30.0, 2.0),
                                      n_elements=4))

    out = apply_sweep_value(cfg, SweepSpec(SweepVariable.RIS_X, []), 55.0)
    assert out.ris_list[0].position == Point3(55.0, 30.0, 2.0)

    out = apply_sweep_value(cfg, SweepSpec(SweepVariable.RIS_Z, [],
                                           target_ris=1), 4.0)
    assert out.ris_list[1].position == Point3(40.0, 30.0, 4.0)
    assert out.ris_list[0] is cfg.ris_list[0]

    out = apply_sweep_value(cfg, SweepSpec(SweepVariable.TILT, []), 0.5)
    assert out.ris_list[0].orient.tilt_rad == 0.5

    out = apply_sweep_value(cfg, SweepSpec(SweepVariable.N_ELEMENTS, []), 64)
    assert out.ris_list[0].n_elements == 64

    out = apply_sweep_value(cfg, SweepSpec(SweepVariable.TX_POWER_DBM, []), 10.0)
    assert out.budget.tx_power_dbm == 10.0

    out = apply_sweep_value(cfg, SweepSpec(SweepVariable.RIS_COUNT, []), 1)
    assert len(out.ris_list) == 1
    out = apply_sweep_value(cfg, SweepSpec(SweepVariable.RIS_COUNT, []), 0)
    assert out.ris_list == []

    # the source config never moves
    assert cfg.ris_list[0].position == Point3(75.0, 30.0, 2.0)
    assert cfg.ris_list[0].n_elements == 16
    assert cfg.budget.tx_power_dbm == 30.0
    assert len(cfg.ris_list) == 2


def test_apply_sweep_value_rejects_bad_values():
    cfg = _cfg()
    with pytest.raises(ConfigError):
        apply_sweep_value(cfg, SweepSpec(SweepVariable.N_ELEMENTS, []), 60)
    with pytest.raises(ConfigError):
        apply_sweep_value(cfg, SweepSpec(SweepVariable.RIS_COUNT, []), 5)
    with pytest.raises(ConfigError):
        apply_sweep_value(cfg, SweepSpec(SweepVariable.RIS_X, [], target_ris=3),
                          10.0)
    with pytest.raises(ConfigError):
        apply_sweep_value(_cfg(ris_list=[]), SweepSpec(SweepVariable.TILT, []),
                          0.1)


def test_integral_sweep_values_are_not_truncated():
    cfg = _cfg()
    for variable, value in [(SweepVariable.N_ELEMENTS, 16.7),
                            (SweepVariable.RIS_COUNT, 0.5)]:
        with pytest.raises(ConfigError, match="must be an integer"):
            apply_sweep_value(cfg, SweepSpec(variable, []), value)
    out = apply_sweep_value(cfg, SweepSpec(SweepVariable.N_ELEMENTS, []), 64.0)
    assert out.ris_list[0].n_elements == 64
    out = apply_sweep_value(cfg, SweepSpec(SweepVariable.RIS_COUNT, []), 1.0)
    assert out.ris_list == cfg.ris_list


def test_repeated_sweep_value_draws_fresh_streams():
    rows = run_sweep(_cfg(n_trials=40), SweepSpec(SweepVariable.TX_POWER_DBM,
                                                  [30.0, 30.0]))
    assert rows[0][1][0].ergodic_rate != rows[1][1][0].ergodic_rate


def test_run_sweep_needs_values():
    with pytest.raises(ConfigError):
        run_sweep(_cfg(), SweepSpec(SweepVariable.TX_POWER_DBM, []))


def test_validate_collects_every_issue():
    cfg = ScenarioConfig(tx=Point3(0, 0, 2), rx=[], n_trials=0,
                         master_seed=-1, direct_phase_sign="bogus",
                         offblock="maybe")
    issues = validate(cfg)
    assert len(issues) == 5
    joined = "\n".join(issues)
    for needle in ("n_trials", "master_seed", "receiver",
                   "direct_phase_sign", "offblock"):
        assert needle in joined

    with pytest.raises(ConfigError) as err:
        run_scenario(cfg)
    assert str(err.value).count("- ") == 5


def test_validate_flags_more_users_than_elements():
    cfg = _cfg(n_elements=1, rx=[RX, Point3(70.0, 35.0, 1.0)])
    issues = validate(cfg)
    assert any("elements" in s and "users" in s for s in issues)


def test_validate_flags_coincident_nodes():
    cfg = _cfg(rx=[TX])
    assert any("coincides" in s for s in validate(cfg))
    cfg = _cfg()
    cfg.ris_list[0] = RisDescriptor(position=RX, n_elements=16)
    assert any("coincides" in s for s in validate(cfg))


def test_config_dict_round_trip(tmp_path):
    cfg = _cfg(rx=[RX, Point3(70.0, 32.0, 1.0)])
    cfg.ris_list[0] = RisDescriptor(position=Point3(75.0, 30.0, 2.0),
                                    orient=Orientation(tilt_rad=0.2),
                                    n_elements=64)
    d1 = scenario_to_dict(cfg)
    d2 = scenario_to_dict(scenario_from_dict(d1))
    assert d1 == d2

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d1))
    loaded = load_scenario(str(path))
    assert scenario_to_dict(loaded) == d1

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(str(bad))


def _defaults(cls, parent_default):
    """Field name -> default; a field without one takes the value it has in
    the enclosing field's default (pl_los's fields in LOS_73GHZ)."""
    out = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            out[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            out[f.name] = f.default_factory()
        elif dataclasses.is_dataclass(parent_default):
            out[f.name] = getattr(parent_default, f.name)
    return out


def _config_children(obj):
    """(field name, list index or None, nested config object), one level down."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        items = enumerate(value) if isinstance(value, list) else [(None, value)]
        for i, item in items:
            if dataclasses.is_dataclass(item) and not isinstance(item, Point3):
                yield f.name, i, item


def _assert_off_defaults(obj, where, parent_default=None):
    defaults = _defaults(type(obj), parent_default)
    for name, default in defaults.items():
        assert getattr(obj, name) != default, f"{where}.{name} is at its default"
    for name, _, child in _config_children(obj):
        _assert_off_defaults(child, f"{where}.{name}", defaults.get(name))


def _assert_keys_are_fields(echo, obj):
    assert list(echo) == [f.name for f in dataclasses.fields(obj)]
    for name, i, child in _config_children(obj):
        _assert_keys_are_fields(echo[name] if i is None else echo[name][i], child)


def test_schema_echo_parse_is_identity_off_defaults():
    """Every field at every level moved off its default: a field that the
    parser or the echo dropped would come back at its default here."""
    pl = dict(freq_dependence=0.1, freq_hz=28e9, ref_freq_hz=30e9)
    cfg = ScenarioConfig(
        tx=Point3(1.0, 2.0, 3.0),
        rx=[Point3(70.0, 32.0, 1.0), Point3(70.0, 35.0, 1.5)],
        ris_list=[RisDescriptor(
            position=Point3(75.0, 30.0, 2.0),
            orient=Orientation(plane=Plane.YZ, tilt_axis=TiltAxis.X,
                               tilt_rad=0.3),
            n_elements=64, spacing=0.003, pattern_exponent=0.5,
            amplitude=0.9)],
        env=EnvironmentConfig(
            mean_clusters=2.5, max_scatterers_per_cluster=12,
            azimuth_spread_deg=7.0, elevation_spread_deg=3.0,
            cluster_azimuth_limit_deg=60.0, cluster_elevation_limit_deg=30.0,
            min_range_m=2.0, include_scatter=False),
        pl_los=PathlossParams(exponent=2.0, shadow_sigma_db=4.0, **pl),
        pl_nlos=PathlossParams(exponent=3.0, shadow_sigma_db=9.0, **pl),
        los_model=LosModel(mode=LosMode.ALWAYS, decay_length_m=12.5,
                           force_if_above_tx=False),
        budget=LinkBudget(tx_power_dbm=20.0, noise_power_dbm=-90.0),
        n_trials=77, master_seed=5, direct_phase_sign="aligned",
        offblock="exclude", shadow_scatter_paths=False,
        shadow_los_paths=False, resample_geometry=False,
    )
    _assert_off_defaults(cfg, "scenario")

    echo = json.loads(json.dumps(scenario_to_dict(cfg)))
    _assert_keys_are_fields(echo, cfg)
    parsed = scenario_from_dict(echo)
    assert parsed == cfg
    assert scenario_to_dict(parsed) == echo


@pytest.mark.parametrize("override", [
    {"n_trials": True},
    {"n_trials": 10.5},
    {"budget": {"noise_power_dbm": False}},
    {"resample_geometry": 1},
    {"direct_phase_sign": 1},
    {"tx": [0, "20", 2]},
    {"tx": [0, 20]},
    {"rx": "75,35,1"},
    {"los_model": {"mode": "sometimes"}},
    {"ris_list": [{"position": [75, 30, 2], "orient": {"plane": None}}]},
    {"ris_list": [{"position": [75, 30, 2], "spacing": "0.002"}]},
])
def test_mistyped_values_rejected(override):
    with pytest.raises(ConfigError):
        scenario_from_dict({"tx": [0, 20, 2], "rx": [75, 35, 1], **override})


def test_typed_values_accepted():
    cfg = scenario_from_dict({
        "tx": [0, 20, 2], "rx": [75, 35, 1], "n_trials": 40.0,
        "budget": {"tx_power_dbm": 25},
        "ris_list": [{"position": [75, 30, 2], "spacing": None,
                      "orient": {"plane": "YZ", "tilt_axis": None}}],
    })
    assert cfg.n_trials == 40 and isinstance(cfg.n_trials, int)
    assert cfg.budget.tx_power_dbm == 25.0
    assert isinstance(cfg.budget.tx_power_dbm, float)
    assert cfg.ris_list[0].orient.plane is Plane.YZ
    assert cfg.ris_list[0].spacing is None


def test_unknown_keys_rejected_everywhere():
    base = {"tx": [0, 20, 2], "rx": [75, 35, 1]}
    with pytest.raises(ConfigError, match="unknown key"):
        scenario_from_dict({**base, "n_trails": 10})
    with pytest.raises(ConfigError, match="unknown key"):
        scenario_from_dict({**base, "env": {"mean_cluster": 3}})
    with pytest.raises(ConfigError, match="unknown key"):
        scenario_from_dict({**base, "ris_list": [
            {"position": [75, 30, 2], "orient": {"planes": "xz"}}]})


def test_rx_accepts_single_triple_or_list():
    cfg = scenario_from_dict({"tx": [0, 20, 2], "rx": [75, 35, 1]})
    assert cfg.rx == [Point3(75, 35, 1)]
    cfg = scenario_from_dict({"tx": [0, 20, 2],
                              "rx": [[75, 35, 1], [70, 32, 1]]})
    assert len(cfg.rx) == 2
    # a bare Point3 handed to the dataclass is wrapped in a list too
    assert ScenarioConfig(tx=TX, rx=RX).rx == [RX]


def _fake_result(rate):
    return MetricsResult(ergodic_rate=rate, mean_snr_db=10.0,
                         snr_db_trial_mean=9.5,
                         rate_samples=np.array([rate]), n_trials=1, seed=3,
                         rate_ci_low=rate - 0.1, rate_ci_high=rate + 0.1)


def test_write_sweep_csv_format(tmp_path):
    path = write_sweep_csv(tmp_path / "out.csv", [(1.0 / 3.0, _fake_result(2.0))])
    lines = path.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert lines[0] == ("sweep_value,ergodic_rate_bps_hz,mean_snr_db,"
                        "rate_ci_low,rate_ci_high,n_trials,seed")
    assert lines[1].startswith("0.333333333,2,10,1.9,2.1,")
    assert lines[1].split(",")[5:] == ["1", "3"]


def test_write_sweep_json(tmp_path):
    path = write_sweep_json(tmp_path / "out.json",
                            [(5.0, _fake_result(1.25))])
    rec, = json.loads(path.read_text())
    assert rec["sweep_value"] == 5.0
    assert rec["ergodic_rate_bps_hz"] == 1.25
    assert rec["n_trials"] == 1 and rec["seed"] == 3


def test_write_cdf_csv(tmp_path):
    path = write_cdf_csv(tmp_path / "cdf.csv", [2.0, 1.0])
    lines = path.read_text().splitlines()
    assert lines == ["value,probability", "1,0.5", "2,1"]


def test_write_metadata_echoes_config(tmp_path):
    cfg = _cfg()
    path = write_metadata(tmp_path / "meta.json", cfg, extra={"figure": "demo"})
    payload = json.loads(path.read_text())
    assert payload["figure"] == "demo"
    assert payload["config"]["n_trials"] == cfg.n_trials
    assert payload["config"]["ris_list"][0]["n_elements"] == 16
    assert scenario_to_dict(scenario_from_dict(payload["config"])) \
        == scenario_to_dict(cfg)


def test_derived_rng_streams():
    a = derived_rng(1, 0, 5, 2, 0).random()
    assert a == derived_rng(1, 0, 5, 2, 0).random()
    assert a != derived_rng(1, 0, 5, 2, 1).random()
    assert a != derived_rng(1, 0, 6, 2, 0).random()
    assert a != derived_rng(1, 1, 5, 2, 0).random()
    assert a != derived_rng(2, 0, 5, 2, 0).random()


def test_offblock_choice_changes_multiuser_rates():
    users = [Point3(70.0, 32.0, 1.0), Point3(70.0, 35.0, 1.0)]
    inc = run_scenario(_cfg(rx=users, n_trials=40, offblock="include"))
    exc = run_scenario(_cfg(rx=users, n_trials=40, offblock="exclude"))
    assert len(inc) == len(exc) == 2
    assert inc[0].ergodic_rate != exc[0].ergodic_rate
    assert inc[1].ergodic_rate != exc[1].ergodic_rate


def test_frozen_geometry_mode():
    frozen_a = run_scenario(_cfg(resample_geometry=False))[0]
    frozen_b = run_scenario(_cfg(resample_geometry=False))[0]
    np.testing.assert_array_equal(frozen_a.rate_samples, frozen_b.rate_samples)
    fresh = run_scenario(_cfg(resample_geometry=True))[0]
    assert frozen_a.ergodic_rate != fresh.ergodic_rate
