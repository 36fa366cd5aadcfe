import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from risim import experiments
from risim.channel import (
    RisDescriptor, Sightline, coefficients, direct_channel, ris_rx_channel,
    sightline_draws, tx_ris_channel,
)
from risim.environment import (
    EnvironmentConfig, complex_normal, place_clusters, sample_clusters,
)
from risim.experiments import (
    SWEEP_HEADER, ConfigError, ScenarioConfig, SweepSpec, SweepVariable,
    apply_sweep_value, derived_rng, load_scenario, run_scenario, run_sweep,
    scenario_from_dict, scenario_to_dict, stream_states, validate,
    write_cdf_csv, write_metadata, write_sweep_csv, write_sweep_json,
)
from risim.figures import build_figure
from risim.geometry import (
    Orientation, Plane, Point3, TiltAxis, angles_to_targets, distance,
)
from risim.metrics import LinkBudget, MetricsResult, effective_channel, summarize
from risim.propagation import (
    LOS_73GHZ, NLOS_73GHZ, LosMode, LosModel, PathlossParams, element_gain, los_indicator,
    los_probability, pathloss_db,
)
from risim.riscontrol import optimal_phases, partition_elements

TX = Point3(0.0, 20.0, 2.0)
RX = Point3(75.0, 35.0, 1.0)
# unshadowed links: sigma = 0 scales every path by 10^(-0/20) = 1 exactly
LOS0 = dataclasses.replace(LOS_73GHZ, shadow_sigma_db=0.0)
NLOS0 = dataclasses.replace(NLOS_73GHZ, shadow_sigma_db=0.0)


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
               pl_los=LOS0, pl_nlos=NLOS0, direct_phase_sign="aligned")

    def magnitude(a, b, ris=None):
        gain = 10.0 ** (pathloss_db(LOS_73GHZ, cfg.freq_hz, distance(a, b)) / 10.0)
        if ris is not None:
            el = angles_to_targets(ris.position, ris.orient, b.as_array()[None, :])[1][0]
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
    manual = run_scenario(apply_sweep_value(cfg, spec, 25.0))
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
    for variable in (SweepVariable.TX_POWER_DBM, SweepVariable.RIS_COUNT):
        with pytest.raises(ConfigError, match="target_ris"):
            apply_sweep_value(cfg, SweepSpec(variable, [], target_ris=1), 1)


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


def _bytes(results) -> list[bytes]:
    return [b for res in results for b in (
        res.rate_samples.tobytes(), np.array([res.rate_ci_low, res.rate_ci_high]).tobytes())]


@pytest.mark.parametrize("cfg, spec", [
    (_cfg(rx=[Point3(70.0, 32.0, 1.0), Point3(70.0, 35.0, 1.0)], n_trials=40),
     SweepSpec(SweepVariable.RIS_X, [60.0, 75.0, 60.0])),
    (_cfg(n_trials=40), SweepSpec(SweepVariable.TILT, [-0.5, 0.0, -0.5])),
], ids=["ris_x_two_users", "tilt"])
def test_each_sweep_point_is_its_own_run(cfg, spec):
    # a point is the run of its config: no stream depends on where in the
    # sweep it sits, so a repeated value repeats its results
    assert cfg.offblock == "include"
    rows = run_sweep(cfg, spec)
    assert [value for value, _ in rows] == spec.values
    for value, results in rows:
        assert _bytes(results) == _bytes(run_scenario(apply_sweep_value(cfg, spec, value)))
    assert _bytes(rows[0][1]) == _bytes(rows[2][1]) != _bytes(rows[1][1])


@pytest.mark.parametrize("rx", [[RX], [Point3(70.0, 32.0, 1.0), Point3(70.0, 35.0, 1.0)]],
                         ids=["one_user", "two_users"])
def test_power_sweep_is_monotone_trial_by_trial(rx):
    # power scales every trial's SNR on common streams, and every point
    # resamples with the same bootstrap streams (0, 6, u), so no trial's rate
    # and neither interval bound falls as power rises
    rows = run_sweep(_cfg(rx=rx, n_trials=100),
                     SweepSpec(SweepVariable.TX_POWER_DBM, [-10.0, 0.0, 10.0, 20.0, 30.0]))
    for u in range(len(rx)):
        rates = np.array([results[u].rate_samples for _, results in rows])
        assert np.all(np.diff(rates, axis=0) >= 0) and np.all(rates[-1] > rates[0])
        for bound in ("rate_ci_low", "rate_ci_high"):
            assert np.all(np.diff([getattr(results[u], bound) for _, results in rows]) > 0)


def test_adjacent_tilt_points_are_paired():
    # F5 pivot_x's tilt gain (~0.0014 b/s/Hz) is far below one point's SE
    # (~0.029): only common streams across points resolve it.  The SE of
    # each adjacent gap, unpaired over paired, measured 78 to 349 here
    run, _ = build_figure("F5", {"trials": 400, "seed": 3})
    assert run.name == "pivot_x"
    rates = np.array([results[0].rate_samples for _, results in run_sweep(run.cfg, run.sweep)])
    var = rates.var(axis=1, ddof=1)
    paired = np.diff(rates, axis=0).var(axis=1, ddof=1)
    assert np.all(np.sqrt((var[1:] + var[:-1]) / paired) >= 20)


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


_SURFACE = Point3(75.0, 30.0, 2.0)


@pytest.mark.parametrize("overrides, message", [
    ({"pl_nlos": dataclasses.replace(NLOS_73GHZ, shadow_sigma_db=math.nan)},
     "pl_nlos.shadow_sigma_db must be at most"),
    ({"pl_los": dataclasses.replace(LOS_73GHZ, shadow_sigma_db=math.nan)},
     "pl_los.shadow_sigma_db must be at most"),
    ({"budget": LinkBudget(tx_power_dbm=math.nan)}, "budget.tx_power_dbm must lie within"),
    ({"budget": LinkBudget(noise_power_dbm=math.nan)},
     "budget.noise_power_dbm must lie within"),
    ({"ris_list": [RisDescriptor(_SURFACE, n_elements=16, pattern_exponent=math.nan)]},
     "ris[0].pattern_exponent must be at most"),
    ({"ris_list": [RisDescriptor(_SURFACE, n_elements=16, spacing=math.nan)]},
     "ris[0] lattice extent"),
    ({"env": EnvironmentConfig(mean_clusters=math.nan)},
     "env.mean_clusters and env.max_scatterers_per_cluster give nan"),
    ({"env": EnvironmentConfig(min_range_m=math.nan)}, "env.min_range_m must be at most"),
    ({"freq_hz": math.nan}, "freq_hz must be at least"),
    ({"rx": [Point3(75.0, math.nan, 1.0)]}, "rx[0] coordinates must lie within"),
], ids=["nlos_sigma", "los_sigma", "tx_power", "noise_power", "pattern_exponent",
        "spacing", "mean_clusters", "min_range", "carrier", "rx_coordinate"])
def test_nan_fails_every_bound_from_the_python_api(overrides, message):
    # JSON cannot carry a nan past the decoder, but a config built in Python
    # can: each bound is written so that nan fails it, where x > MAX would not
    cfg = _cfg(n_trials=4, **overrides)
    with pytest.raises(ConfigError) as err:
        run_scenario(cfg)
    assert message in str(err.value)


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
    pl = dict(freq_dependence=0.1, ref_freq_hz=30e9)
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
        freq_hz=28e9,
        pl_los=PathlossParams(exponent=2.0, shadow_sigma_db=4.0, **pl),
        pl_nlos=PathlossParams(exponent=3.0, shadow_sigma_db=9.0, **pl),
        los_model=LosModel(mode=LosMode.ALWAYS, decay_length_m=12.5,
                           force_if_above_tx=False),
        budget=LinkBudget(tx_power_dbm=20.0, noise_power_dbm=-90.0),
        n_trials=77, master_seed=5, direct_phase_sign="aligned",
        offblock="exclude", resample_geometry=False,
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

    # a run whose every trial has zero power: RFC 8259 has no -Infinity
    silent = dataclasses.replace(_fake_result(0.0), mean_snr_db=-math.inf)
    path = write_sweep_json(tmp_path / "zero.json", [(5.0, silent)])
    rec, = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert rec["mean_snr_db"] is None
    assert rec["ergodic_rate_bps_hz"] == 0.0
    csv_row = write_sweep_csv(tmp_path / "zero.csv", [(5.0, silent)])
    assert csv_row.read_text().splitlines()[1].split(",")[2] == "-inf"


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


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


def _stream(master_seed, t, *tag):
    """derived_rng on the stream keyed (master_seed, 0, t, *tag)."""
    tags = np.array([tag], dtype=np.int64)
    return derived_rng(stream_states(master_seed, range(t, t + 1), tags)[0, 0])


def test_derived_rng_streams():
    a = _stream(1, 5, 2, 0).random()
    assert a == _stream(1, 5, 2, 0).random()
    assert a != _stream(1, 5, 2, 1).random()
    assert a != _stream(1, 6, 2, 0).random()
    assert a != _stream(2, 5, 2, 0).random()
    # each stream is PCG64 seeded by SeedSequence(entropy=(seed, 0, t, *tag))
    for seed, *key in [(0, 0, 1, 0), (2 ** 32 - 1, 2 ** 32 - 1, 2, 2 ** 32 - 1),
                       (123456789012345678901, 7, 5, 0),
                       (2 ** 64 + 5, 0, 6, 2 ** 32 - 1)]:
        want = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0, *key)))
        got = _stream(seed, *key)
        assert got.bit_generator.state == want.bit_generator.state, key
        np.testing.assert_array_equal(got.random(8), want.random(8))
    with pytest.raises(ValueError):
        _stream(-1, 0, 1)


def _assert_seed_sequence_stream(key, state):
    want = np.random.default_rng(np.random.SeedSequence(entropy=key))
    got = derived_rng(state)
    assert got.bit_generator.state == want.bit_generator.state, key
    np.testing.assert_array_equal(got.random(8), want.random(8))


@pytest.mark.parametrize("n_words", range(4, 10))
def test_stream_states_match_seed_sequence(n_words):
    # random one-word seed and tags, on a block of trials past 0
    draw = np.random.default_rng(n_words)
    seed = int(draw.integers(0, 2 ** 32))
    tags = draw.integers(0, 2 ** 32, size=(4, n_words - 3))
    tags[0], tags[1] = 0, 2 ** 32 - 1
    trials = range(61, 65)
    states = stream_states(seed, trials, tags)
    assert states.shape == (4, 4, 4) and states.dtype == np.uint64
    for t, row in zip(trials, states):
        for tag, state in zip(tags.tolist(), row):
            _assert_seed_sequence_stream((seed, 0, t, *tag), state)


_TRICKY = [0, 7, 2 ** 31, 2 ** 32 - 1]   # one-word trial and tag ints


@pytest.mark.parametrize("seed", [1, 2 ** 32, 123456789012345678901])
def test_stream_states_of_a_key_do_not_depend_on_its_batch(seed):
    # seeds of 1 to 3 words and tags 0 to 6 wide: keys from under the 4-word
    # pool to past it
    for width in range(7):
        tags = np.random.default_rng(width).choice(_TRICKY, size=(3, width))
        trials = range(2 ** 32 - 4, 2 ** 32)
        batch = stream_states(seed, trials, tags)
        for i, t in enumerate(trials):
            for g, tag in enumerate(tags.tolist()):
                alone = stream_states(seed, range(t, t + 1), tags[g:g + 1])
                np.testing.assert_array_equal(alone[0, 0], batch[i, g])
                _assert_seed_sequence_stream((seed, 0, t, *tag), alone[0, 0])
        # a block past 0 takes the entries its trials get in a block from 0
        np.testing.assert_array_equal(stream_states(seed, range(61, 70), tags),
                                      stream_states(seed, range(70), tags)[61:])


@pytest.mark.parametrize("seed", [-1, -2 ** 64], ids=["seed", "wide_seed"])
def test_stream_states_reject_negative_components(seed):
    with pytest.raises(ValueError):
        stream_states(seed, range(1), np.array([(0, 1)]))


_TWO_SURFACES = [
    RisDescriptor(position=Point3(70.0, 30.0, 1.5), n_elements=16, amplitude=0.7,
                  orient=Orientation(plane=Plane.XZ, tilt_rad=-0.3)),
    RisDescriptor(position=Point3(74.0, 30.0, 2.5), n_elements=64),
]
_TWO_USERS = [Point3(70.0, 32.0, 1.0), Point3(70.0, 35.0, 1.0)]
# a yz-surface straight above the first user: its sightline is exactly
# grazing, so that user's surface -> receiver coefficient is 0
_GRAZING = [RisDescriptor(position=Point3(75.0, 35.0, 2.0), n_elements=16,
                          orient=Orientation(plane=Plane.YZ))]
_GRAZED_USERS = [Point3(75.0, 35.0, 1.0), Point3(70.0, 35.0, 1.0)]


@pytest.mark.parametrize("overrides", [
    {}, {"rx": _TWO_USERS, "ris_list": _TWO_SURFACES, "offblock": "exclude"},
], ids=["one_user_one_surface", "two_users_two_surfaces"])
def test_trial_prefix_matches_shorter_run(overrides):
    # trial t draws from its own streams, so a longer run only appends trials
    short = run_scenario(_cfg(n_trials=25, **overrides))
    long = run_scenario(_cfg(n_trials=40, **overrides))
    for a, b in zip(short, long, strict=True):
        np.testing.assert_array_equal(a.rate_samples, b.rate_samples[:25])


@pytest.mark.parametrize("overrides", [
    {"rx": _TWO_USERS, "ris_list": _TWO_SURFACES, "offblock": "include"},
    {"rx": _TWO_USERS, "ris_list": _TWO_SURFACES, "offblock": "exclude"},
    {"ris_list": _TWO_SURFACES},
    {"resample_geometry": False},
    {"rx": _TWO_USERS, "ris_list": _TWO_SURFACES, "resample_geometry": False},
    {"ris_list": []},
    {"env": EnvironmentConfig(include_scatter=False)},
    {"ris_list": _TWO_SURFACES, "pl_nlos": NLOS0},
    {"rx": _TWO_USERS, "ris_list": _TWO_SURFACES, "pl_los": LOS0},
    {"ris_list": _TWO_SURFACES, "los_model": LosModel(mode=LosMode.NEVER)},
    {"rx": _GRAZED_USERS, "ris_list": _GRAZING, "offblock": "include"},
    {"rx": _GRAZED_USERS[::-1], "ris_list": _GRAZING, "offblock": "include"},
], ids=["two_users_include", "two_users_exclude", "two_surfaces_tilted",
        "frozen_geometry", "two_users_frozen", "no_surface", "no_scatter",
        "unshadowed_scatter", "unshadowed_sightlines", "los_never",
        "grazed_user_first", "grazed_user_second"])
def test_results_do_not_depend_on_block_size(monkeypatch, overrides):
    # clusters are placed, their paths' factors built, and trials co-phased
    # and combined a block at a time; every block size, including one that does
    # not divide the trial count, gives the same bytes
    cfg = _cfg(n_trials=23, **overrides)
    runs = []
    for block in (1, 7, cfg.n_trials):
        monkeypatch.setattr(experiments, "TRIAL_BLOCK", block)
        runs.append(run_scenario(cfg))
    for other in runs[1:]:
        for a, b in zip(runs[0], other, strict=True):
            assert a.rate_samples.tobytes() == b.rate_samples.tobytes()
            assert (a.rate_ci_low, a.rate_ci_high) == (b.rate_ci_low, b.rate_ci_high)


@pytest.mark.parametrize("sign", ["paper", "aligned"])
def test_one_user_closed_form_matches_phases_route(monkeypatch, sign):
    # h_eff = h_d + e^{-j s arg h_d} sum_k amp_k |g_k||h_k|, with |g_k| its
    # surface's |c|, equals co-phasing the full g with optimal_phases and
    # summing with effective_channel, also where the direct link is zero
    # (arg 0 = 0) and a surface reflects with amplitude 0.7.  Without scatter
    # the receiver, 76 m off and below the transmitter, hears it with
    # probability 0.08.  h and h_d are the block's rows; g comes from
    # ris_rx_channel on the same streams.
    blocks = {"h": [], "h_d": [], "h_eff": []}

    def keep(name, fn, pick):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            blocks[name].append(pick(out).copy())
            return out
        return wrapped

    for name, attr, pick in (("h", "tx_ris_channel", lambda out: out[0]),
                             ("h_d", "direct_block", lambda out: out[:, 0])):
        monkeypatch.setattr(experiments, attr, keep(name, getattr(experiments, attr), pick))
    summarize = experiments.summarize

    def keep_h_eff(h_eff, *args, **kwargs):
        blocks["h_eff"].append(h_eff.copy())
        return summarize(h_eff, *args, **kwargs)

    monkeypatch.setattr(experiments, "summarize", keep_h_eff)
    cfg = _cfg(ris_list=_TWO_SURFACES, n_trials=40, direct_phase_sign=sign,
               env=EnvironmentConfig(include_scatter=False))
    run_scenario(cfg)

    h = np.array([np.concatenate(blocks["h"][2 * t:2 * t + 2]) for t in range(40)])
    h_d = np.concatenate(blocks["h_d"])
    g = np.array([np.concatenate([ris_rx_channel(ris, RX, LOS_73GHZ, cfg.freq_hz,
                                                 _stream(7, t, 3, m, 0))
                                  for m, ris in enumerate(_TWO_SURFACES)])
                  for t in range(40)])
    assert 0 < (h_d != 0).sum() < 40 and np.all(np.abs(h).sum(axis=1) > 0)
    amplitude = np.repeat([0.7, 1.0], [16, 64])
    phases = optimal_phases(g, h, h_d[:, None], sign)
    coefficients = amplitude * np.exp(1j * phases)
    want = effective_channel(h_d[:, None], g[:, None], coefficients[:, None],
                             h[:, None])[:, 0]
    np.testing.assert_allclose(blocks["h_eff"][0], want, rtol=1e-13, atol=0)


def _per_trial_rates(cfg) -> list[np.ndarray]:
    """cfg's rate samples assembled trial by trial from the public link
    functions on run_scenario's streams, co-phased element by element for
    its owner with optimal_phases and summed with effective_channel."""
    users, surfaces, env = cfg.rx, cfg.ris_list, cfg.env
    anchors = [r.position for r in surfaces] or [users[0]]

    def rng(*key):
        return _stream(cfg.master_seed, *key)

    def placed(m, draws):
        return place_clusters([draws], cfg.tx, anchors[m], [])   # direct_channel takes rx

    base = [placed(m, sample_clusters(env, rng(0, 5, m)))
            for m in range(len(anchors))] if not cfg.resample_geometry else None
    owner = np.concatenate([partition_elements(r.n_elements, len(users)) for r in surfaces]
                           + [np.empty(0, dtype=int)])
    amplitude = np.repeat([r.amplitude for r in surfaces], [r.n_elements for r in surfaces])
    serves = owner == np.arange(len(users))[:, None] \
        if cfg.offblock == "exclude" and len(users) > 1 else None
    h_eff = []
    for t in range(cfg.n_trials):
        if cfg.resample_geometry:
            places = [placed(m, sample_clusters(env, rng(t, 1, m)))
                      for m in range(len(anchors))]
        else:   # fresh gains on the base geometry
            places = [p._replace(gains=complex_normal(rng(t, 1, m), size=len(p.gains)))
                      for m, p in enumerate(base)]
        h = np.concatenate([np.empty(0, dtype=complex)] + [tx_ris_channel(
            ris, places[m], cfg.tx, cfg.pl_los, cfg.pl_nlos, cfg.los_model, cfg.freq_hz,
            rng(t, 2, m))[0]
            for m, ris in enumerate(surfaces)])
        g = np.array([np.concatenate([np.empty(0, dtype=complex)] + [ris_rx_channel(
            ris, rx, cfg.pl_los, cfg.freq_hz, rng(t, 3, m, u))
            for m, ris in enumerate(surfaces)]) for u, rx in enumerate(users)])
        h_d = np.array([direct_channel(
            places[0], cfg.tx, rx, cfg.pl_los, cfg.pl_nlos, cfg.los_model, cfg.freq_hz,
            rng(t, 4, u))[0]
            for u, rx in enumerate(users)])
        phases = np.empty(len(owner))
        for u in range(len(users)):
            mine = owner == u
            phases[mine] = optimal_phases(g[u, mine], h[mine], h_d[u], cfg.direct_phase_sign)
        heard = g if serves is None else g * serves
        h_eff.append(effective_channel(h_d, heard, amplitude * np.exp(1j * phases), h))
    h_eff = np.array(h_eff)
    return [summarize(h_eff[:, u], cfg.budget).rate_samples for u in range(len(users))]


@pytest.mark.parametrize("overrides", [
    {"n_elements": 64},
    {"rx": _TWO_USERS, "ris_list": _TWO_SURFACES, "offblock": "include"},
    {"rx": _TWO_USERS, "ris_list": _TWO_SURFACES, "offblock": "exclude"},
    {"rx": _TWO_USERS, "ris_list": _TWO_SURFACES, "resample_geometry": False},
    {"resample_geometry": False},
    {"ris_list": _TWO_SURFACES, "env": EnvironmentConfig(include_scatter=False)},
    {"rx": _TWO_USERS, "ris_list": _TWO_SURFACES, "pl_los": LOS0, "pl_nlos": NLOS0},
    {"ris_list": []},
    {"rx": _TWO_USERS, "ris_list": []},
    {"ris_list": _TWO_SURFACES, "direct_phase_sign": "aligned"},
    {"rx": _GRAZED_USERS, "ris_list": _GRAZING, "offblock": "include"},
    {"rx": _GRAZED_USERS[::-1], "ris_list": _GRAZING, "offblock": "include"},
], ids=["one_user_one_surface", "two_users_include", "two_users_exclude",
        "two_users_frozen", "frozen_geometry", "no_scatter", "unshadowed",
        "no_surface", "two_users_no_surface", "aligned", "grazed_user_first",
        "grazed_user_second"])
def test_run_scenario_matches_per_trial_links(overrides):
    # the block engine against every trial built alone from the public links
    cfg = _cfg(n_trials=23, **overrides)
    for got, want in zip(run_scenario(cfg), _per_trial_rates(cfg), strict=True):
        np.testing.assert_allclose(got.rate_samples, want, rtol=1e-12, atol=0)


def _coordinate(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _point(x, y, z):
    return st.builds(Point3, _coordinate(*x), _coordinate(*y), _coordinate(*z))


@st.composite
def _scenarios(draw):
    """Configs around the paper's hall: 0-3 surfaces of 4-64 elements on
    either plane, tilted to +-1.5 rad, 1-3 users, every sign, offblock and
    sightline mode, sigma 0 or not on either model, fresh or frozen
    geometry, four carriers, 1-9 trials and seeds up to 2^40."""
    surface = st.builds(
        RisDescriptor, position=_point((10, 80), (20, 40), (0, 5)),
        orient=st.builds(Orientation, plane=st.sampled_from(Plane),
                         tilt_axis=st.sampled_from([None, *TiltAxis]),
                         tilt_rad=_coordinate(-1.5, 1.5)),
        n_elements=st.sampled_from([4, 9, 16, 25, 36, 49, 64]),
        amplitude=st.sampled_from([1.0, 0.6]))
    env = st.builds(EnvironmentConfig, mean_clusters=_coordinate(0.1, 4),
                    max_scatterers_per_cluster=st.integers(1, 12),
                    include_scatter=st.booleans())
    return ScenarioConfig(
        tx=draw(_point((-5, 20), (10, 30), (0, 5))),
        rx=draw(st.lists(_point((30, 90), (20, 40), (0, 5)), min_size=1, max_size=3)),
        ris_list=draw(st.lists(surface, max_size=3)),
        env=draw(env),
        freq_hz=draw(st.sampled_from([28e9, 60e9, 73e9, 140e9])),
        pl_los=draw(st.sampled_from([LOS_73GHZ, LOS0])),
        pl_nlos=draw(st.sampled_from([NLOS_73GHZ, NLOS0])),
        los_model=draw(st.builds(LosModel, mode=st.sampled_from(LosMode),
                                 force_if_above_tx=st.booleans())),
        n_trials=draw(st.integers(1, 9)),
        master_seed=draw(st.integers(0, 2 ** 40)),
        direct_phase_sign=draw(st.sampled_from(["paper", "aligned"])),
        offblock=draw(st.sampled_from(["include", "exclude"])),
        resample_geometry=draw(st.booleans()))


@pytest.mark.filterwarnings("error")
@settings(max_examples=250, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_scenarios())
def test_run_scenario_matches_per_trial_links_on_any_accepted_config(cfg):
    # the fixed cases above, over whatever validate accepts
    try:
        accepted = not validate(cfg)
    except ConfigError:
        accepted = False
    assume(accepted)
    for got, want in zip(run_scenario(cfg), _per_trial_rates(cfg), strict=True):
        np.testing.assert_allclose(got.rate_samples, want, rtol=1e-12, atol=1e-15)


def test_block_size_fits_its_memory_budget():
    assert experiments.TRIAL_BLOCK <= 64
    assert experiments._block_size(1, [256]) == experiments.TRIAL_BLOCK
    assert experiments._block_size(1, []) == experiments.TRIAL_BLOCK
    assert experiments._block_size(
        experiments.MAX_USERS, [experiments.MAX_ELEMENTS]) == 1
    mean = experiments._expected_scatterers(EnvironmentConfig())
    for users, elements, scatterers in ((2, [256, 256], 0.0), (16, [4096], 0.0),
                                        (256, [256], 0.0), (1, [256], mean),
                                        (2, [16, 64], mean), (1, [], mean)):
        block = experiments._block_size(users, elements, scatterers)
        sides = sum(math.isqrt(n) for n in elements)
        # h and one working array of the combination, whatever the user count
        per_trial = 16 * (2 * sum(elements) + users) \
            + (16 * users + 2 * 16 * sides) * scatterers
        assert block == 1 or block * per_trial <= experiments._BLOCK_BYTES
    # each expected scatterer adds one distance and one direct shadow per
    # receiver and two side-long ramps per surface to a trial
    assert experiments._block_size(64, [16], 47.0) == \
        experiments._BLOCK_BYTES // (16 * (2 * 16 + 64) + (16 * 64 + 2 * 16 * 4) * 47) \
        < experiments._block_size(64, [16])


def _end_states(monkeypatch, cfg) -> dict:
    """Every stream run_scenario derives, keyed by its seed words, in its
    end state."""
    streams = {}
    derive = experiments.derived_rng

    def keep(state):
        key = np.asarray(state).tobytes()
        streams[key] = derive(state)
        return streams[key]

    monkeypatch.setattr(experiments, "derived_rng", keep)
    run_scenario(cfg)
    return {key: rng.bit_generator.state for key, rng in streams.items()}


def test_draw_counts_do_not_depend_on_lattice_or_tilt(monkeypatch):
    def cfg(n_elements, tilt):
        surfaces = [dataclasses.replace(
            ris, n_elements=n_elements,
            orient=dataclasses.replace(ris.orient, tilt_rad=tilt))
            for ris in _TWO_SURFACES]
        return _cfg(rx=_TWO_USERS, ris_list=surfaces, n_trials=12)

    base = _end_states(monkeypatch, cfg(16, 0.0))
    assert len(base) == 12 * (2 + 2 + 2 * 2 + 2) + 2
    assert _end_states(monkeypatch, cfg(256, 0.0)) == base
    assert _end_states(monkeypatch, cfg(16, -0.5)) == base
    # the streams are those of the documented keys (t, tag, surface[, user])
    seed = cfg(16, 0.0).master_seed
    keys = [(range(1), [(6, u) for u in range(2)]),
            (range(12), [(tag, m) for tag in (1, 2) for m in range(2)]
             + [(4, u) for u in range(2)]),
            (range(12), [(3, m, u) for m in range(2) for u in range(2)])]
    assert {s.tobytes() for trials, tags in keys
            for s in stream_states(seed, trials, np.array(tags)).reshape(-1, 4)} \
        == set(base)


@pytest.mark.parametrize("rx_z", [1.0, 3.0], ids=["rx_below_tx", "rx_above_tx"])
@pytest.mark.parametrize("force", [True, False], ids=["forced", "unforced"])
@pytest.mark.parametrize("mode", list(LosMode), ids=[m.value for m in LosMode])
def test_los_draws_keep_the_indicator_contract(monkeypatch, mode, force, rx_z):
    # every blockable stream, tx -> surface (t, 2, m) and direct (t, 4, u),
    # ends where its scatter shadows, then los_indicator on a copy of the
    # generator, then the sightline's shadow and eta if visible leave it:
    # ALWAYS and NEVER consume nothing, PROBABILISTIC one uniform, even where
    # force_if_above_tx makes p = 1 (the surface at 2.5 m over the tx at 2 m)
    los = LosModel(mode=mode, decay_length_m=40.0, force_if_above_tx=force)
    users = [dataclasses.replace(rx, z=rx_z) for rx in _TWO_USERS]
    cfg = _cfg(rx=users, ris_list=_TWO_SURFACES, n_trials=12, los_model=los)
    ends = _end_states(monkeypatch, cfg)
    seed, tx = cfg.master_seed, cfg.tx
    links = [(2, m, m, distance(tx, ris.position), ris.position.z)
             for m, ris in enumerate(_TWO_SURFACES)]
    links += [(4, u, 0, distance(tx, rx), rx.z) for u, rx in enumerate(users)]
    seen, certain = set(), False
    for t in range(12):
        for tag, k, anchor, dist, end_z in links:
            scatterers = len(sample_clusters(cfg.env, _stream(seed, t, 1, anchor)))
            rng = _stream(seed, t, tag, k)
            rng.standard_normal(scatterers)
            drawn = copy.deepcopy(rng)
            visible = los_indicator(los, dist, end_z, tx.z, drawn)
            if mode is LosMode.PROBABILISTIC:
                rng.random()
            assert drawn.bit_generator.state == rng.bit_generator.state
            if visible:
                drawn.normal()
                drawn.random()
            key = stream_states(seed, range(t, t + 1), np.array([(tag, k)]))[0, 0]
            assert ends[key.tobytes()] == drawn.bit_generator.state
            seen.add(visible)
            certain |= mode is LosMode.PROBABILISTIC \
                and los_probability(los, dist, end_z, tx.z) == 1.0
    assert seen == ({True, False} if mode is LosMode.PROBABILISTIC
                    else {mode is LosMode.ALWAYS})
    assert certain == (mode is LosMode.PROBABILISTIC and force)


def test_surface_coefficients_are_each_links(monkeypatch):
    # the (B, M, U) coefficients of a block, one expression over the run's
    # (M, U) gains, hold the bytes of Sightline.coefficient of link (u, m) on
    # the draws of its streams (t, 3, m, u), in ragged blocks of 4
    blocks = []

    def keep(*args):
        blocks.append(coefficients(*args))
        return blocks[-1]

    monkeypatch.setattr(experiments, "coefficients", keep)
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", 4)
    cfg = _cfg(rx=[*_TWO_USERS, RX], ris_list=_TWO_SURFACES, n_trials=9)
    run_scenario(cfg)
    c = np.concatenate(blocks)
    assert c.shape == (9, 2, 3) and len(blocks) == 3
    for m, ris in enumerate(_TWO_SURFACES):
        links = Sightline.towards(ris, [cfg.tx, *cfg.rx], cfg.pl_los, cfg.freq_hz)[1:]
        for u, link in enumerate(links):
            _, shadow, eta = np.array([
                sightline_draws(link, cfg.pl_los, _stream(cfg.master_seed, t, 3, m, u))
                for t in range(9)]).T
            assert c[:, m, u].tobytes() == link.coefficient(shadow, eta).tobytes()


@pytest.mark.parametrize("n_trials", [1, 7, experiments.TRIAL_BLOCK + 3])
@pytest.mark.parametrize("resample", [True, False], ids=["fresh", "frozen"])
def test_run_streams_are_trial_zero_keys(monkeypatch, n_trials, resample):
    # the run's own streams ride in block 0's stream pass: user u's bootstrap
    # generator is PCG64(SeedSequence((seed, 0, 0, 6, u))), and frozen
    # geometry draws anchor m's base from the (seed, 0, 0, 5, m) stream
    seed = 31
    boot, base = [], []
    bootstrap, sample = experiments.bootstrap_mean_ci, experiments.sample_clusters

    def keep_boot(samples, rng):
        boot.append(rng.bit_generator.state)
        return bootstrap(samples, rng=rng)

    def keep_sample(env, rng):
        state = rng.bit_generator.state
        base.append((state, sample(env, rng)))
        return base[-1][1]

    monkeypatch.setattr(experiments, "bootstrap_mean_ci", keep_boot)
    monkeypatch.setattr(experiments, "sample_clusters", keep_sample)
    cfg = _cfg(rx=_TWO_USERS, ris_list=_TWO_SURFACES, n_trials=n_trials, seed=seed,
               resample_geometry=resample)
    run_scenario(cfg)

    def stream(*tag):
        return np.random.default_rng(np.random.SeedSequence((seed, 0, 0, *tag)))

    assert boot == [stream(6, u).bit_generator.state for u in range(2)]
    anchors = [stream(5, m) for m in range(2)]
    if resample:   # every draw is a trial's, none the base streams'
        assert len(base) == 2 * n_trials
        assert not {str(a.bit_generator.state) for a in anchors} \
            & {str(state) for state, _ in base}
    else:
        assert [state for state, _ in base] == [a.bit_generator.state for a in anchors]
        for (_, got), rng in zip(base, anchors):
            want = sample(cfg.env, rng)
            assert [x.tobytes() for x in (got.sizes, got.uniforms, got.normals)] == \
                [x.tobytes() for x in (want.sizes, want.uniforms, want.normals)]


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
