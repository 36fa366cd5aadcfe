import dataclasses
import math

import numpy as np
import pytest

from risim.channel import _weights, direct_channel
from risim.environment import (
    ClusterDraws, EnvironmentConfig, Placement, _aim_frame, complex_normal,
    place_clusters, rebind_receiver, sample_clusters,
)
from risim.geometry import Point3
from risim.propagation import (
    LOS_73GHZ, NLOS_73GHZ, LosMode, LosModel, wavelength,
)

TX = Point3(0.0, 20.0, 2.0)
SURFACE = Point3(75.0, 30.0, 2.0)
RX = Point3(75.0, 35.0, 1.0)


def _draw(seed=0, **cfg_kwargs):
    return sample_clusters(EnvironmentConfig(**cfg_kwargs), np.random.default_rng(seed))


def _sample(seed=0, **cfg_kwargs):
    return place_clusters([_draw(seed, **cfg_kwargs)], TX, SURFACE, [RX])


def _ones(edges):
    """A Placement of unit gains whose trials span edges; no geometry."""
    return Placement(None, np.ones(edges[-1], dtype=complex), None, None, [], edges)


def test_normalization_rule():
    # each trial's path weights: normalization sqrt(1 / S) times its S gains
    w = _weights(_ones([0, 25]))
    assert w[0] == 0.2
    assert w[0] ** 2 * len(w) == pytest.approx(1.0, abs=1e-15)
    assert len(_weights(_ones([0, 0]))) == 0
    # a block's trials, one of them empty, are normalized each by its own S
    block = _weights(_ones([0, 25, 25, 29]))
    np.testing.assert_array_equal(block, np.repeat([0.2, 0.5], [25, 4]))


def test_empty_set():
    draws = _draw(include_scatter=False)
    cs = place_clusters([draws], TX, SURFACE, [RX])
    assert len(cs.gains) == len(cs.positions) == len(cs.d_to_rx[0]) == 0
    assert cs.edges == [0, 0]
    assert len(draws.sizes) == 0


def test_cluster_floor():
    # Poisson(1e-9) is 0 essentially always; the floor keeps one cluster
    for seed in range(20):
        assert len(_draw(seed=seed, mean_clusters=1e-9).sizes) == 1


def test_cluster_count_mean():
    """Sample mean of the cluster count tracks E[max(1, Poisson(3))]
    = 3 + exp(-3)."""
    rng = np.random.default_rng(99)
    cfg = EnvironmentConfig(max_scatterers_per_cluster=2)  # keep draws cheap
    counts = [len(sample_clusters(cfg, rng).sizes) for _ in range(10_000)]
    assert np.mean(counts) == pytest.approx(3.0 + math.exp(-3.0), rel=0.03)


def test_scatterer_count_matches_sizes():
    draws = _draw(seed=3)
    cs = place_clusters([draws], TX, SURFACE, [RX])
    assert len(cs.gains) == len(cs.positions) == sum(draws.sizes)
    assert cs.edges == [0, len(draws)]
    # each cluster's scatterers sit at its range, U(min_range_m, |tx - surface|),
    # from the transmitter
    span = np.linalg.norm(SURFACE.as_array() - TX.as_array())
    ranges = 1.0 + (span - 1.0) * draws.uniforms[2]
    np.testing.assert_allclose(cs.d_from_tx, np.repeat(ranges, draws.sizes), rtol=1e-12)


def test_distances_consistent_with_positions():
    cs = _sample(seed=4)
    np.testing.assert_allclose(
        cs.d_from_tx, np.linalg.norm(cs.positions - TX.as_array(), axis=1),
        atol=1e-9)
    np.testing.assert_allclose(
        cs.d_to_surface, np.linalg.norm(cs.positions - SURFACE.as_array(), axis=1),
        atol=1e-9)
    np.testing.assert_allclose(
        cs.d_to_rx[0], np.linalg.norm(cs.positions - RX.as_array(), axis=1),
        atol=1e-9)


def test_gain_second_moment():
    draws = complex_normal(np.random.default_rng(1), size=100_000)
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, rel=0.02)
    # circular symmetry: real/imag each carry half the power
    assert np.mean(draws.real ** 2) == pytest.approx(0.5, rel=0.05)
    assert abs(np.mean(draws)) < 0.02


def test_rebind_receiver():
    cs = _sample(seed=7)
    other = Point3(10.0, 5.0, 1.0)
    moved = rebind_receiver(cs, other)
    assert moved.gains is cs.gains
    assert moved.d_from_tx is cs.d_from_tx
    np.testing.assert_allclose(
        moved.d_to_rx[0], np.linalg.norm(cs.positions - other.as_array(), axis=1),
        atol=1e-12)


def test_excess_phase_cases():
    """The direct link rotates each scatterer's gain by the excess phase
    k (d_to_surface - d_to_rx)."""
    lam = wavelength(73e9)
    nlos = dataclasses.replace(NLOS_73GHZ, shadow_sigma_db=0.0)
    gain = 0.7 * np.exp(1j * 0.4)

    def phase_offset(excess):
        cs = Placement(   # 5 m from the receiver at (20, 0, 0)
            positions=np.array([[15.0, 0.0, 0.0]]), gains=np.array([gain]),
            d_from_tx=np.array([1.0]), d_to_surface=np.array([5.0 + excess]),
            d_to_rx=[], edges=[0, 1],
        )
        d, visible = direct_channel(
            cs, Point3(0, 0, 0), Point3(20, 0, 0), LOS_73GHZ, nlos,
            LosModel(mode=LosMode.NEVER), 73e9, np.random.default_rng(0))
        assert not visible
        return np.angle(d * np.conj(gain))

    assert phase_offset(0.0) == pytest.approx(0.0, abs=1e-12)
    assert phase_offset(lam) == pytest.approx(0.0, abs=1e-9)
    assert phase_offset(lam / 4) == pytest.approx(math.pi / 2, abs=1e-9)


def test_degenerate_geometry_raises():
    draws = sample_clusters(EnvironmentConfig(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        place_clusters([draws], TX, TX, [RX])


def test_config_validation():
    with pytest.raises(ValueError):
        EnvironmentConfig(mean_clusters=0.0)
    with pytest.raises(ValueError):
        EnvironmentConfig(max_scatterers_per_cluster=0)
    with pytest.raises(ValueError):
        EnvironmentConfig(min_range_m=0.0)
    for name in ("azimuth_spread_deg", "elevation_spread_deg",
                 "cluster_azimuth_limit_deg", "cluster_elevation_limit_deg"):
        EnvironmentConfig(**{name: 0.0})
        with pytest.raises(ValueError, match=name):
            EnvironmentConfig(**{name: -1.0})


@pytest.mark.parametrize("name", ["azimuth_spread_deg", "elevation_spread_deg",
                                  "cluster_azimuth_limit_deg",
                                  "cluster_elevation_limit_deg"])
def test_nan_angle_is_rejected(name):
    """A nan angle fails its sign check: passed on, it made scatterer
    positions nan and the run died in pathloss."""
    with pytest.raises(ValueError, match=name):
        EnvironmentConfig(**{name: math.nan})


def test_elevations_physical():
    # spread wide enough to hit the clip; positions must stay finite
    cs = _sample(seed=9, elevation_spread_deg=80.0)
    assert np.all(np.isfinite(cs.positions))
    assert np.all(cs.d_from_tx > 0)


def test_aim_frame_matches_cross_product_construction():
    """Rows are orthonormal and equal the np.cross construction, including
    the fixed right axis when the aim is vertical."""
    def reference(tx, anchor):
        forward = (anchor - tx) / np.linalg.norm(anchor - tx)
        right = np.cross(forward, [0.0, 0.0, 1.0])
        if np.linalg.norm(right) < 1e-12:
            right = np.array([1.0, 0.0, 0.0])
        right = right / np.linalg.norm(right)
        return np.vstack([forward, right, np.cross(right, forward)])

    rng = np.random.default_rng(11)
    pairs = [(rng.normal(size=3) * 50, rng.normal(size=3) * 50) for _ in range(500)]
    pairs += [(np.array([1.0, 2.0, 0.5]), np.array([1.0, 2.0, z])) for z in (4.0, -3.0)]
    for tx, anchor in pairs:
        frame = _aim_frame(tx, anchor)
        np.testing.assert_allclose(frame @ frame.T, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(frame, reference(tx, anchor), atol=1e-15)
    np.testing.assert_array_equal(_aim_frame(*pairs[-1])[1], [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        _aim_frame(np.ones(3), np.ones(3))


def test_draw_record_counts_its_scatterers():
    draws = sample_clusters(EnvironmentConfig(), np.random.default_rng(3))
    assert isinstance(draws, ClusterDraws)
    assert len(draws) == draws.sizes.sum() > 0
    assert draws.uniforms.shape == (3, len(draws.sizes))
    assert draws.normals.shape == (4, len(draws))
    assert len(sample_clusters(EnvironmentConfig(include_scatter=False),
                               np.random.default_rng(3))) == 0


_FIELDS = ("positions", "gains", "d_from_tx", "d_to_surface")


@pytest.mark.parametrize("env", [
    EnvironmentConfig(), EnvironmentConfig(include_scatter=False),
    EnvironmentConfig(elevation_spread_deg=80.0),
], ids=["default", "no_scatter", "clipped_elevations"])
@pytest.mark.parametrize("anchor", [SURFACE, Point3(70.0, 30.0, 1.5)],
                         ids=["anchor_a", "anchor_b"])
def test_a_block_places_each_trial_as_it_places_alone(env, anchor):
    receivers = [RX, Point3(70.0, 32.0, 1.0)]
    draws = [sample_clusters(env, np.random.default_rng(seed)) for seed in range(30)]
    if env.elevation_spread_deg > 45.0:   # some elevations reach the clip
        el_lim = math.radians(env.cluster_elevation_limit_deg)
        spread = math.radians(env.elevation_spread_deg)
        mean_el = [-el_lim + 2 * el_lim * d.uniforms[1] for d in draws]
        assert any(np.abs(m.repeat(d.sizes) + spread * d.normals[1]).max() > np.pi / 2
                   for m, d in zip(mean_el, draws))
    alone = [place_clusters([d], TX, anchor, receivers) for d in draws]
    for block in (1, 7, 23):   # 7 and 23 leave a ragged last block
        for start in range(0, len(draws), block):
            placed = place_clusters(draws[start:start + block], TX, anchor, receivers)
            assert np.diff(placed.edges).tolist() == [
                len(d) for d in draws[start:start + block]]
            for i, (lo, hi) in enumerate(zip(placed.edges, placed.edges[1:])):
                want = alone[start + i]
                fields = [(name, getattr(placed, name), getattr(want, name))
                          for name in _FIELDS]
                fields += [(f"d_to_rx[{u}]", a, b)
                           for u, (a, b) in enumerate(zip(placed.d_to_rx, want.d_to_rx))]
                assert len(fields) == len(_FIELDS) + len(receivers)
                for name, a, b in fields:
                    assert a.dtype == b.dtype and a[lo:hi].shape == b.shape
                    assert a[lo:hi].tobytes() == b.tobytes(), name
    # every receiver's distances are rebind_receiver's, bit for bit
    for p in alone:
        moved = rebind_receiver(p, receivers[1])
        assert moved.d_to_rx[0].tobytes() == p.d_to_rx[1].tobytes()


def _sampler_draws(cfg, anchor, rng):
    """One trial's cluster draws as numpy's samplers make them, mapped:
    (sizes, mean azimuths, mean elevations, ranges, azimuth and elevation
    offsets, gains)."""
    n = max(1, int(rng.poisson(cfg.mean_clusters)))
    sizes = rng.integers(1, cfg.max_scatterers_per_cluster + 1, size=n)
    az_lim = math.radians(cfg.cluster_azimuth_limit_deg)
    el_lim = math.radians(cfg.cluster_elevation_limit_deg)
    mean_az = rng.uniform(-az_lim, az_lim, size=n)
    mean_el = rng.uniform(-el_lim, el_lim, size=n)
    span = float(np.linalg.norm(anchor.as_array() - TX.as_array()))
    ranges = rng.uniform(cfg.min_range_m, max(span, cfg.min_range_m * (1.0 + 1e-9)), size=n)
    total = int(sizes.sum())
    az = rng.normal(0.0, math.radians(cfg.azimuth_spread_deg), size=total)
    el = rng.normal(0.0, math.radians(cfg.elevation_spread_deg), size=total)
    return [sizes, mean_az, mean_el, ranges, az, el, _sampler_gains(rng, total)]


def _sampler_gains(rng, size):
    re, im = rng.normal(0.0, math.sqrt(0.5), size=(2, size))
    return re + 1j * im


def _sampler_placement(draws, anchor, receivers):
    """(positions, gains, distances) of mapped draws, placed as place_clusters
    places them."""
    sizes, mean_az, mean_el, ranges, az_off, el_off, gains = map(np.concatenate, zip(*draws))
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    az = mean_az[cluster] + az_off
    el = (mean_el[cluster] + el_off).clip(-np.pi / 2, np.pi / 2)
    local = np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])
    frame = _aim_frame(TX.as_array(), anchor.as_array())
    xyz = TX.as_array()[:, None] + ranges[cluster] * (frame.T @ local)
    rel = [xyz - end.as_array()[:, None] for end in (TX, anchor, *receivers)]
    return [xyz.T, gains] + [np.sqrt(r[0] * r[0] + r[1] * r[1] + r[2] * r[2]) for r in rel]


@pytest.mark.parametrize("env, frozen", [
    (EnvironmentConfig(), False), (EnvironmentConfig(include_scatter=False), False),
    (EnvironmentConfig(elevation_spread_deg=80.0), False),
    (EnvironmentConfig(min_range_m=200.0), False), (EnvironmentConfig(), True),
], ids=["default", "no_scatter", "clipped_elevations", "range_past_span", "frozen"])
def test_raw_variates_place_with_the_samplers_bits(env, frozen):
    """The raw variates, mapped per block, give every placed array the bits
    of numpy's uniform and normal samplers, and leave each stream where
    those samplers leave it.  Frozen trials redraw only the base draws'
    gains, as complex_normal does."""
    receivers = [RX, Point3(70.0, 32.0, 1.0)]
    if frozen:
        base_new = sample_clusters(env, np.random.default_rng(10**6))
        base_old = _sampler_draws(env, SURFACE, np.random.default_rng(10**6))
    no_draws = [np.empty(0, dtype=int)] + [np.empty(0)] * 5 + [np.empty(0, dtype=complex)]
    new, old = [], []
    for seed in range(200):
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        if frozen:
            new.append(base_new.with_fresh_gains(rng_new))
            old.append(base_old[:6] + [_sampler_gains(rng_old, len(base_new))])
        else:
            new.append(sample_clusters(env, rng_new))
            old.append(_sampler_draws(env, SURFACE, rng_old) if env.include_scatter
                       else no_draws)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
    placed = place_clusters(new, TX, SURFACE, receivers)
    assert placed.edges == np.cumsum([0] + [d[0].sum() for d in old]).tolist()
    assert (len(placed.gains) > 0) == env.include_scatter
    got = [placed.positions, placed.gains, placed.d_from_tx, placed.d_to_surface,
           *placed.d_to_rx]
    want = _sampler_placement(old, SURFACE, receivers)
    assert len(got) == len(want) == 6
    for name, a, b in zip(["positions", "gains", "d_from_tx", "d_to_surface",
                           "d_to_rx[0]", "d_to_rx[1]"], got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
