import math

import numpy as np
import pytest

from risim.channel import direct_channel
from risim.environment import (
    ClusterDraws, ClusterSet, EnvironmentConfig, _aim_frame, complex_normal,
    place_clusters, rebind_receiver, resample_gains, sample_clusters,
)
from risim.geometry import Point3
from risim.propagation import (
    LOS_73GHZ, NLOS_73GHZ, LosMode, LosModel, wavelength, wavenumber,
)

TX = Point3(0.0, 20.0, 2.0)
SURFACE = Point3(75.0, 30.0, 2.0)
RX = Point3(75.0, 35.0, 1.0)


def _sample(seed=0, **cfg_kwargs):
    cfg = EnvironmentConfig(**cfg_kwargs)
    draws = sample_clusters(cfg, TX, SURFACE, np.random.default_rng(seed))
    return place_clusters([draws], TX, SURFACE, [RX]).sets[0][0]


def test_normalization_rule():
    cs = ClusterSet(
        positions=np.ones((25, 3)),
        gains=np.ones(25, dtype=complex),
        cluster_ids=np.zeros(25, dtype=int),
        d_from_tx=np.ones(25), d_to_surface=np.ones(25), d_to_rx=np.ones(25),
        cluster_sizes=(10, 15),
    )
    assert cs.normalization == 0.2
    assert cs.normalization ** 2 * len(cs) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        ClusterSet(np.ones((3, 3)), np.ones(3, dtype=complex),
                   np.zeros(3, dtype=int), np.ones(3), np.ones(3), np.ones(3),
                   cluster_sizes=(5,))


def test_empty_set():
    cs = _sample(include_scatter=False)
    assert len(cs) == 0
    assert cs.normalization == 0.0
    assert cs.n_clusters == 0


def test_cluster_floor():
    # Poisson(1e-9) is 0 essentially always; the floor keeps one cluster
    for seed in range(20):
        cs = _sample(seed=seed, mean_clusters=1e-9)
        assert cs.n_clusters == 1


def test_cluster_count_mean():
    """Sample mean of the cluster count tracks E[max(1, Poisson(3))]
    = 3 + exp(-3)."""
    rng = np.random.default_rng(99)
    cfg = EnvironmentConfig(max_scatterers_per_cluster=2)  # keep draws cheap
    counts = [len(sample_clusters(cfg, TX, SURFACE, rng).sizes)
              for _ in range(10_000)]
    assert np.mean(counts) == pytest.approx(3.0 + math.exp(-3.0), rel=0.03)


def test_scatterer_count_matches_sizes():
    cs = _sample(seed=3)
    assert len(cs) == sum(cs.cluster_sizes)
    assert cs.normalization == pytest.approx(math.sqrt(1.0 / len(cs)))
    ids, counts = np.unique(cs.cluster_ids, return_counts=True)
    assert list(counts) == list(cs.cluster_sizes)
    assert list(ids) == list(range(cs.n_clusters))


def test_distances_consistent_with_positions():
    cs = _sample(seed=4)
    np.testing.assert_allclose(
        cs.d_from_tx, np.linalg.norm(cs.positions - TX.as_array(), axis=1),
        atol=1e-9)
    np.testing.assert_allclose(
        cs.d_to_surface, np.linalg.norm(cs.positions - SURFACE.as_array(), axis=1),
        atol=1e-9)
    np.testing.assert_allclose(
        cs.d_to_rx, np.linalg.norm(cs.positions - RX.as_array(), axis=1),
        atol=1e-9)


def test_gain_second_moment():
    draws = complex_normal(np.random.default_rng(1), size=100_000)
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, rel=0.02)
    # circular symmetry: real/imag each carry half the power
    assert np.mean(draws.real ** 2) == pytest.approx(0.5, rel=0.05)
    assert abs(np.mean(draws)) < 0.02


def test_resample_gains_keeps_geometry():
    cs = _sample(seed=5)
    fresh = resample_gains(cs, np.random.default_rng(6))
    assert fresh.positions is cs.positions
    assert fresh.d_to_rx is cs.d_to_rx
    assert fresh.normalization == cs.normalization
    assert not np.array_equal(fresh.gains, cs.gains)


def test_rebind_receiver():
    cs = _sample(seed=7)
    other = Point3(10.0, 5.0, 1.0)
    moved = rebind_receiver(cs, other)
    assert moved.gains is cs.gains
    assert moved.d_from_tx is cs.d_from_tx
    np.testing.assert_allclose(
        moved.d_to_rx, np.linalg.norm(cs.positions - other.as_array(), axis=1),
        atol=1e-12)


def test_excess_phase_cases():
    """The direct link rotates each scatterer's gain by the excess phase
    k (d_to_surface - d_to_rx)."""
    k = wavenumber(73e9)
    lam = wavelength(73e9)
    gain = 0.7 * np.exp(1j * 0.4)

    def phase_offset(excess):
        cs = ClusterSet(
            positions=np.array([[10.0, 5.0, 1.0]]), gains=np.array([gain]),
            cluster_ids=np.array([0]), d_from_tx=np.array([1.0]),
            d_to_surface=np.array([5.0 + excess]), d_to_rx=np.array([5.0]),
            cluster_sizes=(1,),
        )
        d, visible = direct_channel(
            cs, Point3(0, 0, 0), Point3(20, 0, 0), LOS_73GHZ, NLOS_73GHZ,
            LosModel(mode=LosMode.NEVER), k, np.random.default_rng(0),
            shadow_scatter=False)
        assert not visible
        return np.angle(d * np.conj(gain))

    assert phase_offset(0.0) == pytest.approx(0.0, abs=1e-12)
    assert phase_offset(lam) == pytest.approx(0.0, abs=1e-9)
    assert phase_offset(lam / 4) == pytest.approx(math.pi / 2, abs=1e-9)


def test_degenerate_geometry_raises():
    with pytest.raises(ValueError):
        sample_clusters(EnvironmentConfig(), TX, TX, np.random.default_rng(0))
    draws = sample_clusters(EnvironmentConfig(), TX, SURFACE, np.random.default_rng(0))
    with pytest.raises(ValueError):
        place_clusters([draws], TX, TX, [RX])


def test_config_validation():
    with pytest.raises(ValueError):
        EnvironmentConfig(mean_clusters=0.0)
    with pytest.raises(ValueError):
        EnvironmentConfig(max_scatterers_per_cluster=0)
    with pytest.raises(ValueError):
        EnvironmentConfig(min_range_m=0.0)


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
    draws = sample_clusters(EnvironmentConfig(), TX, SURFACE, np.random.default_rng(3))
    assert isinstance(draws, ClusterDraws)
    assert len(draws) == draws.sizes.sum() == len(draws.az_offsets) == len(draws.gains)
    assert len(sample_clusters(EnvironmentConfig(include_scatter=False), TX, SURFACE,
                               np.random.default_rng(3))) == 0


_FIELDS = ("positions", "gains", "cluster_ids", "d_from_tx", "d_to_surface", "d_to_rx")


@pytest.mark.parametrize("env", [
    EnvironmentConfig(), EnvironmentConfig(include_scatter=False),
    EnvironmentConfig(elevation_spread_deg=80.0),
], ids=["default", "no_scatter", "clipped_elevations"])
@pytest.mark.parametrize("anchor", [SURFACE, Point3(70.0, 30.0, 1.5)],
                         ids=["anchor_a", "anchor_b"])
def test_a_block_places_each_trial_as_it_places_alone(env, anchor):
    receivers = [RX, Point3(70.0, 32.0, 1.0)]
    draws = [sample_clusters(env, TX, anchor, np.random.default_rng(seed))
             for seed in range(30)]
    if env.elevation_spread_deg > 45.0:   # some elevations reach the clip
        assert any(np.abs(d.mean_el.repeat(d.sizes) + d.el_offsets).max() > np.pi / 2
                   for d in draws)
    alone = [place_clusters([d], TX, anchor, receivers).sets for d in draws]
    for block in (1, 7, 23):   # 7 and 23 leave a ragged last block
        for start in range(0, len(draws), block):
            placed = place_clusters(draws[start:start + block], TX, anchor, receivers)
            assert np.diff(placed.edges).tolist() == [
                len(d) for d in draws[start:start + block]]
            for i, lo in enumerate(placed.edges[:-1]):
                for u in range(len(receivers)):
                    got, want = placed.sets[u][i], alone[start + i][u][0]
                    for name in _FIELDS:
                        a, b = getattr(got, name), getattr(want, name)
                        assert a.dtype == b.dtype and a.shape == b.shape
                        assert a.tobytes() == b.tobytes(), name
                    assert got.cluster_sizes == want.cluster_sizes
                    assert got.normalization == want.normalization
                assert placed.positions[lo:lo + len(got)].tobytes() == \
                    got.positions.tobytes()
    # every receiver's distances are rebind_receiver's, bit for bit
    for (first, other) in alone:
        moved = rebind_receiver(first[0], receivers[1])
        assert moved.d_to_rx.tobytes() == other[0].d_to_rx.tobytes()
