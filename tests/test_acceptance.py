"""Acceptance suite: one test per guaranteed behaviour of the simulator.

The terminal summary (see conftest.py) prints one PASS/FAIL line per test
here.  Monte Carlo comparisons share a master seed, so configurations see
common random numbers and their per-trial rate differences can be judged
with a paired bootstrap: we require the 5th percentile of the resampled
mean gap to stay above zero before calling an improvement real.
"""

import dataclasses
import math

import numpy as np
import pytest

from risim.channel import (
    RisDescriptor, Sightline, coefficients, ris_rx_channel, sightline_draws,
    surface_paths, tx_ris_channel,
)
from risim.cli import main as cli_main
from risim.environment import (
    EnvironmentConfig, complex_normal, place_clusters, sample_clusters,
)
from risim.experiments import ScenarioConfig, run_scenario
from risim.geometry import (
    Orientation, Plane, Point3, TiltAxis, angles_to_targets, distance,
    rotation_matrix, surface_basis,
)
from risim.metrics import LinkBudget, effective_channel
from risim.propagation import (
    LOS_73GHZ, NLOS_73GHZ, LosModel, los_indicator, pathloss_db,
    sample_shadow,
)
from risim.riscontrol import optimal_phases

F73 = 73e9
TX = Point3(0.0, 20.0, 2.0)
RX_MAIN = ((75.0, 35.0, 1.0),)
TRIALS = 10_000
SEED = 4242

_cache: dict = {}


def _run(surfaces, pt_dbm, rx=RX_MAIN, trials=TRIALS):
    """Cached scenario run; surfaces is a tuple of ((x, y, z), n, tilt)."""
    key = (surfaces, pt_dbm, rx, trials)
    if key not in _cache:
        ris_list = [
            RisDescriptor(position=Point3(*pos), n_elements=n,
                          orient=Orientation(tilt_rad=tilt))
            for pos, n, tilt in surfaces
        ]
        cfg = ScenarioConfig(
            tx=TX, rx=[Point3(*r) for r in rx], ris_list=ris_list,
            budget=LinkBudget(tx_power_dbm=pt_dbm, noise_power_dbm=-100.0),
            n_trials=trials, master_seed=SEED)
        _cache[key] = run_scenario(cfg)
    return _cache[key]


def _gap_lo5(better, worse, seed=0):
    """5th percentile of 1000 bootstrap means of the paired rate gap."""
    diff = better.rate_samples - worse.rate_samples
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(diff), size=(1000, len(diff)))
    return float(np.quantile(diff[idx].mean(axis=1), 0.05))


def test_01_pathloss_anchor_values():
    assert pathloss_db(LOS_73GHZ, F73, 1.0) == pytest.approx(-69.71, abs=0.01)
    assert pathloss_db(NLOS_73GHZ, F73, 10.0) == pytest.approx(-101.61, abs=0.01)


def test_02_distances_and_angles_consistent():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        a, b, c = (Point3(*rng.uniform(-50.0, 50.0, size=3)) for _ in range(3))
        assert distance(a, b) == distance(b, a)
        assert distance(a, b) >= 0.0
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9

    # azimuth/elevation must reconstruct the unit vector to the target in
    # the surface's (possibly tilted) frame
    for _ in range(1000):
        centre = Point3(*rng.uniform(-20.0, 20.0, size=3))
        plane = Plane.XZ if rng.random() < 0.5 else Plane.YZ
        orient = Orientation(plane=plane, tilt_rad=float(rng.uniform(-1.2, 1.2)))
        offset = rng.uniform(-30.0, 30.0, size=3)
        if np.linalg.norm(offset) < 1e-6:
            continue
        target = Point3(*(centre.as_array() + offset))
        (az,), (el,) = angles_to_targets(centre, orient, target.as_array()[None, :])
        local_dir = np.array([
            math.cos(el) * math.sin(az),
            math.cos(el) * math.cos(az),
            math.sin(el),
        ])
        np.testing.assert_allclose(surface_basis(orient) @ local_dir,
                                   offset / np.linalg.norm(offset), atol=1e-9)


def test_03_zero_tilt_is_identity():
    # a zero tilt about either axis gives the untilted mount's response
    rng = np.random.default_rng(11)
    for _ in range(100):
        position = Point3(*rng.uniform(-5.0, 5.0, size=3))
        plane = Plane.XZ if rng.random() < 0.5 else Plane.YZ
        n = int(rng.choice([4, 16, 64, 256]))
        target = Point3(*rng.uniform(-30.0, 30.0, size=3))
        flat = Orientation(plane=plane)
        want = Sightline.between(RisDescriptor(position, flat, n), target,
                                 LOS_73GHZ, F73).resp
        for axis in TiltAxis:
            zero = Orientation(plane=plane, tilt_axis=axis, tilt_rad=0.0)
            got = Sightline.between(RisDescriptor(position, zero, n), target,
                                    LOS_73GHZ, F73).resp
            np.testing.assert_allclose(got, want, atol=1e-12)

    # and rotating an element forth and back is lossless
    for _ in range(100):
        p = rng.uniform(-3.0, 3.0, size=3)
        axis = TiltAxis.X if rng.random() < 0.5 else TiltAxis.Y
        t = float(rng.uniform(-math.pi, math.pi))
        back = rotation_matrix(axis, t) @ rotation_matrix(axis, -t) @ p
        np.testing.assert_allclose(back, p, atol=1e-12)


def test_04_cascade_power_scales_with_aperture_squared():
    # pure sightline hops, no shadowing (sigma 0), co-phased elements:
    # quadrupling the element count must multiply the cascaded power by 16
    los = dataclasses.replace(LOS_73GHZ, shadow_sigma_db=0.0)
    rx, surface = Point3(*RX_MAIN[0]), Point3(75.0, 30.0, 2.0)
    no_scatter = place_clusters([sample_clusters(
        EnvironmentConfig(include_scatter=False), np.random.default_rng(0))],
        TX, surface, [rx])
    powers = {}
    for n in (64, 256):
        ris = RisDescriptor(position=surface, n_elements=n)
        _, ez, ex = surface_paths(ris, no_scatter, NLOS_73GHZ, F73)   # no scatter path
        link = Sightline.between(ris, TX, los, F73)
        _, shadow, eta = sightline_draws(los, np.random.default_rng(1))
        h = tx_ris_channel(ris, no_scatter, (ez, ex), link,
                           coefficients(link.gain, shadow, eta))
        g = ris_rx_channel(ris, rx, los, F73, np.random.default_rng(2))
        cascaded = effective_channel(np.zeros(1), g[None],
                                     np.exp(1j * optimal_phases(g, h, 0.0)), h)
        powers[n] = abs(cascaded[0]) ** 2
    assert powers[256] / powers[64] == pytest.approx(16.0, rel=0.01)


def test_05_rate_climbs_with_element_count():
    surface = (75.0, 30.0, 2.0)
    free = _run((), 30.0)[0]
    n64 = _run(((surface, 64, 0.0),), 30.0)[0]
    n256 = _run(((surface, 256, 0.0),), 30.0)[0]
    print(f"ergodic rate b/s/Hz at 30 dBm: free {free.ergodic_rate:.3f}, "
          f"64 elements {n64.ergodic_rate:.3f}, "
          f"256 elements {n256.ergodic_rate:.3f}")
    assert free.ergodic_rate < n64.ergodic_rate < n256.ergodic_rate
    assert _gap_lo5(n64, free) > 0.0
    assert _gap_lo5(n256, n64) > 0.0


def test_06_placement_height_and_hall_endpoints():
    # mounting the surface higher than the receiver's head height helps
    low = _run((((75.0, 34.0, 1.0), 256, 0.0),), 30.0)[0]
    high = _run((((75.0, 34.0, 4.0), 256, 0.0),), 30.0)[0]
    assert high.ergodic_rate > low.ergodic_rate
    assert _gap_lo5(high, low) > 0.0

    # sliding along the hall: next to either end node beats the middle
    near_tx = _run((((20.0, 30.0, 2.0), 256, 0.0),), 30.0)[0]
    middle = _run((((47.5, 30.0, 2.0), 256, 0.0),), 30.0)[0]
    near_rx = _run((((75.0, 30.0, 2.0), 256, 0.0),), 30.0)[0]
    print(f"placement rates: x=20 {near_tx.ergodic_rate:.3f}, "
          f"x=47.5 {middle.ergodic_rate:.3f}, x=75 {near_rx.ergodic_rate:.3f}")
    assert near_tx.ergodic_rate > middle.ergodic_rate
    assert near_rx.ergodic_rate > middle.ergodic_rate
    assert _gap_lo5(near_tx, middle) > 0.0
    assert _gap_lo5(near_rx, middle) > 0.0


def test_07_second_surface_helps():
    p0, p1 = (75.0, 30.0, 2.0), (74.0, 30.0, 2.0)
    for pt in (25.0, 30.0):
        one = _run(((p0, 256, 0.0),), pt)[0]
        two = _run(((p0, 256, 0.0), (p1, 256, 0.0)), pt)[0]
        print(f"{pt:g} dBm, 256 elements: one surface {one.ergodic_rate:.3f}, "
              f"two surfaces {two.ergodic_rate:.3f}")
        assert two.ergodic_rate >= one.ergodic_rate
        assert _gap_lo5(two, one) > 0.0

    one = _run(((p0, 64, 0.0),), 30.0)[0]
    two = _run(((p0, 64, 0.0), (p1, 64, 0.0)), 30.0)[0]
    assert two.ergodic_rate > one.ergodic_rate
    assert _gap_lo5(two, one) > 0.0


def test_08_tilting_toward_receiver_helps():
    # surface at [70, 30, 2] over a receiver at [70, 35, 1]: pitch the
    # boresight down onto the receiver's direction (elevation -11.31 deg)
    pivot = (70.0, 30.0, 2.0)
    rx = ((70.0, 35.0, 1.0),)
    pointed_tilt = math.asin(-1.0 / math.sqrt(26.0))
    flat = _run(((pivot, 256, 0.0),), 15.0, rx=rx)[0]
    pointed = _run(((pivot, 256, pointed_tilt),), 15.0, rx=rx)[0]
    print(f"15 dBm: flat {flat.ergodic_rate:.4f}, "
          f"pointed {pointed.ergodic_rate:.4f}")
    assert pointed.ergodic_rate >= flat.ergodic_rate
    assert _gap_lo5(pointed, flat) > 0.0


def test_09_one_surface_serves_two_users():
    users = ((70.0, 32.0, 1.0), (70.0, 35.0, 1.0))
    shared = _run((((70.0, 30.0, 2.0), 256, 0.0),), 30.0, rx=users)
    free = _run((), 30.0, rx=users)
    for u in range(2):
        assert shared[u].ergodic_rate > free[u].ergodic_rate
        assert _gap_lo5(shared[u], free[u], seed=u) > 0.0
    print(f"per-user gains: {shared[0].ergodic_rate - free[0].ergodic_rate:.3f} "
          f"and {shared[1].ergodic_rate - free[1].ergodic_rate:.3f} b/s/Hz; "
          f"inter-user gap {shared[0].ergodic_rate - shared[1].ergodic_rate:.3f}")


def test_10_bitwise_reproducible_runs(tmp_path):
    outs = []
    for i, extra in enumerate(([], [], ["--threads", "4"])):
        out = tmp_path / f"run{i}"
        code = cli_main(["figure", "F3", "--seed", "42", "--trials", "40",
                         "--out", str(out), *extra])
        assert code == 0
        outs.append(out)
    for name in ("f3_height.csv", "f3_along.csv"):
        blobs = [(o / name).read_bytes() for o in outs]
        assert blobs[0] == blobs[1], f"{name} differs between identical runs"
        assert blobs[0] == blobs[2], f"{name} differs across thread counts"


def test_11_fading_and_blockage_statistics():
    rng = np.random.default_rng(1729)
    beta = complex_normal(rng, size=100_000)
    assert np.mean(np.abs(beta) ** 2) == pytest.approx(1.0, rel=0.02)

    shadows = sample_shadow(8.29, rng, size=100_000)
    assert np.std(shadows) == pytest.approx(8.29, rel=0.02)
    assert abs(np.mean(shadows)) < 0.1

    # exponential blockage at one decay length; the endpoint sits below the
    # transmitter so the always-visible shortcut cannot kick in
    model = LosModel()
    hits = np.mean([los_indicator(model, 30.0, 1.0, 2.0, rng)
                    for _ in range(100_000)])
    assert hits == pytest.approx(math.exp(-1.0), abs=0.01)
