import dataclasses
import math

import numpy as np
import pytest

from risim import experiments
from risim.channel import (
    _NEPERS_PER_DB, RisDescriptor, Sightline, _lattice_factors, _pattern_amp,
    coefficients, direct_block, direct_channel, direct_paths, ris_rx_channel,
    sightline_draws, surface_paths, tx_ris_channel,
)
from risim.environment import (
    EnvironmentConfig, Placement, complex_normal, place_clusters, sample_clusters,
)
from risim.geometry import (
    DegenerateGeometryError, Orientation, Plane, Point3, TiltAxis,
    angles_to_targets, directions_to_targets, surface_basis,
)
from risim.propagation import (
    LOS_73GHZ, NLOS_73GHZ, LosMode, LosModel, element_gain, pathloss_db,
    sample_shadow, visibility, wavelength, wavenumber,
)

F73 = 73e9
K73 = wavenumber(F73)
# unshadowed links: sigma = 0 scales every path by 10^(-0/20) = 1 exactly
LOS0 = dataclasses.replace(LOS_73GHZ, shadow_sigma_db=0.0)
NLOS0 = dataclasses.replace(NLOS_73GHZ, shadow_sigma_db=0.0)
ORIGIN = Point3(0.0, 0.0, 0.0)
ALWAYS = LosModel(mode=LosMode.ALWAYS)
NEVER = LosModel(mode=LosMode.NEVER)


def _placed(tx, surface, rx, seed, env=EnvironmentConfig()):
    """One trial's clusters anchored on surface, placed and seen from rx."""
    draws = sample_clusters(env, np.random.default_rng(seed))
    return place_clusters([draws], tx, surface, [rx])


NO_SCATTER = _placed(Point3(0, 20, 2), Point3(75, 30, 2), Point3(70, 35, 1), 0,
                     EnvironmentConfig(include_scatter=False))


def _ris(n=4, tilt=0.0, spacing=None, q=0.285):
    return RisDescriptor(position=ORIGIN, orient=Orientation(tilt_rad=tilt),
                         n_elements=n, spacing=spacing, pattern_exponent=q)


def _toward(ris, az, el, r=10.0):
    """The point r metres from ris at azimuth az and elevation el of its
    tilted frame."""
    local = [math.cos(el) * math.sin(az), math.cos(el) * math.cos(az), math.sin(el)]
    return Point3(*(ris.position.as_array() + r * surface_basis(ris.orient) @ local))


def _response(ris, target, freq_hz=F73):
    """The surface's (N,) response to target, as its sightlines steer."""
    return Sightline.between(ris, target, LOS_73GHZ, freq_hz).resp


def _eta(seed, normals):
    """The sightline phase a stream of seed draws after its first normals
    shadow draws: the scatter paths' and the sightline's, drawn even at
    sigma = 0."""
    rng = np.random.default_rng(seed)
    rng.standard_normal(normals)
    return rng.uniform(0.0, 2.0 * math.pi)


def _tx_ris(ris, clusters, tx, pl_los, pl_nlos, los, rng, paths=None):
    """(h, visible) of tx_ris_channel on draws taken from rng as run_scenario
    takes a tx -> surface stream: the S scatter shadows, each scaling its
    path by 10^(-s/20), then the sightline's, made into its coefficient.
    Unless passed, paths are built as run_scenario builds a block's, here
    from clusters, one trial's Placement."""
    if paths is None:
        scale, ez, ex = surface_paths(ris, clusters, pl_nlos, F73)
        sizes = np.diff(clusters.edges)
        paths = ez * (np.sqrt(1.0 / np.repeat(sizes, sizes)) * clusters.gains * scale), ex
    shadows = rng.normal(0.0, pl_nlos.shadow_sigma_db, paths[0].shape[-1])
    link = Sightline.between(ris, tx, pl_los, F73)
    seen, shadow, eta = sightline_draws(
        pl_los, rng, visibility(los, link.distance, ris.position.z, tx.z))
    wz = paths[0] * np.exp(shadows * -_NEPERS_PER_DB)
    coef = coefficients(link.gain, shadow, eta) if seen else None
    return tx_ris_channel(ris, clusters, (wz, paths[1]), link, coef), seen


def test_descriptor_validation():
    with pytest.raises(ValueError):
        RisDescriptor(position=ORIGIN, n_elements=60)   # not a square
    with pytest.raises(ValueError):
        RisDescriptor(position=ORIGIN, n_elements=0)
    with pytest.raises(ValueError):
        RisDescriptor(position=ORIGIN, spacing=0.0)
    with pytest.raises(ValueError):
        RisDescriptor(position=ORIGIN, amplitude=1.5)
    assert RisDescriptor(position=ORIGIN, n_elements=64).side == 8


def _exact_ramp(theta, side):
    """(side, M) exp(j x theta) with each x * theta carried exactly: theta
    splits into a 44-bit head and a short tail, both partial products are
    exact for x < 512, and only the exps and one complex product round.
    Rounding x * theta to one double instead would cost up to half an ulp
    of a phase of hundreds of radians, about 1e-13 on its own."""
    x = np.arange(side)[:, None]
    c = theta * (2.0 ** 9 + 1.0)
    head = c - (c - theta)
    tail = theta - head
    return np.exp(1j * (x * head)) * np.exp(1j * (x * tail))


@pytest.mark.parametrize("side", [1, 2, 3, 5, 16, 256])
@pytest.mark.parametrize("spacing", [None, 0.01], ids=["half_wavelength", "1cm"])
def test_lattice_ramps_match_direct_exp(side, spacing):
    # the ramps are built by doubling from one exp per direction
    rng = np.random.default_rng(side)
    az = np.concatenate([[0.0, math.pi / 2, -math.pi],
                         rng.uniform(-math.pi, math.pi, size=200)])
    el = np.concatenate([[0.0, math.pi / 2, -math.pi / 2],
                         rng.uniform(-math.pi / 2, math.pi / 2, size=200)])
    steps = np.stack([np.sin(el), np.sin(az) * np.cos(el)])
    ex, ez = _lattice_factors(_ris(side * side, spacing=spacing), steps, K73)
    d = spacing if spacing is not None else math.pi / K73
    for ramp, u in zip((ex, ez), steps):
        assert ramp.shape == (side, len(az))
        want = _exact_ramp(K73 * d * u, side)
        assert np.max(np.abs(ramp - want)) <= 1e-13   # |want| = 1


def test_response_broadside_is_ones():
    a = _response(_ris(16), _toward(_ris(16), 0.0, 0.0))
    np.testing.assert_allclose(a, np.ones(16), atol=1e-13)


def test_response_single_element():
    a = _response(_ris(1), _toward(_ris(1), 0.7, -0.3))
    np.testing.assert_allclose(a, [1.0 + 0.0j], atol=1e-13)


def test_response_hand_phases():
    # default spacing is half a wavelength so k d = pi; elevation pi/6
    # puts the x axis at pi/2 steps while the z axis stays flat
    a = _response(_ris(4), _toward(_ris(4), 0.0, math.pi / 6))
    got = np.angle(a)
    np.testing.assert_allclose(np.sort(got), [0.0, 0.0, math.pi / 2, math.pi / 2],
                               atol=1e-12)
    # documented scan order: x fastest within each z row
    np.testing.assert_allclose(got, [0.0, math.pi / 2, 0.0, math.pi / 2],
                               atol=1e-12)


def test_response_unit_modulus_and_leading_one():
    rng = np.random.default_rng(2)
    for _ in range(50):
        target = _toward(_ris(25), rng.uniform(-math.pi, math.pi), rng.uniform(-1.5, 1.5))
        a = _response(_ris(25), target)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
        assert a[0] == pytest.approx(1.0 + 0.0j, abs=1e-13)


def test_tilted_reduces_to_untilted_at_zero():
    # a zero tilt about either axis leaves the tilted-frame angles, and so
    # the response, as the untilted mount gives them
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.choice([1, 4, 16, 64]))
        plane = Plane(rng.choice(["xz", "yz"]))
        target = Point3(*rng.uniform(-30.0, 30.0, size=3))
        flat = Orientation(plane=plane)
        want = _response(RisDescriptor(ORIGIN, flat, n), target)
        for axis in TiltAxis:
            zero = Orientation(plane=plane, tilt_axis=axis, tilt_rad=0.0)
            np.testing.assert_allclose(_response(RisDescriptor(ORIGIN, zero, n), target),
                                       want, atol=1e-12)


def test_tilted_broadside_hand_phase():
    # angles are in the tilted frame, so broadside stays in phase across the
    # lattice whatever the tilt
    tilt = 0.3
    a = _response(_ris(4, tilt=tilt), _toward(_ris(4, tilt=tilt), 0.0, 0.0))
    np.testing.assert_allclose(np.angle(a), np.zeros(4), atol=1e-12)


def test_tilted_quarter_turn_swaps_axis():
    # R = pi/2 leaves the tilted-frame plane wave unchanged:
    # phase = k d (x sin(el) + z sin(az) cos(el))
    az, el = 0.25, 0.4
    ris = _ris(4, tilt=math.pi / 2)
    a = _response(ris, _toward(ris, az, el))
    xs, zs = np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])
    expect = math.pi * (xs * math.sin(el) + zs * math.sin(az) * math.cos(el))
    np.testing.assert_allclose(np.angle(a), expect, atol=1e-9)


def test_wavenumber_scaling_doubles_phases():
    # fixed physical pitch, doubled wavenumber -> exactly doubled phases
    ris = _ris(4, spacing=0.0005)
    target = _toward(ris, 0.2, 0.3)
    a1 = _response(ris, target)
    a2 = _response(ris, target, 2 * F73)
    assert wavenumber(2 * F73) == 2 * K73
    np.testing.assert_allclose(np.angle(a2), 2 * np.angle(a1), atol=1e-12)


def _reference_angles(surface, orient, targets):
    """Azimuth and elevation by arctan2 and arcsin of the global-frame norm."""
    rel = targets - surface.as_array()
    local = rel @ surface_basis(orient)
    el = np.arcsin((local[:, 2] / np.linalg.norm(rel, axis=1)).clip(-1.0, 1.0))
    return np.arctan2(local[:, 0], local[:, 1]), el


@pytest.mark.parametrize("q", [0.0, 0.285, 1.0])
def test_direction_cosines_match_the_angles(q):
    """Scatterers are steered from direction cosines: the ramp steps are
    sin(el) and sin(az) cos(el), and the paper's elevation pattern is
    2(2q+1) (u_x^2 + u_y^2)^q, the square of _pattern_amp, for targets on
    every side of either plane."""
    rng = np.random.default_rng(17)
    for plane in Plane:
        for axis in TiltAxis:
            orient = Orientation(plane, axis, rng.uniform(-math.pi, math.pi))
            surface = Point3(*rng.uniform(-5, 5, 3))
            targets = rng.uniform(-30, 30, size=(500, 3))
            u = directions_to_targets(surface, orient, targets)
            az, el = _reference_angles(surface, orient, targets)
            got_az, got_el = angles_to_targets(surface, orient, targets)
            np.testing.assert_allclose(got_az, az, rtol=0, atol=1e-14)
            np.testing.assert_allclose(got_el, el, rtol=0, atol=1e-13)
            np.testing.assert_allclose(u[2], np.sin(el), rtol=0, atol=1e-14)
            np.testing.assert_allclose(u[0], np.sin(az) * np.cos(el),
                                       rtol=0, atol=1e-14)
            cos2 = u[0] ** 2 + u[1] ** 2
            pattern = _pattern_amp(cos2, q) ** 2
            np.testing.assert_allclose(pattern, 2 * (2 * q + 1) * cos2 ** q,
                                       rtol=4e-15, atol=0)
            gain = element_gain(el, q)
            # Towards grazing (|u_z| -> 1) the angle path loses digits to
            # cancellation, as eps / cos^2(el): compare there relatively.
            off = np.abs(u[2]) <= 0.97
            np.testing.assert_allclose(pattern[off], gain[off], rtol=0, atol=1e-14)
            np.testing.assert_allclose(pattern[~off], gain[~off], rtol=1e-11)


def test_exact_grazing_has_no_pattern_gain():
    """A target straight below a yz-surface sits at exact grazing, where
    cos^2(el) = u_x^2 + u_y^2 is exactly 0: its sightline and a scatterer
    there get no gain for q > 0 (an arcsin/cos round trip gave 1.39e-8),
    and the flat q = 0 pattern keeps its gain."""
    below = Point3(75, 35, 1)
    one = Placement(below.as_array()[None, :], np.ones(1, dtype=complex),
                    np.array([10.0]), np.array([1.0]), [], [0, 1])
    for q in (0.0, 0.285, 1.0):
        ris = RisDescriptor(position=Point3(75, 35, 2), orient=Orientation(Plane.YZ),
                            pattern_exponent=q)
        gain = Sightline.between(ris, below, LOS_73GHZ, F73).gain
        scale = surface_paths(ris, one, NLOS_73GHZ, F73)[0]
        if q > 0:
            assert gain == 0.0 and scale[0] == 0.0
        else:
            assert gain > 0.0 and scale[0] > 0.0


@pytest.mark.parametrize("plane", [Plane.XZ, Plane.YZ])
@pytest.mark.parametrize("tilt", [0.0, 1.2, -1.2])
@pytest.mark.parametrize("n", [1, 4, 256])
def test_sightlines_towards_several_ends_have_the_bits_of_each_alone(plane, tilt, n):
    """Sightline.towards gives each endpoint the distance, gain and response
    bits that between gives it alone: endpoints on both sides of the plane
    (each with its mirror image), and one in the plane along the lattice's
    z axis: at grazing when untilted, where the gain stays exactly 0."""
    centre = Point3(75.0, 30.0, 2.0)
    ris = RisDescriptor(position=centre, orient=Orientation(plane, tilt_rad=tilt),
                        n_elements=n)
    basis = surface_basis(ris.orient)
    offsets = np.random.default_rng(n).normal(0.0, 20.0, size=(4, 3))
    mirrored = offsets - 2.0 * np.outer(offsets @ basis[:, 1], basis[:, 1])
    grazing = -3.0 * basis[:, 2]
    ends = [Point3(*(centre.as_array() + d)) for d in [*offsets, *mirrored, grazing]]
    links = Sightline.towards(ris, ends, LOS_73GHZ, F73)
    assert len(links) == len(ends)
    for end, link in zip(ends, links):
        alone = Sightline.between(ris, end, LOS_73GHZ, F73)
        assert (link.distance, link.gain) == (alone.distance, alone.gain)
        assert link.resp.shape == (n,) and link.resp.tobytes() == alone.resp.tobytes()
    if tilt == 0.0:
        assert links[-1].gain == 0.0


@pytest.mark.parametrize("plane, ends", [
    (Plane.XZ, [(75.0, 35.0, 1.0), (81.5, 36.25, 4.75)]),
    (Plane.YZ, [(80.0, 33.0, 1.0), (77.25, 21.5, 0.5)]),
])
def test_a_surface_serves_both_half_spaces(plane, ends):
    """Elements radiate into both half-spaces: the pattern reads cos^2(el) =
    u_x^2 + u_y^2, even in the normal component u_y, so an endpoint and its
    mirror image across the surface plane get the same sightline gain and
    response, and a scatterer there the same path factors.  Every canned
    xz-surface run has tx and rx on opposite sides of its surface's plane;
    a one-sided pattern would zero them all."""
    centre = Point3(75.0, 30.0, 2.0)
    ris = RisDescriptor(position=centre, orient=Orientation(plane), n_elements=64)
    normal = surface_basis(ris.orient)[:, 1]
    for end in ends:
        offset = np.array(end) - centre.as_array()
        mirror = centre.as_array() + offset - 2.0 * (offset @ normal) * normal
        pair = [Point3(*end), Point3(*mirror)]
        assert (pair[0].as_array() - centre.as_array()) @ normal > 0 > \
            (pair[1].as_array() - centre.as_array()) @ normal
        front, back = (Sightline.between(ris, p, LOS_73GHZ, F73) for p in pair)
        assert front.gain > 0.0
        assert (front.distance, front.gain) == (back.distance, back.gain)
        assert front.resp.tobytes() == back.resp.tobytes()
        scatterers = [Placement(p.as_array()[None, :], np.ones(1, dtype=complex),
                                np.array([10.0]), np.array([front.distance]), [], [0, 1])
                      for p in pair]
        paths = [surface_paths(ris, at, NLOS_73GHZ, F73) for at in scatterers]
        assert paths[0][0][0] > 0.0
        for a, b in zip(*paths):
            assert a.tobytes() == b.tobytes()


def test_scatterer_at_the_surface_centre_raises():
    tx, surface, rx = Point3(0, 20, 2), Point3(75, 30, 2), Point3(70, 35, 1)
    cs = _placed(tx, surface, rx, 2)
    positions = cs.positions.copy()
    positions[-1] = surface.as_array()
    bad = cs._replace(positions=positions)
    for tilt in (0.0, 0.4):
        ris = RisDescriptor(position=surface, orient=Orientation(tilt_rad=tilt))
        with pytest.raises(DegenerateGeometryError):
            _tx_ris(ris, bad, tx, LOS_73GHZ, NLOS_73GHZ, ALWAYS, np.random.default_rng(0))


def test_links_take_their_part_of_block_paths():
    """Fed one trial's part of a block's weighted surface_paths and, as
    run_scenario does, the trial's draws, tx_ris_channel returns the bytes
    it builds on its own from the trial placed alone; direct_block over a
    block's weighted direct_paths and each trial's draws gives every trial
    the bytes of direct_channel; each stream ends in the same state: two
    tilted surfaces, a ragged block, no scatter, and unshadowed (sigma = 0)
    scatter paths."""
    tx, rx = Point3(0, 20, 2), Point3(70, 35, 1)
    los = LosModel(decay_length_m=80.0)
    link = Sightline.direct(tx, rx, LOS_73GHZ, F73)
    rule = visibility(los, link.distance, rx.z, tx.z)
    surfaces = [
        RisDescriptor(position=Point3(70, 30, 1.5), n_elements=16,
                      orient=Orientation(Plane.XZ, tilt_rad=-0.3)),
        RisDescriptor(position=Point3(74, 30, 2.5), n_elements=64,
                      orient=Orientation(Plane.YZ, tilt_rad=0.4)),
    ]
    for env, nlos in ((EnvironmentConfig(), NLOS_73GHZ), (EnvironmentConfig(), NLOS0),
                      (EnvironmentConfig(include_scatter=False), NLOS_73GHZ)):
        for ris in surfaces:
            draws = [sample_clusters(env, np.random.default_rng((5, i))) for i in range(7)]
            placed = place_clusters(draws, tx, ris.position, [rx])
            sizes = np.diff(placed.edges)
            assert len(set(sizes)) > 1 if env.include_scatter else not sizes.any()
            # run_scenario's weights: each trial's normalization times the gains
            weights = np.sqrt(1.0 / np.repeat(sizes, sizes)) * placed.gains
            scale, ez, ex = surface_paths(ris, placed, nlos, F73)
            wz = np.multiply(ez, weights * scale, out=ez)
            direct = weights * direct_paths(placed, placed.d_to_rx[0], nlos, F73)
            alone, shadows, rows = [], [], []
            for i, (lo, hi) in enumerate(zip(placed.edges, placed.edges[1:])):
                trial = place_clusters([draws[i]], tx, ris.position, [rx])
                runs = []
                for clusters, paths in ((trial, None),
                                        (draws[i], (wz[:, lo:hi], ex[:, lo:hi]))):
                    rng = np.random.default_rng((9, i))
                    h, seen = _tx_ris(ris, clusters, tx, LOS_73GHZ, nlos, los, rng,
                                      paths=paths)
                    runs.append((h.tobytes(), seen, rng.bit_generator.state))
                assert runs[0] == runs[1]
                # the direct link alone, then its draws as run_scenario takes them
                rng = np.random.default_rng((8, i))
                alone.append(direct_channel(trial, tx, rx, LOS_73GHZ,
                                            nlos, los, F73, rng))
                end = rng.bit_generator.state
                rng = np.random.default_rng((8, i))
                shadows.append(sample_shadow(nlos.shadow_sigma_db, rng, size=hi - lo))
                rows.append(sightline_draws(LOS_73GHZ, rng, rule))
                assert rng.bit_generator.state == end
            block = direct_block(np.array([link.gain]), direct[None], placed.edges,
                                 np.concatenate(shadows)[None], np.array(rows)[:, None])[:, 0]
            assert [np.complex128(d).tobytes() for d, _ in alone] == \
                [d.tobytes() for d in block]
            assert [heard for _, heard in alone] == [row[0] for row in rows]
            assert any(row[0] for row in rows) and not all(row[0] for row in rows)


def _written_out_tx_link(ris, cfg, trial, shadows, draws):
    """Trial's (N,) transmitter -> surface vector written out per trial:
    its weighted ramps times 10^(-s/20) for its S shadows, one matmul, and
    where visible the sightline's coefficient, taken from Python floats,
    times its response."""
    placed = place_clusters([trial], cfg.tx, ris.position, [])
    scale, ez, ex = surface_paths(ris, placed, cfg.pl_nlos, cfg.freq_hz)
    weights = np.sqrt(1.0 / np.full(len(shadows), len(shadows))) * placed.gains
    wz = ez * (weights * scale) * np.exp(shadows * -_NEPERS_PER_DB)
    h = np.empty(ris.n_elements, dtype=complex)
    np.matmul(wz, ex.T, out=h.reshape(ris.side, ris.side))
    visible, shadow, eta = draws.tolist()
    if visible:
        link = Sightline.between(ris, cfg.tx, cfg.pl_los, cfg.freq_hz)
        h += coefficients(link.gain, shadow, eta) * link.resp
    return h


@pytest.mark.parametrize("sigma", [0.0, 8.0])
@pytest.mark.parametrize("scatter", [True, False], ids=["scatter", "no_scatter"])
@pytest.mark.parametrize("mode", list(LosMode))
def test_engine_tx_links_are_the_written_out_link(monkeypatch, sigma, scatter, mode):
    """Every row run_scenario builds, its shadows folded into a block's
    ramps and its sightline coefficients made per block, has the bytes of
    the trial's link written out per trial, on two tilted surfaces in
    blocks of 4, shadowed or not, with or without scatterers, and with the
    sightline seen in some trials and not others, always, or never."""
    surfaces = [
        RisDescriptor(position=Point3(70, 30, 1.5), n_elements=16,
                      orient=Orientation(Plane.XZ, tilt_rad=-0.3)),
        RisDescriptor(position=Point3(74, 30, 2.5), n_elements=64,
                      orient=Orientation(Plane.YZ, tilt_rad=0.4)),
    ]
    cfg = experiments.ScenarioConfig(
        tx=Point3(0, 20, 2), rx=[Point3(70, 35, 1)], ris_list=surfaces,
        env=EnvironmentConfig(include_scatter=scatter),
        pl_los=dataclasses.replace(LOS_73GHZ, shadow_sigma_db=sigma),
        pl_nlos=dataclasses.replace(NLOS_73GHZ, shadow_sigma_db=sigma),
        los_model=LosModel(mode, decay_length_m=80.0, force_if_above_tx=False),
        n_trials=10, master_seed=3)
    rows, records = [], []
    link, draw = experiments.tx_ris_channel, experiments.draw_block

    def keep_row(*args, **kwargs):
        rows.append(link(*args, **kwargs).copy())
        return rows[-1]

    def keep_record(*args):
        records.append(draw(*args))
        return records[-1]

    monkeypatch.setattr(experiments, "tx_ris_channel", keep_row)
    monkeypatch.setattr(experiments, "draw_block", keep_record)
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", 4)
    experiments.run_scenario(cfg)
    assert len(records) == 3 and len(rows) == 2 * 10
    want = []
    for record in records:
        for i in range(len(record.tx)):
            for m, ris in enumerate(surfaces):
                at = np.cumsum([0] + [len(d) for d in record.clusters[m]])
                want.append(_written_out_tx_link(
                    ris, cfg, record.clusters[m][i],
                    record.tx_shadows[m][at[i]:at[i + 1]], record.tx[i, m]))
    assert [h.tobytes() for h in rows] == [h.tobytes() for h in want]
    seen = np.concatenate([record.tx[:, :, 0] for record in records])
    sizes = np.concatenate([[len(d) for d in row] for r in records for row in r.clusters])
    assert sizes.all() if scatter else not sizes.any()
    for m in range(len(surfaces)):   # what each mode allows; PROBABILISTIC: both
        assert set(seen[:, m]) == {LosMode.ALWAYS: {1.0}, LosMode.NEVER: {0.0},
                                   LosMode.PROBABILISTIC: {0.0, 1.0}}[mode]


def test_direct_links_of_every_receiver_take_one_call():
    """direct_paths and direct_block over U receivers give each receiver the
    bytes of its own one-receiver call: a block with an empty scatter
    segment, and sightlines visible in some trials and not in others."""
    tx, surface = Point3(0, 20, 2), Point3(75, 30, 2)
    receivers = [Point3(70, 35, 1), Point3(60, 28, 1.5), Point3(75, 25, 3)]
    draws = [sample_clusters(EnvironmentConfig(), np.random.default_rng((4, i)))
             for i in range(6)]
    draws[2] = sample_clusters(EnvironmentConfig(include_scatter=False),
                               np.random.default_rng(0))
    placed = place_clusters(draws, tx, surface, receivers)
    assert np.diff(placed.edges)[2] == 0 and placed.edges[-1] > 0
    paths = direct_paths(placed, np.array(placed.d_to_rx), NLOS_73GHZ, F73)
    assert paths.shape == (3, placed.edges[-1])
    for u, d in enumerate(placed.d_to_rx):
        assert paths[u].tobytes() == direct_paths(placed, d, NLOS_73GHZ, F73).tobytes()
    rng = np.random.default_rng(12)
    shadows = sample_shadow(NLOS_73GHZ.shadow_sigma_db, rng, size=paths.shape)
    links = [Sightline.direct(tx, rx, LOS_73GHZ, F73) for rx in receivers]
    los = LosModel(decay_length_m=80.0)
    rows = np.array([[sightline_draws(LOS_73GHZ, rng,
                                      visibility(los, link.distance, rx.z, tx.z))
                      for link, rx in zip(links, receivers)] for _ in range(6)])
    assert 0 < rows[..., 0].sum() < rows[..., 0].size
    gains = np.array([link.gain for link in links])
    block = direct_block(gains, paths, placed.edges, shadows, rows)
    assert block.shape == (6, 3)
    for u in range(3):
        alone = direct_block(gains[u:u + 1], paths[u:u + 1], placed.edges,
                             shadows[u:u + 1], rows[:, u:u + 1])
        assert alone[:, 0].tobytes() == block[:, u].tobytes()


def test_phase_draw_has_the_bits_of_a_uniform_draw():
    """A sightline's phase 2 pi U from rng.random() is bit for bit
    rng.uniform(0, 2 pi), which numpy computes as low + (high - low) U; a
    numpy release that changed either would move every phase, and fails here."""
    link = Sightline.direct(ORIGIN, Point3(3.0, 4.0, 0.0), LOS_73GHZ, F73)
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert [2.0 * math.pi * rng.random() for _ in range(3)] == \
            [ref.uniform(0.0, 2.0 * math.pi) for _ in range(3)]
        _, shadow, eta = sightline_draws(LOS_73GHZ, rng)
        assert (shadow, eta) == (ref.normal(0.0, LOS_73GHZ.shadow_sigma_db),
                                 ref.uniform(0.0, 2.0 * math.pi))


def test_tx_ris_zero_when_fully_blocked():
    h, visible = _tx_ris(_ris(16), NO_SCATTER, Point3(0, 10, 0),
                         LOS_73GHZ, NLOS_73GHZ, NEVER, np.random.default_rng(0))
    assert not visible
    np.testing.assert_array_equal(h, np.zeros(16, dtype=complex))


def test_tx_ris_sightline_only_value():
    """Broadside transmitter at 1 m, no scatter, sigma = 0: every element
    carries sqrt(G(0) L(1 m)) at the drawn common phase."""
    seed = 5
    tx = Point3(0.0, 1.0, 0.0)
    for n in (1, 16):
        h, visible = _tx_ris(_ris(n), NO_SCATTER, tx, LOS0, NLOS_73GHZ, ALWAYS,
                             np.random.default_rng(seed))
        assert visible
        eta = _eta(seed, 1)
        amp = math.sqrt(element_gain(0.0, 0.285)
                        * 10.0 ** (pathloss_db(LOS_73GHZ, F73, 1.0) / 10.0))
        np.testing.assert_allclose(h, amp * np.exp(1j * eta) * np.ones(n),
                                   rtol=1e-12)


def test_sightline_amplitude_tracks_pathloss():
    """Moving the transmitter out along the broadside ray rescales the
    channel norm by exactly 10^(delta_dB / 20)."""
    def norm_at(d):
        h, _ = _tx_ris(_ris(16), NO_SCATTER, Point3(0, d, 0),
                       LOS0, NLOS_73GHZ, ALWAYS, np.random.default_rng(1))
        return np.linalg.norm(h)

    delta_db = pathloss_db(LOS_73GHZ, F73, 4.0) - pathloss_db(LOS_73GHZ, F73, 1.0)
    assert norm_at(4.0) / norm_at(1.0) == pytest.approx(
        10.0 ** (delta_db / 20.0), rel=1e-12)


def test_ris_rx_rank_one_structure():
    ris = _ris(16)
    rx = Point3(3.0, 4.0, 2.0)
    g = ris_rx_channel(ris, rx, LOS0, F73, np.random.default_rng(7))
    # constant envelope across elements
    np.testing.assert_allclose(np.abs(g), np.abs(g[0]), rtol=1e-12)
    az, el = angles_to_targets(ris.position, ris.orient, rx.as_array()[None, :])
    d = math.sqrt(3.0 ** 2 + 4.0 ** 2 + 2.0 ** 2)
    expect_pow = element_gain(el[0], 0.285) \
        * 10.0 ** (pathloss_db(LOS_73GHZ, F73, d) / 10.0)
    np.testing.assert_allclose(np.abs(g) ** 2, expect_pow, rtol=1e-12)
    # separable: phase progression matches the dense array response exactly
    a = _dense_response(ris, az, el, K73)[0]
    np.testing.assert_allclose(g / g[0], a / a[0], rtol=1e-10, atol=1e-12)


def test_ris_rx_shadow_changes_envelope_only():
    ris = _ris(9)
    rx = Point3(1.0, 6.0, 0.5)
    g0 = ris_rx_channel(ris, rx, LOS0, F73, np.random.default_rng(8))
    g1 = ris_rx_channel(ris, rx, LOS_73GHZ, F73, np.random.default_rng(8))
    np.testing.assert_allclose(np.abs(g1 / g0), np.abs(g1[0] / g0[0]), rtol=1e-12)


def test_direct_single_scatterer_phase_follows_gain():
    beta = 0.8 * np.exp(1j * 1.1)
    cs = Placement(
        positions=np.array([[14.0, 0.0, 0.0]]),   # 6 m from the receiver
        gains=np.array([beta]),
        d_from_tx=np.array([11.0]),
        d_to_surface=np.array([6.0]),             # equal detours: excess phase zero
        d_to_rx=[], edges=[0, 1],
    )
    d, visible = direct_channel(cs, Point3(0, 0, 0), Point3(20, 0, 0),
                                LOS_73GHZ, NLOS0, NEVER, F73,
                                np.random.default_rng(0))
    assert not visible
    assert np.angle(d) == pytest.approx(np.angle(beta), abs=1e-12)


def test_direct_second_moment_oracle():
    """With frozen geometry and unit-variance gains the mean direct power
    equals normalization^2 times the summed linear detour losses."""
    tx, surface, rx = Point3(0, 20, 2), Point3(75, 30, 2), Point3(75, 35, 1)
    cs = _placed(tx, surface, rx, 12)
    loss = pathloss_db(NLOS_73GHZ, F73, cs.d_from_tx + cs.d_to_rx[0])
    expect = np.sum(10.0 ** (loss / 10.0)) / len(cs.gains)   # normalization^2 = 1 / S

    n_trials = 10_000
    acc = 0.0
    for t in range(n_trials):
        trial = cs._replace(gains=complex_normal(np.random.default_rng((t, 1)),
                                                 size=len(cs.gains)))
        d, _ = direct_channel(trial, tx, rx, LOS_73GHZ, NLOS0, NEVER, F73,
                              np.random.default_rng((t, 2)))
        acc += abs(d) ** 2
    assert acc / n_trials == pytest.approx(expect, rel=0.05)


def test_draw_counts_independent_of_lattice_and_tilt():
    """Streams advance identically whatever the element count or tilt, which
    is what lets different configurations share common random numbers.
    tx_ris_channel draws nothing; the engine's
    test_draw_counts_do_not_depend_on_lattice_or_tilt covers its stream."""
    rx = Point3(75, 35, 1)
    probes = []
    for n, tilt in ((16, 0.0), (256, 0.0), (16, 0.3)):
        ris = RisDescriptor(position=Point3(75, 30, 2),
                            orient=Orientation(tilt_rad=tilt), n_elements=n)
        rng = np.random.default_rng(55)
        ris_rx_channel(ris, rx, LOS_73GHZ, F73, rng)
        probes.append(rng.random())
    assert probes[0] == probes[1] == probes[2]


def _dense_response(ris, az, el, k):
    """Reference (M, N) responses: exp(1j * phases) over the full phase matrix."""
    lin = np.arange(ris.n_elements)
    xs, zs = lin % ris.side, lin // ris.side
    d = ris.spacing if ris.spacing is not None else math.pi / k
    phases = k * d * (np.outer(np.sin(el), xs) + np.outer(np.sin(az) * np.cos(el), zs))
    return np.exp(1j * phases)


def _dense_tx_ris(ris, clusters, tx, eta):
    """Unshadowed, always-visible tx_ris_channel built from _dense_response."""
    h = np.zeros(ris.n_elements, dtype=complex)
    if len(clusters.gains):
        az, el = angles_to_targets(ris.position, ris.orient, clusters.positions)
        loss = pathloss_db(NLOS_73GHZ, F73, clusters.d_from_tx + clusters.d_to_surface)
        amp = np.sqrt(element_gain(el, ris.pattern_exponent) * 10.0 ** (loss / 10.0))
        h = math.sqrt(1.0 / len(clusters.gains)) * (
            (clusters.gains * amp) @ _dense_response(ris, az, el, K73))
    return h + _dense_sightline(ris, tx, LOS_73GHZ, eta)


def _dense_sightline(ris, end, pl, eta):
    az, el = angles_to_targets(ris.position, ris.orient, end.as_array()[None, :])
    loss = pathloss_db(pl, F73, math.dist(end.as_array(), ris.position.as_array()))
    amp = math.sqrt(element_gain(el[0], ris.pattern_exponent) * 10.0 ** (loss / 10.0))
    return amp * np.exp(1j * eta) * _dense_response(ris, az, el, K73)[0]


@pytest.mark.parametrize("plane", [Plane.XZ, Plane.YZ])
@pytest.mark.parametrize("n", [1, 4, 64, 256])
def test_links_match_dense_reference(plane, n):
    """The separable kernel equals the dense (S, N) phase-matrix response on
    both links, for either plane, any tilt, spacing and scatterer count."""
    tx, surface, rx = Point3(0, 20, 2), Point3(75, 30, 2), Point3(70, 35, 1)
    cs = _placed(tx, surface, rx, n)
    one = Placement(*(a[:1] for a in cs[:4]), [cs.d_to_rx[0][:1]], [0, 1])
    for tilt in (0.0, -0.6, 0.25, 1.2):
        for spacing in (None, 0.0031):
            ris = RisDescriptor(position=surface,
                                orient=Orientation(plane, tilt_rad=tilt),
                                n_elements=n, spacing=spacing)
            for clusters in (NO_SCATTER, one, cs):
                h, _ = _tx_ris(ris, clusters, tx, LOS0, NLOS0, ALWAYS,
                               np.random.default_rng(9))
                eta = _eta(9, len(clusters.gains) + 1)
                np.testing.assert_allclose(
                    h, _dense_tx_ris(ris, clusters, tx, eta), rtol=1e-12, atol=0)
            g = ris_rx_channel(ris, rx, LOS0, F73, np.random.default_rng(9))
            np.testing.assert_allclose(
                g, _dense_sightline(ris, rx, LOS_73GHZ, _eta(9, 1)), rtol=1e-12, atol=0)


def test_steering_is_the_plane_wave_for_any_plane_and_tilt():
    """Oracle: element i at p_i = d (x_i b_vertical + z_i b_horizontal), with
    the b's the tilted columns of surface_basis, responds with exp(j k u . p_i)
    to the unit direction u towards the target."""
    rng = np.random.default_rng(21)
    for _ in range(200):
        orient = Orientation(plane=Plane(rng.choice(["xz", "yz"])),
                             tilt_axis=[None, TiltAxis.X, TiltAxis.Y][rng.integers(3)],
                             tilt_rad=rng.uniform(-math.pi, math.pi))
        n = int(rng.choice([1, 4, 16, 64]))
        spacing = [None, rng.uniform(0.001, 0.01)][rng.integers(2)]
        ris = RisDescriptor(position=Point3(*rng.uniform(-5, 5, 3)), orient=orient,
                            n_elements=n, spacing=spacing)
        target = Point3(*rng.uniform(-30, 30, 3))
        basis = surface_basis(orient)
        lin = np.arange(n)
        pitch = spacing if spacing is not None else wavelength(73e9) / 2.0
        p = pitch * (np.outer(lin % ris.side, basis[:, 2])
                     + np.outer(lin // ris.side, basis[:, 0]))
        u = target.as_array() - ris.position.as_array()
        want = np.exp(1j * K73 * (p @ (u / np.linalg.norm(u))))
        np.testing.assert_allclose(_response(ris, target), want, atol=1e-9)
        # a scatterer at the target steers the scatter paths' ramps alike
        at = Placement(target.as_array()[None, :], np.ones(1, dtype=complex),
                       np.ones(1), np.ones(1), [], [0, 1])
        _, ez, ex = surface_paths(ris, at, NLOS_73GHZ, F73)
        np.testing.assert_allclose((ez * ex.T).ravel(), want, atol=1e-9)
        g = ris_rx_channel(ris, target, LOS_73GHZ, F73, np.random.default_rng(0))
        np.testing.assert_allclose(g / g[0], want, atol=1e-9)
