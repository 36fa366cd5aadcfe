import math

import numpy as np
import pytest

from risim.geometry import (
    DegenerateGeometryError, Orientation, Plane, Point3, TiltAxis,
    angles_to_targets, distance, rotation_matrix,
    surface_basis, wrap_angle,
)


def test_distance_trivial_cases():
    assert distance(Point3(0, 0, 0), Point3(0, 0, 0)) == 0.0
    assert distance(Point3(0, 0, 0), Point3(3, 4, 0)) == 5.0


def test_distance_hand_value():
    # sqrt(75^2 + 15^2 + 1^2) = sqrt(5851)
    a, b = Point3(0, 20, 2), Point3(75, 35, 1)
    assert distance(a, b) == pytest.approx(76.49182962905255, abs=1e-9)
    assert distance(a, b) == distance(b, a)


def test_distance_triangle_inequality():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b, c = (Point3(*rng.uniform(-50, 50, 3)) for _ in range(3))
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12


def test_rotate_identity_at_zero():
    p = np.array([1.3, -2.0, 0.7])
    for axis in TiltAxis:
        np.testing.assert_array_equal(rotation_matrix(axis, 0.0) @ p, p)


def test_rotate_hand_case():
    out = rotation_matrix(TiltAxis.X, math.pi / 2) @ np.array([0.0, 0.0, 1.0])
    np.testing.assert_allclose(out, [0.0, -1.0, 0.0], atol=1e-12)


def test_rotate_round_trip_and_norm():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = rng.uniform(-5, 5, 3)
        angle = rng.uniform(-math.pi, math.pi)
        axis = TiltAxis.X if rng.random() < 0.5 else TiltAxis.Y
        rot = rotation_matrix(axis, angle) @ p
        back = rotation_matrix(axis, -angle) @ rot
        assert math.dist(back, p) < 1e-12
        assert np.linalg.norm(rot) == pytest.approx(np.linalg.norm(p), rel=1e-12)


def test_rotation_matrices_orthonormal():
    for axis in TiltAxis:
        m = rotation_matrix(axis, 0.77)
        np.testing.assert_allclose(m @ m.T, np.eye(3), atol=1e-14)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-14)


def test_wrap_angle_range():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)   # (-pi, pi] convention
    assert wrap_angle(2 * math.pi) == pytest.approx(0.0, abs=1e-12)
    vals = wrap_angle(np.linspace(-20, 20, 1001))
    assert np.all(vals > -math.pi - 1e-12) and np.all(vals <= math.pi + 1e-12)
    # wrapping preserves the angle mod 2 pi
    x = np.linspace(-20, 20, 1001)
    np.testing.assert_allclose(np.exp(1j * wrap_angle(x)), np.exp(1j * x),
                               atol=1e-12)


def test_orientation_defaults_and_bounds():
    assert Orientation().resolved_axis() is TiltAxis.X
    assert Orientation(plane=Plane.YZ).resolved_axis() is TiltAxis.Y
    assert Orientation(plane=Plane.YZ, tilt_axis=TiltAxis.X).resolved_axis() \
        is TiltAxis.X
    with pytest.raises(ValueError):
        Orientation(tilt_rad=3.5)


def test_angles_broadside():
    az, el = angles_to_targets(Point3(0, 0, 0), Orientation(), np.array([[0, 10, 0]]))
    assert az == pytest.approx([0.0], abs=1e-12)
    assert el == pytest.approx([0.0], abs=1e-12)
    az, el = angles_to_targets(Point3(0, 0, 0), Orientation(plane=Plane.YZ),
                               np.array([[10, 0, 0]]))
    assert az == pytest.approx([0.0], abs=1e-12)
    assert el == pytest.approx([0.0], abs=1e-12)


def test_angles_zenith():
    _, el = angles_to_targets(Point3(1, 2, 3), Orientation(), np.array([[1, 2, 9]]))
    assert el == pytest.approx([math.pi / 2], abs=1e-12)


def test_angles_below_horizontal_is_negative():
    # receiver slightly below the surface centre
    az, el = angles_to_targets(Point3(70, 30, 2), Orientation(), np.array([[70, 35, 1]]))
    assert az == pytest.approx([0.0], abs=1e-12)
    assert el == pytest.approx([math.asin(-1 / math.sqrt(26))], abs=1e-12)


def test_angles_degenerate_raises():
    with pytest.raises(DegenerateGeometryError):
        angles_to_targets(Point3(1, 1, 1), Orientation(), np.array([[1, 1, 1]]))


def test_surface_bases_right_handed():
    for plane in Plane:
        b = surface_basis(Orientation(plane=plane))
        np.testing.assert_allclose(b @ b.T, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(np.cross(b[:, 0], b[:, 1]), b[:, 2],
                                   atol=1e-14)


def test_tilt_frame_consistency():
    """Angles seen from a tilted surface match angles of the target rotated
    by the opposite tilt about the surface centre."""
    rng = np.random.default_rng(23)
    for _ in range(100):
        pos = Point3(*rng.uniform(-10, 10, 3))
        target = Point3(*(rng.uniform(-10, 10, 3) + 1e-3))
        plane = Plane.XZ if rng.random() < 0.5 else Plane.YZ
        tilt = rng.uniform(-math.pi, math.pi)
        orient = Orientation(plane=plane, tilt_rad=tilt)

        rel = target.as_array() - pos.as_array()
        unrot = rotation_matrix(orient.resolved_axis(), -tilt) @ rel
        target_back = Point3(*(pos.as_array() + unrot))

        tilted = angles_to_targets(pos, orient, target.as_array()[None, :])
        flat = angles_to_targets(pos, Orientation(plane=plane),
                                 target_back.as_array()[None, :])
        np.testing.assert_allclose(tilted, flat, rtol=0, atol=1e-9)
