"""Cartesian placement, surface-local angle extraction, and tilt rotations.

All positions are metres in a global right-handed frame with z pointing up.
A surface mounted in the xz-plane has its broadside along +y; one mounted in
the yz-plane has its broadside along +x.  Elevation is measured from the
surface's horizontal plane towards its local zenith, azimuth from broadside
towards the first lattice axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Plane(Enum):
    XZ = "xz"
    YZ = "yz"


class TiltAxis(Enum):
    X = "x"
    Y = "y"


class DegenerateGeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Point3:
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class Orientation:
    """Mounting plane plus a signed tilt (radians) about a global axis.

    When tilt_axis is None it defaults to the axis lying in the mounting
    plane and parallel to the ground: x for an xz-surface, y for a yz-surface.
    """

    plane: Plane = Plane.XZ
    tilt_axis: TiltAxis | None = None
    tilt_rad: float = 0.0

    def __post_init__(self):
        if not -math.pi <= self.tilt_rad <= math.pi:
            raise ValueError(f"tilt_rad must be in [-pi, pi], got {self.tilt_rad}")

    def resolved_axis(self) -> TiltAxis:
        if self.tilt_axis is not None:
            return self.tilt_axis
        return TiltAxis.X if self.plane is Plane.XZ else TiltAxis.Y


def distance(a: Point3, b: Point3) -> float:
    return math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))


def row_norms(d: np.ndarray) -> np.ndarray:
    """np.linalg.norm(d, axis=1), the same arithmetic without its dispatch."""
    return np.sqrt(np.add.reduce(d * d, axis=1))


def wrap_angle(x):
    """Wrap to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x), 2.0 * np.pi)


def rotation_matrix(axis: TiltAxis, angle: float) -> np.ndarray:
    """Right-handed rotation by `angle` about the given global axis."""
    c, s = math.cos(angle), math.sin(angle)
    if axis is TiltAxis.X:
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


# Untilted local bases, columns = (lattice_x, broadside, lattice_z) in
# global coordinates.  Both choices are right-handed.
_BASE_FRAMES = {
    Plane.XZ: np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]).T,
    Plane.YZ: np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]).T,
}


def surface_basis(orient: Orientation) -> np.ndarray:
    """3x3 matrix whose columns are the tilted local axes in global coords."""
    basis = _BASE_FRAMES[orient.plane]
    if orient.tilt_rad != 0.0:
        basis = rotation_matrix(orient.resolved_axis(), orient.tilt_rad) @ basis
    return basis


def directions_to_targets(
    surface_pos: Point3, orient: Orientation, targets: np.ndarray
) -> np.ndarray:
    """(3, M) unit vectors to an (M, 3) array of targets in the tilted surface
    frame, rows (lattice_x, broadside, lattice_z); normed in that frame, so
    that |u_z| = |sin(el)| <= 1 holds in floating point too."""
    local = surface_basis(orient).T @ (np.atleast_2d(targets) - surface_pos.as_array()).T
    norms = np.sqrt(np.add.reduce(local * local))
    if not norms.all():
        raise DegenerateGeometryError("target coincides with the surface centre")
    return local / norms


def angles_to_targets(
    surface_pos: Point3, orient: Orientation, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised azimuth/elevation of an (M, 3) array of target positions."""
    u = directions_to_targets(surface_pos, orient, targets)
    return np.arctan2(u[0], u[1]), np.arcsin(u[2])

