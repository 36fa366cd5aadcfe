"""Random scatterer geometry shared by the surface-assisted and direct links.

Cluster centres are drawn in a frame anchored at the transmitter and aimed
at the surface; each cluster carries a uniformly drawn range and a Gaussian
angular spread of scatterers.  The same realization (same gains, same
normalization) must feed every link of a trial so their small-scale fading
stays consistent.

Drawing and placing are split: sample_clusters takes one trial's raw
U[0, 1) and N(0, 1) variates and nothing else, and place_clusters maps a
block of trials' variates as numpy's samplers would and turns them into one
Placement, positions and distances on one flat scatterer axis, with one
pass over their scatterers.  A one-trial Placement is what the per-trial
links take; a trial of S scatterers is normalized by sqrt(1 / S), so that
its scatter sum has unit average power when the gains are CN(0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import Point3, row_norms


@dataclass(frozen=True)
class EnvironmentConfig:
    mean_clusters: float = 3.0               # Poisson mean, floored at one cluster
    max_scatterers_per_cluster: int = 30     # per-cluster count ~ UniformInt[1, max]
    azimuth_spread_deg: float = 5.0          # per-scatterer Gaussian offset
    elevation_spread_deg: float = 5.0
    cluster_azimuth_limit_deg: float = 90.0  # cluster mean azimuth ~ U(-limit, limit)
    cluster_elevation_limit_deg: float = 45.0
    min_range_m: float = 1.0                 # cluster range ~ U(min, |tx - surface|)
    include_scatter: bool = True             # False forces an empty (pure LOS) set

    def __post_init__(self):
        if self.mean_clusters <= 0:
            raise ValueError("mean_clusters must be positive")
        if self.max_scatterers_per_cluster < 1:
            raise ValueError("max_scatterers_per_cluster must be at least 1")
        if self.min_range_m <= 0:
            raise ValueError("min_range_m must be positive")
        for name in ("azimuth_spread_deg", "elevation_spread_deg",
                     "cluster_azimuth_limit_deg", "cluster_elevation_limit_deg"):
            if not getattr(self, name) >= 0:   # nan fails it
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


def _complex(z: np.ndarray) -> np.ndarray:
    """CN(0, 1) from (2, ...) standard normals, every real part then every
    imaginary, each mapped as rng.normal(0.0, sqrt(1/2)) maps its variate."""
    re, im = 0.0 + math.sqrt(0.5) * z
    return re + 1j * im


def complex_normal(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """CN(0, 1) draws: one standard_normal call, the bits of one normal call."""
    return _complex(rng.standard_normal(2 if size is None else (2, size)))


def _aim_frame(tx: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """Rows: forward (tx -> anchor), right (forward x z-hat) and up unit
    vectors, in scalar arithmetic: numpy calls on 3-vectors cost more."""
    fx, fy, fz = (anchor - tx).tolist()
    norm = math.sqrt(fx * fx + fy * fy + fz * fz)
    if norm == 0.0:
        raise ValueError("transmitter and surface coincide")
    fx, fy, fz = fx / norm, fy / norm, fz / norm
    r_norm = math.hypot(fx, fy)     # zero when aiming straight up or down
    rx, ry = (fy / r_norm, -fx / r_norm) if r_norm >= 1e-12 else (1.0, 0.0)
    return np.array([[fx, fy, fz], [rx, ry, 0.0],
                     [ry * fz, -rx * fz, rx * fy - ry * fx]])


@lru_cache(maxsize=64)
def _anchor(tx: Point3, anchor: Point3):
    """A placement's fixed part: the read-only tx array, the tx -> anchor
    span and the aim frame."""
    txv, av = tx.as_array(), anchor.as_array()
    frame = _aim_frame(txv, av)
    for a in (txv, frame):
        a.flags.writeable = False
    return txv, float(np.linalg.norm(av - txv)), frame


@dataclass(frozen=True, slots=True, eq=False)
class ClusterDraws:
    """One trial's raw cluster variates, before any map or geometry: per
    cluster its size; uniforms (3, n), U[0, 1) rows for the clusters' mean
    azimuths, mean elevations and ranges; normals (4, S), N(0, 1) rows for
    the scatterers' azimuth and elevation offsets and the real and
    imaginary parts of their gains; env, whose limits and spreads map them.
    len() is the scatterer count."""

    sizes: np.ndarray
    uniforms: np.ndarray
    normals: np.ndarray
    env: EnvironmentConfig

    def __len__(self) -> int:
        return self.normals.shape[1]

    def with_fresh_gains(self, rng: np.random.Generator) -> "ClusterDraws":
        """The same geometry with 2S fresh gain normals from rng, the bits
        of complex_normal(rng, size=len(self))."""
        normals = self.normals.copy()
        rng.standard_normal(out=normals[2:])
        return ClusterDraws(self.sizes, self.uniforms, normals, self.env)


_NO_VARIATES = (np.empty(0, dtype=int), np.empty((3, 0)), np.empty((4, 0)))


def sample_clusters(cfg: EnvironmentConfig, rng: np.random.Generator) -> ClusterDraws:
    """Draw one cluster realization's raw variates, in the order numpy's
    samplers drew them: the cluster count (poisson) and sizes (integers),
    then every uniform and every normal in one call each.  No geometry is
    read: place_clusters maps them along a tx -> anchor sightline, and
    raises there if the two coincide."""
    if not cfg.include_scatter:
        return ClusterDraws(*_NO_VARIATES, cfg)
    n_clusters = max(1, int(rng.poisson(cfg.mean_clusters)))
    sizes = rng.integers(1, cfg.max_scatterers_per_cluster + 1, size=n_clusters)
    return ClusterDraws(sizes, rng.random((3, n_clusters)),
                        rng.standard_normal((4, sum(sizes.tolist()))), cfg)


def _norms(rel: np.ndarray) -> np.ndarray:
    """Column norms of a (3, S) array, summed x, y, z in order as row_norms
    sums the rows of an (S, 3) one; rel is squared in place."""
    rel *= rel
    return np.sqrt(rel[0] + rel[1] + rel[2])


class Placement(NamedTuple):
    """place_clusters' result: every trial's scatterers on one flat axis.

    positions is (sum S, 3) in trial order, trial i's rows being
    edges[i]:edges[i + 1]; the gains and distances, d_to_rx[u] to receiver
    u, run along the same axis.  A NamedTuple's len() counts its fields:
    len(gains) is the scatterer count."""

    positions: np.ndarray
    gains: np.ndarray
    d_from_tx: np.ndarray
    d_to_surface: np.ndarray       # to the anchor
    d_to_rx: list[np.ndarray]
    edges: list[int]


def place_clusters(draws: Sequence[ClusterDraws], tx: Point3, anchor: Point3,
                   receivers: Sequence[Point3]) -> Placement:
    """Positions and distances of every trial's draws, in one pass over them.

    The block's variates, all under the first record's env, are mapped at
    once by numpy's samplers' arithmetic, low + (high - low) U for the
    cluster means and ranges, 0.0 + scale Z for the offsets and gains, so
    the bits are theirs.  Each scatterer sits at its cluster's range along
    its direction, the cluster mean plus its offset, elevation clipped to
    [-pi/2, pi/2], in the aim frame of tx -> anchor.  Its distances to tx,
    anchor and each receiver are taken in the same pass, one endpoint's
    (3, S) differences at a time, with rebind_receiver's sums.  Every step
    is elementwise or within one scatterer, so a trial placed with others
    gets the bytes it gets placed alone."""
    txv, span, frame = _anchor(tx, anchor)
    env = draws[0].env
    az_lim = math.radians(env.cluster_azimuth_limit_deg)
    el_lim = math.radians(env.cluster_elevation_limit_deg)
    low = np.array([[-az_lim], [-el_lim], [env.min_range_m]])
    high = np.array([[az_lim], [el_lim], [max(span, env.min_range_m * (1.0 + 1e-9))]])
    spread = np.array([[math.radians(env.azimuth_spread_deg)],
                       [math.radians(env.elevation_spread_deg)]])
    mean_az, mean_el, ranges = low + (high - low) * np.concatenate(
        [d.uniforms for d in draws], axis=1)
    normals = np.concatenate([d.normals for d in draws], axis=1)
    az_offsets, el_offsets = 0.0 + spread * normals[:2]

    sizes = np.concatenate([d.sizes for d in draws])
    edges = np.cumsum([0] + [len(d) for d in draws]).tolist()
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    az = mean_az[cluster] + az_offsets
    el = (mean_el[cluster] + el_offsets).clip(-np.pi / 2, np.pi / 2)

    # (forward, right, up) rows of each direction, mapped by the aim frame
    local = np.empty((3, len(cluster)))
    cos_el = np.cos(el)
    np.multiply(cos_el, np.cos(az), out=local[0])
    np.multiply(cos_el, np.sin(az), out=local[1])
    np.sin(el, out=local[2])
    xyz = txv[:, None] + ranges[cluster] * (frame.T @ local)   # (3, S)
    d_from_tx, d_to_anchor, *d_to_rx = [_norms(xyz - end.as_array()[:, None])
                                        for end in (tx, anchor, *receivers)]
    return Placement(xyz.T, _complex(normals[2:]), d_from_tx, d_to_anchor, d_to_rx, edges)


def rebind_receiver(p: Placement, rx: Point3) -> Placement:
    """Same geometry and gains, seen from rx alone: the distances
    place_clusters gives rx when placing with it as a receiver."""
    return p._replace(d_to_rx=[row_norms(p.positions - rx.as_array())])
