"""Random scatterer geometry shared by the surface-assisted and direct links.

Cluster centres are drawn in a frame anchored at the transmitter and aimed
at the surface; each cluster carries a uniformly drawn range and a Gaussian
angular spread of scatterers.  The same realization (same gains, same
normalization) must feed every link of a trial so their small-scale fading
stays consistent.

Drawing and placing are split: sample_clusters makes one trial's draws and
nothing else, and place_clusters turns a block of trials' draws into one
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
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


def complex_normal(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """CN(0, 1) draws: one normal call, every real part then every imaginary."""
    re, im = rng.normal(0.0, math.sqrt(0.5), size=2 if size is None else (2, size))
    return re + 1j * im


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
    """A cluster draw's fixed part: the read-only tx array, the tx -> anchor
    span and the aim frame."""
    txv, av = tx.as_array(), anchor.as_array()
    frame = _aim_frame(txv, av)
    for a in (txv, frame):
        a.flags.writeable = False
    return txv, float(np.linalg.norm(av - txv)), frame


@dataclass(frozen=True, slots=True, eq=False)
class ClusterDraws:
    """One trial's cluster draws, before any geometry: per cluster its size,
    mean azimuth, mean elevation and range; per scatterer its azimuth and
    elevation offsets and CN(0, 1) gain.  len() is the scatterer count."""

    sizes: np.ndarray
    mean_az: np.ndarray
    mean_el: np.ndarray
    ranges: np.ndarray
    az_offsets: np.ndarray
    el_offsets: np.ndarray
    gains: np.ndarray

    def __len__(self) -> int:
        return len(self.gains)


_NO_DRAWS = ClusterDraws(np.empty(0, dtype=int), *[np.empty(0)] * 5,
                         np.empty(0, dtype=complex))


def sample_clusters(
    cfg: EnvironmentConfig, tx: Point3, anchor: Point3, rng: np.random.Generator,
) -> ClusterDraws:
    """Draw one cluster realization aimed along the tx -> anchor sightline;
    place_clusters turns it into positions and distances."""
    if not cfg.include_scatter:
        return _NO_DRAWS
    span = _anchor(tx, anchor)[1]

    n_clusters = max(1, int(rng.poisson(cfg.mean_clusters)))
    sizes = rng.integers(1, cfg.max_scatterers_per_cluster + 1, size=n_clusters)
    az_lim = math.radians(cfg.cluster_azimuth_limit_deg)
    el_lim = math.radians(cfg.cluster_elevation_limit_deg)
    mean_az = rng.uniform(-az_lim, az_lim, size=n_clusters)
    mean_el = rng.uniform(-el_lim, el_lim, size=n_clusters)
    hi = max(span, cfg.min_range_m * (1.0 + 1e-9))
    ranges = rng.uniform(cfg.min_range_m, hi, size=n_clusters)

    total = int(sizes.sum())
    az = rng.normal(0.0, math.radians(cfg.azimuth_spread_deg), size=total)
    el = rng.normal(0.0, math.radians(cfg.elevation_spread_deg), size=total)
    return ClusterDraws(sizes, mean_az, mean_el, ranges, az, el,
                        complex_normal(rng, size=total))


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

    Each scatterer sits at its cluster's range along its direction, the
    cluster mean plus its offset, elevation clipped to [-pi/2, pi/2], in the
    aim frame of tx -> anchor.  Its distances to tx, anchor and each
    receiver are taken in the same pass, one endpoint's (3, S) differences
    at a time, with rebind_receiver's sums.  Every step is elementwise or
    within one scatterer, so a trial placed with others gets the bytes it
    gets placed alone."""
    txv, _, frame = _anchor(tx, anchor)
    sizes = np.concatenate([d.sizes for d in draws])
    edges = np.cumsum([0] + [len(d) for d in draws]).tolist()
    cluster = np.repeat(np.arange(len(sizes)), sizes)
    az = np.concatenate([d.mean_az for d in draws])[cluster] \
        + np.concatenate([d.az_offsets for d in draws])
    el = np.concatenate([d.mean_el for d in draws])[cluster] \
        + np.concatenate([d.el_offsets for d in draws])
    el = el.clip(-np.pi / 2, np.pi / 2)

    # (forward, right, up) rows of each direction, mapped by the aim frame
    local = np.empty((3, len(cluster)))
    cos_el = np.cos(el)
    np.multiply(cos_el, np.cos(az), out=local[0])
    np.multiply(cos_el, np.sin(az), out=local[1])
    np.sin(el, out=local[2])
    ranges = np.concatenate([d.ranges for d in draws])
    xyz = txv[:, None] + ranges[cluster] * (frame.T @ local)   # (3, S)
    gains = np.concatenate([d.gains for d in draws])
    d_from_tx, d_to_anchor, *d_to_rx = [_norms(xyz - end.as_array()[:, None])
                                        for end in (tx, anchor, *receivers)]
    return Placement(xyz.T, gains, d_from_tx, d_to_anchor, d_to_rx, edges)


def rebind_receiver(p: Placement, rx: Point3) -> Placement:
    """Same geometry and gains, seen from rx alone: the distances
    place_clusters gives rx when placing with it as a receiver."""
    return p._replace(d_to_rx=[row_norms(p.positions - rx.as_array())])
