"""Random scatterer geometry shared by the surface-assisted and direct links.

Cluster centres are drawn in a frame anchored at the transmitter and aimed
at the surface; each cluster carries a uniformly drawn range and a Gaussian
angular spread of scatterers.  The same realization (same gains, same
normalization) must feed every link of a trial so their small-scale fading
stays consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

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


@dataclass(frozen=True, slots=True, eq=False)
class ClusterSet:
    """Array-backed collection of scatterers for one trial.

    positions is (S, 3); gains, cluster_ids and the three distance vectors
    are length S.  normalization is sqrt(1 / S) so that the scatter sum has
    unit average power when the gains are CN(0, 1).  Fields are stored as
    given, so copies made with dataclasses.replace share the arrays they do
    not replace.
    """

    positions: np.ndarray
    gains: np.ndarray
    cluster_ids: np.ndarray
    d_from_tx: np.ndarray      # transmitter -> scatterer
    d_to_surface: np.ndarray   # scatterer -> surface centre
    d_to_rx: np.ndarray        # scatterer -> receiver
    cluster_sizes: tuple[int, ...]
    normalization: float = field(init=False)

    def __post_init__(self):
        total = sum(self.cluster_sizes)
        if total != len(self.gains):
            raise ValueError("cluster_sizes inconsistent with scatterer count")
        object.__setattr__(self, "normalization",
                           math.sqrt(1.0 / total) if total else 0.0)

    def __len__(self) -> int:
        return len(self.gains)

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_sizes)

    @staticmethod
    def empty() -> "ClusterSet":
        return ClusterSet(
            np.empty((0, 3)), np.empty(0, dtype=complex), np.empty(0, dtype=int),
            np.empty(0), np.empty(0), np.empty(0), (),
        )


def complex_normal(rng: np.random.Generator, size=None) -> np.ndarray:
    """CN(0, 1) draws: unit second moment, independent re/im parts."""
    re = rng.normal(0.0, math.sqrt(0.5), size=size)
    im = rng.normal(0.0, math.sqrt(0.5), size=size)
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
def _anchor(tx: Point3, surface: Point3, rx: Point3):
    """A cluster draw's fixed part: the read-only tx array, the (3, 1, 3)
    stack of the tx, surface and rx arrays, the tx -> surface span and the
    aim frame."""
    txv, sv = tx.as_array(), surface.as_array()
    ends = np.stack([txv, sv, rx.as_array()])[:, None, :]
    frame = _aim_frame(txv, sv)
    for a in (txv, ends, frame):
        a.flags.writeable = False
    return txv, ends, float(np.linalg.norm(sv - txv)), frame


def sample_clusters(
    cfg: EnvironmentConfig, tx: Point3, surface: Point3, rx: Point3,
    rng: np.random.Generator,
) -> ClusterSet:
    """Draw one cluster realization anchored on the tx -> surface sightline."""
    if not cfg.include_scatter:
        return ClusterSet.empty()
    txv, ends, span, frame = _anchor(tx, surface, rx)

    n_clusters = max(1, int(rng.poisson(cfg.mean_clusters)))
    sizes = rng.integers(1, cfg.max_scatterers_per_cluster + 1, size=n_clusters)
    az_lim = math.radians(cfg.cluster_azimuth_limit_deg)
    el_lim = math.radians(cfg.cluster_elevation_limit_deg)
    mean_az = rng.uniform(-az_lim, az_lim, size=n_clusters)
    mean_el = rng.uniform(-el_lim, el_lim, size=n_clusters)
    hi = max(span, cfg.min_range_m * (1.0 + 1e-9))
    ranges = rng.uniform(cfg.min_range_m, hi, size=n_clusters)

    total = int(sizes.sum())
    ids = np.repeat(np.arange(n_clusters), sizes)
    az = mean_az[ids] + rng.normal(
        0.0, math.radians(cfg.azimuth_spread_deg), size=total)
    el = mean_el[ids] + rng.normal(
        0.0, math.radians(cfg.elevation_spread_deg), size=total)
    el = el.clip(-np.pi / 2, np.pi / 2)

    cos_el = np.cos(el)[:, None]
    dirs = (cos_el * np.cos(az)[:, None] * frame[0]
            + cos_el * np.sin(az)[:, None] * frame[1]
            + np.sin(el)[:, None] * frame[2])
    positions = txv + ranges[ids][:, None] * dirs
    gains = complex_normal(rng, size=total)
    # distances to tx, surface and rx in one pass: row_norms over (3, S, 3)
    rel = positions - ends
    d_from_tx, d_to_surface, d_to_rx = np.sqrt(np.add.reduce(rel * rel, axis=2))

    return ClusterSet(
        positions=positions,
        gains=gains,
        cluster_ids=ids,
        d_from_tx=d_from_tx,
        d_to_surface=d_to_surface,
        d_to_rx=d_to_rx,
        cluster_sizes=tuple(sizes.tolist()),
    )


def resample_gains(cs: ClusterSet, rng: np.random.Generator) -> ClusterSet:
    """Fresh CN(0, 1) gains on frozen geometry (fixed-cluster trial mode)."""
    return replace(cs, gains=complex_normal(rng, size=len(cs)))


def rebind_receiver(cs: ClusterSet, rx: Point3) -> ClusterSet:
    """Same geometry and gains, receiver-side distances recomputed.

    Used for additional receivers so every user shares one realization."""
    return replace(cs, d_to_rx=row_norms(cs.positions - rx.as_array()))
