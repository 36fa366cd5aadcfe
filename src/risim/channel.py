"""Small-scale channel synthesis for the three links of an assisted hop:
transmitter -> surface (clustered scatter + optional sightline),
surface -> receiver (pure sightline), and transmitter -> receiver (scalar).

Element lattices are square with a row-major (z, x) scan, x running fastest.
A direction's unit vector u in the surface frame steers the x index by
u_z = sin(el), along the lattice's vertical axis, and the z index by
u_x = sin(az) cos(el), along its horizontal one: one direction's (N,)
response is kron(ez, ex), with ez and ex side-long phase ramps.  Scatterers
are steered from u alone, with no angle per trial.  surface_paths and
direct_paths build what scatter paths keep from draw to draw over any
scatterer axis, such as a whole block's; a link takes them through paths=
(or builds its own), then only draws, weights and sums, shadowing each
loss_db with the bits of pathloss_db(pl_nlos, detour, shadow).

The paper's element pattern convention: element_gain at the elevation, not
off broadside, so a target behind the surface gets front-hemisphere gain;
every link takes its root sqrt(2(2q+1)) cos^q(el) from _pattern_amp.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .environment import ClusterSet
from .geometry import (
    Angles, Orientation, Point3, angles_to_targets, directions_to_targets,
    distance,
)
from .propagation import (  # element_gain stays importable for perfbench's tracer
    LosModel, PathlossParams, element_gain, los_indicator, pathloss_db,
    sample_shadow, wavenumber,
)


@dataclass(frozen=True)
class RisDescriptor:
    """A passive reflecting surface: placement, lattice, and element model."""

    position: Point3
    orient: Orientation = Orientation()
    n_elements: int = 256
    spacing: float | None = None      # element pitch in metres; None = half wavelength
    pattern_exponent: float = 0.285   # q of the cosine-power element pattern
    amplitude: float = 1.0            # per-element reflection amplitude

    def __post_init__(self):
        side = math.isqrt(self.n_elements)
        if self.n_elements < 1 or side * side != self.n_elements:
            raise ValueError(
                f"n_elements must be a positive perfect square, got {self.n_elements}")
        if self.spacing is not None and self.spacing <= 0:
            raise ValueError("element spacing must be positive")
        if not 0.0 < self.amplitude <= 1.0:
            raise ValueError("reflection amplitude must lie in (0, 1]")
        if self.pattern_exponent < 0:
            raise ValueError("pattern exponent must be non-negative")

    @property
    def side(self) -> int:
        return math.isqrt(self.n_elements)


def _pattern_amp(cos2_el, q: float):
    """sqrt(element_gain(el, q)) = sqrt(2(2q+1)) cos^q(el), from cos^2(el)."""
    return math.sqrt(2.0 * (2.0 * q + 1.0)) * cos2_el ** (0.5 * q)


def _angle_steps(az: np.ndarray, el: np.ndarray) -> np.ndarray:
    """(2, M) ramp steps (u_z, u_x) of M directions given as angles."""
    return np.stack([np.sin(el), np.sin(az) * np.cos(el)])


def _lattice_factors(
    ris: RisDescriptor, steps: np.ndarray, k: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(side, M) phase ramps ex, ez for the (2, M) steps (u_z, u_x) of M
    directions: element (z, x) responds to direction m with ez[z, m] * ex[x, m].

    Row x of a ramp is w^x for the direction's step w = exp(j k d u), built by
    doubling: rows [n, 2n) are rows [0, n) times w^n, and w^2n squares w^n.
    That is one complex exp per direction instead of one per element."""
    d = ris.spacing if ris.spacing is not None else math.pi / k  # half wavelength
    side, m = ris.side, steps.shape[1]
    power = np.exp((1j * k * d) * steps.ravel())
    ramps = np.empty((side, 2 * m), dtype=complex)
    ramps[0] = 1.0
    n = 1
    while n < side:
        rows = min(n, side - n)
        np.multiply(ramps[:rows], power, out=ramps[n:n + rows])
        n *= 2
        if n < side:
            power = power * power
    return ramps[:, :m], ramps[:, m:]


def array_response(ris: RisDescriptor, ang: Angles, k: float) -> np.ndarray:
    """Planar response exp(j k d (x sin(el) + z sin(az) cos(el))), first entry 1.

    With ang from geometry.angles_at_surface this is the plane wave
    exp(j k u . p_i) for any mounting plane and tilt."""
    ex, ez = _lattice_factors(
        ris, _angle_steps(np.array([ang.azimuth]), np.array([ang.elevation])), k)
    return (ez * ex.T).ravel()


@dataclass(frozen=True, eq=False)
class Sightline:
    """A surface's sightline to one endpoint, less its per-trial draws: the
    hop distance, the unshadowed loss pathloss_db(pl, distance), the pattern
    amplitude at the arrival elevation and the (side,) response ramps."""

    distance: float
    loss_db: float
    amp: float
    ez: np.ndarray
    ex: np.ndarray

    @classmethod
    def between(cls, ris: RisDescriptor, end: Point3, pl: PathlossParams):
        d = distance(end, ris.position)
        az, el = angles_to_targets(ris.position, ris.orient, end.as_array()[None, :])
        ex, ez = _lattice_factors(ris, _angle_steps(az, el), wavenumber(pl.freq_hz))
        amp = _pattern_amp(math.cos(el[0]) ** 2, ris.pattern_exponent)
        return cls(d, pathloss_db(pl, d), amp,
                   np.ascontiguousarray(ez[:, 0]), np.ascontiguousarray(ex[:, 0]))

    def response(self, shadow_db: float, eta: float) -> np.ndarray:
        """(N,) vector for one shadow draw and phase eta; loss_db - shadow_db
        has the bits of pathloss_db(pl, distance, shadow_db)."""
        amp = self.amp * 10.0 ** ((self.loss_db - shadow_db) / 20.0)
        return ((amp * cmath.exp(1j * eta) * self.ez)[:, None] * self.ex).ravel()


def surface_paths(ris: RisDescriptor, scatterers, pl_nlos: PathlossParams, k: float
                  ) -> tuple[np.ndarray, ...]:
    """(loss_db, amp, ez, ex) of the paths to the surface via scatterers (a
    ClusterSet or Placement): loss unshadowed over d_from_tx + d_to_surface,
    and pattern amplitude and ramps at their directions u."""
    u = directions_to_targets(ris.position, ris.orient, scatterers.positions)
    ex, ez = _lattice_factors(ris, u[2::-2], k)
    return (pathloss_db(pl_nlos, scatterers.d_from_tx + scatterers.d_to_surface),
            _pattern_amp(1.0 - u[2] * u[2], ris.pattern_exponent), ez, ex)


def direct_paths(scatterers, d_to_rx: np.ndarray, pl_nlos: PathlossParams, k: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(loss_db, phasor) of the direct paths via scatterers (a ClusterSet or
    Placement) to the receiver at distances d_to_rx: loss unshadowed over
    d_from_tx + d_to_rx, and exp(j k (d_to_surface - d_to_rx))."""
    return (pathloss_db(pl_nlos, scatterers.d_from_tx + d_to_rx),
            np.exp(1j * (k * (scatterers.d_to_surface - d_to_rx))))


def tx_ris_channel(
    ris: RisDescriptor,
    clusters: ClusterSet,
    tx: Point3,
    pl_los: PathlossParams,
    pl_nlos: PathlossParams,
    los: LosModel,
    rng: np.random.Generator,
    shadow_scatter: bool = True,
    shadow_los: bool = True,
    *, link: Sightline | None = None, paths: tuple | None = None,
) -> tuple[np.ndarray, bool]:
    """(N,) vector from the transmitter to the surface, plus the sightline flag.

    Scattered component: normalization * sum_s gain_s
        _pattern_amp(1 - u_z,s^2) * sqrt(loss_s) * response(u_s),
    with u_s the unit vector to scatterer s and per-path loss over the
    detour distance d_from_tx + d_to_surface.
    The sightline term adds _pattern_amp * sqrt(loss) e^{j eta} response with
    a uniform random phase eta when the blockage draw comes up visible.
    link, Sightline.between(ris, tx, pl_los), and paths, the surface_paths
    of clusters, are built here unless passed in.

    Draw order on rng: scatter shadows, visibility, sightline shadow, eta.
    """
    h = np.zeros(ris.n_elements, dtype=complex)
    if len(clusters):
        loss_db, amp, ez, ex = paths or surface_paths(
            ris, clusters, pl_nlos, wavenumber(pl_los.freq_hz))
        shadows = sample_shadow(pl_nlos.shadow_sigma_db, rng, size=len(clusters)) \
            if shadow_scatter else 0.0
        amp = amp * 10.0 ** ((loss_db - shadows) / 20.0)
        h = ((ez * (clusters.normalization * clusters.gains * amp)) @ ex.T).ravel()

    link = link or Sightline.between(ris, tx, pl_los)
    visible = los_indicator(los, link.distance, ris.position.z, tx.z, rng)
    if visible:
        shadow = sample_shadow(pl_los.shadow_sigma_db, rng) if shadow_los else 0.0
        h = h + link.response(shadow, rng.uniform(0.0, 2.0 * math.pi))

    return h, bool(visible)


def ris_rx_channel(
    ris: RisDescriptor,
    rx: Point3,
    pl: PathlossParams,
    rng: np.random.Generator,
    shadow_los: bool = True,
    *, link: Sightline | None = None,
) -> np.ndarray:
    """(N,) surface -> receiver vector; this hop is modelled as pure sightline.

    link, Sightline.between(ris, rx, pl), is built here unless passed in.
    Draw order on rng: shadow, eta.
    """
    link = link or Sightline.between(ris, rx, pl)
    shadow = sample_shadow(pl.shadow_sigma_db, rng) if shadow_los else 0.0
    return link.response(shadow, rng.uniform(0.0, 2.0 * math.pi))


def direct_channel(
    clusters: ClusterSet,
    tx: Point3,
    rx: Point3,
    pl_los: PathlossParams,
    pl_nlos: PathlossParams,
    los: LosModel,
    k: float,
    rng: np.random.Generator,
    shadow_scatter: bool = True,
    shadow_los: bool = True,
    *, paths: tuple | None = None,
) -> tuple[complex, bool]:
    """Scalar transmitter -> receiver link sharing the surface's clusters.

    Each scatterer contributes its shared gain, a detour loss over
    d_from_tx + d_to_rx, and the excess phase k (d_to_surface - d_to_rx)
    that accounts for the receiver hearing the bounce at a different delay
    than the surface does.  paths, the direct_paths of clusters, is built
    here unless passed in.  Draw order matches tx_ris_channel.
    """
    total = 0.0 + 0.0j
    if len(clusters):
        loss_db, phasor = paths or direct_paths(clusters, clusters.d_to_rx, pl_nlos, k)
        shadows = sample_shadow(pl_nlos.shadow_sigma_db, rng, size=len(clusters)) \
            if shadow_scatter else 0.0
        total = clusters.normalization * (
            clusters.gains @ (phasor * 10.0 ** ((loss_db - shadows) / 20.0)))

    d_link = distance(tx, rx)
    visible = los_indicator(los, d_link, rx.z, tx.z, rng)
    if visible:
        shadow = sample_shadow(pl_los.shadow_sigma_db, rng) if shadow_los else 0.0
        loss_db = pathloss_db(pl_los, d_link, shadow)
        eta = rng.uniform(0.0, 2.0 * math.pi)
        total = total + 10.0 ** (loss_db / 20.0) * cmath.exp(1j * eta)

    return complex(total), bool(visible)
