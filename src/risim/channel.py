"""Small-scale channel synthesis for the three links of an assisted hop:
transmitter -> surface (clustered scatter + optional sightline),
surface -> receiver (pure sightline), and transmitter -> receiver (scalar).

Element lattices are square with a row-major (z, x) scan, x running fastest.
The x index pairs with sin(el), so it steps along the lattice's vertical axis
(column 2 of geometry.surface_basis); the z index pairs with sin(az) cos(el)
and steps along its horizontal axis (column 0).  The steering phase is thus
separable: one direction's (N,) response is kron(ez, ex) over the (z, x)
scan, where ez and ex are side-long phase ramps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import ClusterSet
from .geometry import (
    Angles, Orientation, Point3, angles_to_targets, distance, wrap_angle,
)
from .propagation import (
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


def _lattice_factors(
    ris: RisDescriptor, az: np.ndarray, el: np.ndarray, k: float,
) -> tuple[np.ndarray, np.ndarray]:
    """(side, M) phase ramps ex, ez for M directions in the tilted surface frame:
    element (z, x) responds to direction m with ez[z, m] * ex[x, m].

    Row x of a ramp is w^x for the direction's step w = exp(j k d u), built by
    doubling: rows [n, 2n) are rows [0, n) times w^n, and w^2n squares w^n.
    That is one complex exp per direction instead of one per element."""
    d = ris.spacing if ris.spacing is not None else math.pi / k  # half wavelength
    side, m = ris.side, len(el)
    steps = np.empty(2 * m)
    np.sin(el, out=steps[:m])
    np.multiply(np.sin(az), np.cos(el), out=steps[m:])
    power = np.exp(1j * k * d * steps)
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
    ex, ez = _lattice_factors(ris, np.array([ang.azimuth]), np.array([ang.elevation]), k)
    return (ez * ex.T).ravel()


@dataclass(frozen=True, eq=False)
class Sightline:
    """A surface's sightline to one endpoint, less its per-trial draws: the
    hop distance, the unshadowed loss pathloss_db(pl, distance), the element
    gain at the arrival elevation and the (side,) ramps of the response."""

    distance: float
    loss_db: float
    gain: float
    ez: np.ndarray
    ex: np.ndarray

    @classmethod
    def between(cls, ris: RisDescriptor, end: Point3, pl: PathlossParams):
        d = distance(end, ris.position)
        az, el = angles_to_targets(ris.position, ris.orient, end.as_array()[None, :])
        ex, ez = _lattice_factors(ris, az, el, wavenumber(pl.freq_hz))
        gain = element_gain(float(el[0]), ris.pattern_exponent)
        return cls(d, pathloss_db(pl, d), gain,
                   np.ascontiguousarray(ez[:, 0]), np.ascontiguousarray(ex[:, 0]))

    def response(self, shadow_db: float, eta: float) -> np.ndarray:
        """(N,) vector for one shadow draw and phase eta; loss_db - shadow_db
        has the bits of pathloss_db(pl, distance, shadow_db)."""
        amp = math.sqrt(self.gain * 10.0 ** ((self.loss_db - shadow_db) / 10.0))
        return np.outer(amp * np.exp(1j * eta) * self.ez, self.ex).ravel()


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
    *, link: Sightline | None = None,
) -> tuple[np.ndarray, bool]:
    """(N,) vector from the transmitter to the surface, plus the sightline flag.

    Scattered component: normalization * sum_s gain_s
        sqrt(element_gain(el_s) * loss_s) * response(az_s, el_s),
    with per-path loss over the detour distance d_from_tx + d_to_surface.
    The sightline term adds sqrt(element_gain * loss) e^{j eta} response with
    a uniform random phase eta when the blockage draw comes up visible.
    link, Sightline.between(ris, tx, pl_los), is built here unless passed in.

    Draw order on rng: scatter shadows, visibility, sightline shadow, eta.
    """
    k = wavenumber(pl_los.freq_hz)
    h = np.zeros(ris.n_elements, dtype=complex)

    if len(clusters):
        az, el = angles_to_targets(ris.position, ris.orient, clusters.positions)
        detour = clusters.d_from_tx + clusters.d_to_surface
        shadows = sample_shadow(pl_nlos.shadow_sigma_db, rng, size=len(clusters)) \
            if shadow_scatter else 0.0
        loss_db = pathloss_db(pl_nlos, detour, shadows)
        amp = np.sqrt(element_gain(el, ris.pattern_exponent) * 10.0 ** (loss_db / 10.0))
        ex, ez = _lattice_factors(ris, az, el, k)
        c = clusters.normalization * clusters.gains * amp
        h = ((ez * c) @ ex.T).ravel()

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
) -> tuple[complex, bool]:
    """Scalar transmitter -> receiver link sharing the surface's clusters.

    Each scatterer contributes its shared gain, a detour loss over
    d_from_tx + d_to_rx, and the excess phase k (d_to_surface - d_to_rx)
    that accounts for the receiver hearing the bounce at a different delay
    than the surface does.  Draw order matches tx_ris_channel.
    """
    total = 0.0 + 0.0j
    if len(clusters):
        detour = clusters.d_from_tx + clusters.d_to_rx
        shadows = sample_shadow(pl_nlos.shadow_sigma_db, rng, size=len(clusters)) \
            if shadow_scatter else 0.0
        loss_db = pathloss_db(pl_nlos, detour, shadows)
        phase = wrap_angle(k * (clusters.d_to_surface - clusters.d_to_rx))
        total = clusters.normalization * np.sum(
            clusters.gains * np.exp(1j * phase) * np.sqrt(10.0 ** (loss_db / 10.0)))

    d_link = distance(tx, rx)
    visible = los_indicator(los, d_link, rx.z, tx.z, rng)
    if visible:
        shadow = sample_shadow(pl_los.shadow_sigma_db, rng) if shadow_los else 0.0
        loss_db = pathloss_db(pl_los, d_link, shadow)
        eta = rng.uniform(0.0, 2.0 * math.pi)
        total = total + math.sqrt(10.0 ** (loss_db / 10.0)) * np.exp(1j * eta)

    return complex(total), bool(visible)
