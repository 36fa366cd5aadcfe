"""Small-scale channel synthesis for the three links of an assisted hop:
transmitter -> surface (clustered scatter + optional sightline),
surface -> receiver (pure sightline), and transmitter -> receiver (scalar).

Element lattices are square with a row-major (z, x) scan, x running fastest.
A direction's unit vector u in the surface frame steers the x index by
u_z = sin(el), along the lattice's vertical axis, and the z index by
u_x = sin(az) cos(el), along its horizontal one: one direction's (N,)
response is kron(ez, ex), with ez and ex side-long phase ramps.  The
lattice's phase reference is element (0, 0), the first of the scan, whose
response is 1 in every direction, while distances, and with them pathloss
and the direct links' excess phase, are taken at the surface centre,
position: a response referenced at the centre would be this one times
e^{-j k d c (u_z + u_x)}, c = (side - 1) / 2, d the pitch.  Scatterers
and sightlines are steered from u alone, with no angle.  surface_paths and
direct_paths build what scatter paths keep from draw to draw over a
Placement's scatterers, one trial's or a block's; weighted by sqrt(1 / S)
times gain, a draw only scales each path by 10^(-shadow/20) and sums.  A
Sightline keeps its fixed response; a draw only makes its coefficient.
run_scenario takes a whole block of surface -> receiver and direct draws at
once, for every receiver, with the kernels that ris_rx_channel and
direct_channel run on a block of one trial and one receiver.

Every builder takes the scenario's one carrier freq_hz, which sets the
wavenumber and enters pathloss_db.  Every path is shadowed: a draw scales
it by 10^(-shadow/20), and sigma = 0, which scales it by exactly 1, is how
a link goes unshadowed; the shadow is drawn either way.

The paper's element pattern convention: element_gain at the elevation, not
off broadside, so a target behind the surface gets front-hemisphere gain
and a surface serves both half-spaces alike; every link takes its root
sqrt(2(2q+1)) cos^q(el) from _pattern_amp, with cos^2(el) = u_x^2 + u_y^2,
which is exactly 0 at grazing and even in the normal component u_y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import ClusterDraws, Placement
from .geometry import (  # angles_to_targets stays importable for perfbench's tracer
    Orientation, Point3, angles_to_targets, directions_to_targets, distance,
    row_norms,
)
from .propagation import (  # element_gain, los_indicator, sample_shadow: for perfbench's tracer
    LosModel, PathlossParams, Visibility, element_gain, los_indicator, pathloss_db,
    sample_shadow, visibility, wavenumber,
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


_NEPERS_PER_DB = math.log(10.0) / 20.0   # 10^(x/20) = exp(x * _NEPERS_PER_DB)


@dataclass(frozen=True, eq=False)
class Sightline:
    """A sightline to one endpoint, less its per-trial draws: the hop
    distance, the unshadowed gain (pattern amplitude times 10^(loss/20),
    loss pathloss_db(pl, freq_hz, distance)) and the fixed (N,) response,
    first 1.
    towards builds one surface's sightlines to several endpoints in one
    steering, ramp and pathloss pass, elementwise, so each has the bits that
    between, its one-endpoint case, gives that endpoint alone."""

    distance: float
    gain: float
    resp: np.ndarray

    @classmethod
    def between(cls, ris: RisDescriptor, end: Point3, pl: PathlossParams, freq_hz: float):
        return cls.towards(ris, [end], pl, freq_hz)[0]

    @classmethod
    def towards(cls, ris: RisDescriptor, ends: list[Point3], pl: PathlossParams,
                freq_hz: float):
        d = [distance(end, ris.position) for end in ends]
        u = directions_to_targets(ris.position, ris.orient, np.array([e.as_array() for e in ends]))
        ex, ez = _lattice_factors(ris, u[2::-2], wavenumber(freq_hz))
        resp = (ez.T[:, :, None] * ex.T[:, None, :]).reshape(len(ends), ris.n_elements)
        # a float's ** 2 is libm's pow, whose last bit can differ from x * x
        amps = [_pattern_amp(x ** 2 + y ** 2, ris.pattern_exponent) for x, y in u[:2].T.tolist()]
        loss = pathloss_db(pl, freq_hz, d).tolist()
        return [cls(dist, amp * 10.0 ** (db / 20.0), row)
                for dist, amp, db, row in zip(d, amps, loss, resp)]

    @classmethod
    def direct(cls, tx: Point3, rx: Point3, pl: PathlossParams, freq_hz: float):
        d = distance(tx, rx)   # no pattern, one element
        return cls(d, 10.0 ** (pathloss_db(pl, freq_hz, d) / 20.0), np.ones(1))

    def coefficient(self, shadow_db, eta):
        """coefficients of this sightline's gain."""
        return coefficients(self.gain, shadow_db, eta)


def coefficients(gain, shadow_db, eta):
    """gain 10^(-shadow_db/20) e^{j eta}: the scale of a sightline's response
    for draws of shadow and phase, elementwise over broadcast arrays, such
    as one gain per (surface, receiver) against a block's draws."""
    return gain * np.exp(shadow_db * -_NEPERS_PER_DB + 1j * eta)


def sightline_draws(link: Sightline, pl: PathlossParams, rng: np.random.Generator,
                    seen: Visibility | None = None) -> tuple[bool, float, float]:
    """(visible, shadow_db, eta) of one draw of link, in that order: its
    visibility seen, built once per link and run by propagation.visibility
    (always visible, with no draw, if None), then if visible the shadow,
    rng.normal(0, sigma)'s bits, and eta = 2 pi U, rng.uniform(0, 2 pi)'s."""
    if seen is not None and not seen.draw(rng):
        return False, 0.0, 0.0
    shadow = rng.normal(0.0, pl.shadow_sigma_db)
    return True, shadow, 2.0 * math.pi * rng.random()


def surface_paths(ris: RisDescriptor, scatterers: Placement, pl_nlos: PathlossParams,
                  freq_hz: float) -> tuple[np.ndarray, ...]:
    """(scale, ez, ex) of the paths to the surface via a Placement's
    scatterers: the pattern amplitude times 10^(loss/20), loss
    unshadowed over d_from_tx + d_to_surface, and the ramps at their
    directions u.  Paths of weights w (normalization times gain) add up as
    (ez w scale) @ ex.T, each path shadowed by s scaled by 10^(-s/20)."""
    u = directions_to_targets(ris.position, ris.orient, scatterers.positions)
    ex, ez = _lattice_factors(ris, u[2::-2], wavenumber(freq_hz))
    loss_db = pathloss_db(pl_nlos, freq_hz, scatterers.d_from_tx + scatterers.d_to_surface)
    return (_pattern_amp(u[0] * u[0] + u[1] * u[1], ris.pattern_exponent)
            * np.exp(loss_db * _NEPERS_PER_DB), ez, ex)


def direct_paths(scatterers: Placement, d_to_rx: np.ndarray, pl_nlos: PathlossParams,
                 freq_hz: float) -> np.ndarray:
    """The direct paths via a Placement's scatterers to receivers at (S,) or
    (U, S) distances d_to_rx: exp(j k (d_to_surface - d_to_rx)), k the
    carrier's wavenumber, times 10^(loss/20), loss over d_from_tx + d_to_rx."""
    loss_db = pathloss_db(pl_nlos, freq_hz, scatterers.d_from_tx + d_to_rx)
    excess = wavenumber(freq_hz) * (scatterers.d_to_surface - d_to_rx)
    return np.exp(loss_db * _NEPERS_PER_DB + 1j * excess)


def direct_block(gains: np.ndarray, paths: np.ndarray, edges, shadows, draws) -> np.ndarray:
    """(B, U) direct links of B trials to U receivers: trial i's to u sums
    its weighted direct_paths paths[u, edges[i]:edges[i + 1]], each shadowed
    by its entry of the (U, S) shadows, and adds the coefficient of gains[u]
    for draws[i, u] = (visible, shadow_db, eta) where visible.  One reduceat
    over the non-empty segments takes every sum, each free of where it sits
    and of the other rows; an empty one would give a[i], not 0."""
    terms = paths * np.exp(shadows * -_NEPERS_PER_DB)
    edges = np.asarray(edges)
    full = edges[1:] > edges[:-1]
    total = np.zeros((len(full), len(terms)), dtype=complex)
    total[full] = np.add.reduceat(terms, edges[:-1][full], axis=1).T
    visible, shadow, eta = np.asarray(draws, dtype=float).transpose(2, 0, 1)
    return total + np.where(visible, coefficients(gains, shadow, eta), 0.0)


def _weights(scatterers: Placement) -> np.ndarray:
    """Path weights of a Placement of any number of trials: each trial's
    normalization sqrt(1 / S) times its S gains."""
    sizes = np.diff(scatterers.edges)
    return np.sqrt(1.0 / np.repeat(sizes, sizes)) * scatterers.gains


def tx_ris_channel(
    ris: RisDescriptor,
    clusters: Placement | ClusterDraws,
    tx: Point3,
    pl_los: PathlossParams,
    pl_nlos: PathlossParams,
    los: LosModel,
    freq_hz: float,
    rng: np.random.Generator,
    *, link: Sightline | None = None, seen: Visibility | None = None,
    paths: tuple | None = None, out: np.ndarray | None = None,
) -> tuple[np.ndarray, bool]:
    """(N,) vector from the transmitter to the surface, plus the sightline flag.

    Scattered component: sqrt(1 / S) sum_s gain_s _pattern_amp(u_x,s^2 + u_y,s^2)
    sqrt(loss_s) response(u_s) over the trial's S scatterers, u_s the unit
    vector to scatterer s and loss_s over the detour d_from_tx + d_to_surface;
    the sightline adds its coefficient, with a uniform random phase eta,
    times its response if visible.  link, Sightline.between(ris, tx, pl_los, freq_hz),
    its Visibility seen under los between the surface's and tx's heights,
    and paths, the weighted surface_paths (ez w scale, ex) of clusters, one
    trial's Placement, are built here unless passed in; paths then carries
    the gains and its scatterer axis counts the scatter shadows, and
    clusters, the trial's ClusterDraws, is not read: it names the trial for
    a tracer's scatterer count.  The vector goes into out if given.

    Draw order on rng: scatter shadows, visibility, sightline shadow, eta.
    """
    h = np.empty(ris.n_elements, dtype=complex) if out is None else out
    if paths is None:
        scale, ez, ex = surface_paths(ris, clusters, pl_nlos, freq_hz)
        paths = np.multiply(ez, _weights(clusters) * scale, out=ez), ex
    wz, ex = paths
    shadows = rng.normal(0.0, pl_nlos.shadow_sigma_db, size=wz.shape[-1])
    wz = wz * np.exp(shadows * -_NEPERS_PER_DB)
    np.matmul(wz, ex.T, out=h.reshape(ris.side, ris.side))   # zeros for no scatterer

    link = link or Sightline.between(ris, tx, pl_los, freq_hz)
    seen = seen or visibility(los, link.distance, ris.position.z, tx.z)
    visible, shadow, eta = sightline_draws(link, pl_los, rng, seen)
    if visible:
        h += link.coefficient(shadow, eta) * link.resp
    return h, visible


def ris_rx_channel(ris: RisDescriptor, rx: Point3, pl: PathlossParams, freq_hz: float,
                   rng: np.random.Generator) -> np.ndarray:
    """(N,) surface -> receiver vector; this hop is modelled as pure sightline.

    Draw order on rng: shadow, eta.  run_scenario takes a block's responses,
    coefficient[:, None] * resp, at once; this takes them for a block of one.
    """
    link = Sightline.between(ris, rx, pl, freq_hz)
    _, shadow, eta = sightline_draws(link, pl, rng)
    return (link.coefficient(np.array([shadow]), np.array([eta]))[:, None] * link.resp)[0]


def direct_channel(clusters: Placement, tx: Point3, rx: Point3, pl_los: PathlossParams,
                   pl_nlos: PathlossParams, los: LosModel, freq_hz: float,
                   rng: np.random.Generator) -> tuple[complex, bool]:
    """Scalar transmitter -> receiver link sharing the surface's clusters.

    Each scatterer of one trial's Placement contributes its shared gain, a
    detour loss over d_from_tx + d_to_rx, d_to_rx taken to rx here with
    place_clusters' bytes, and the excess phase k (d_to_surface - d_to_rx)
    that accounts for the receiver hearing the bounce at a different delay
    than the surface does.  Draw order matches tx_ris_channel.  run_scenario
    takes a block's direct_block at once; this takes it for a block of one.
    """
    link = Sightline.direct(tx, rx, pl_los, freq_hz)
    d_to_rx = row_norms(clusters.positions - rx.as_array())
    paths = _weights(clusters) * direct_paths(clusters, d_to_rx, pl_nlos, freq_hz)
    shadows = rng.normal(0.0, pl_nlos.shadow_sigma_db, size=(1, len(paths)))
    draws = sightline_draws(link, pl_los, rng, visibility(los, link.distance, rx.z, tx.z))
    total = direct_block(np.array([link.gain]), paths[None], [0, len(paths)], shadows, [[draws]])
    return complex(total[0, 0]), draws[0]
