"""Large-scale propagation: floating-intercept pathloss, shadowing,
line-of-sight blockage, and the cosine-power element pattern."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0


@dataclass(frozen=True)
class PathlossParams:
    """Distance-exponent pathloss with a frequency-dependence correction.

    Loss in dB at distance d on carrier f:
        -20 log10(4 pi / lambda) - 10 n (1 + b (f - f0)/f0) log10(d) - X
    where X is a shadowing draw in dB and lambda = c / f.  The carrier is the
    scenario's, one for every link; sigma = 0 leaves a link unshadowed.
    """

    exponent: float          # n, distance exponent
    freq_dependence: float   # b, dimensionless slope around the anchor
    shadow_sigma_db: float   # std-dev of the lognormal shadow term, dB
    ref_freq_hz: float       # anchor frequency the exponent was fitted at

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError("pathloss exponent must be positive")
        if self.shadow_sigma_db < 0:
            raise ValueError("shadow sigma must be non-negative")
        if self.ref_freq_hz <= 0:
            raise ValueError("the anchor frequency must be positive")

    def slope(self, freq_hz: float) -> float:
        """The effective distance exponent n (1 + b (f - f0) / f0) on carrier f."""
        return self.exponent * (
            1.0 + self.freq_dependence * (freq_hz - self.ref_freq_hz) / self.ref_freq_hz)


# 73 GHz measurement-fitted defaults.
LOS_73GHZ = PathlossParams(
    exponent=1.73, freq_dependence=0.0, shadow_sigma_db=3.02, ref_freq_hz=73e9,
)
NLOS_73GHZ = PathlossParams(
    exponent=3.19, freq_dependence=0.06, shadow_sigma_db=8.29, ref_freq_hz=73e9,
)


class LosMode(Enum):
    ALWAYS = "always"
    NEVER = "never"
    PROBABILISTIC = "probabilistic"


@dataclass(frozen=True)
class LosModel:
    """Blockage model for links that may or may not see each other.

    In PROBABILISTIC mode the link is unobstructed with probability
    exp(-d / decay_length_m); if force_if_above_tx is set, an endpoint
    mounted at or above the transmitter height is treated as always visible.
    """

    mode: LosMode = LosMode.PROBABILISTIC
    decay_length_m: float = 30.0
    force_if_above_tx: bool = True

    def __post_init__(self):
        if not self.decay_length_m > 0:   # nan fails it
            raise ValueError("decay_length_m must be positive")


def wavelength(freq_hz: float) -> float:
    return SPEED_OF_LIGHT / freq_hz


def wavenumber(freq_hz: float) -> float:
    return 2.0 * np.pi / wavelength(freq_hz)


def pathloss_db(params: PathlossParams, freq_hz: float, dist_m):
    """Pathloss in dB (negative = attenuation) on carrier freq_hz. Accepts
    scalar or array distance."""
    d = np.asarray(dist_m, dtype=float)
    # initial=1.0 passes an empty array; a nan fails every comparison
    if not 0.0 < d.min(initial=1.0) <= d.max(initial=1.0) < math.inf:
        raise ValueError("pathloss requires a positive, finite distance")
    lam = wavelength(freq_hz)
    out = -20.0 * np.log10(4.0 * np.pi / lam) - 10.0 * params.slope(freq_hz) * np.log10(d)
    return out if out.ndim else float(out)


def sample_shadow(sigma_db: float, rng: np.random.Generator, size=None):
    """Zero-mean Gaussian shadowing draw(s) in dB."""
    return rng.normal(0.0, sigma_db, size=size)


def los_probability(model: LosModel, dist_m: float, endpoint_z: float, tx_z: float) -> float:
    if model.mode is LosMode.ALWAYS:
        return 1.0
    if model.mode is LosMode.NEVER:
        return 0.0
    if model.force_if_above_tx and endpoint_z >= tx_z:
        return 1.0
    return math.exp(-dist_m / model.decay_length_m)


class Visibility(NamedTuple):
    """One link's blockage rule, fixed for a run by its distance and
    endpoint heights.  A deterministic mode (draws False) is visible at p = 1
    (ALWAYS) or hidden at p = 0 (NEVER) and consumes no randomness;
    PROBABILISTIC (draws True) is one rng.random() < p, also when
    force_if_above_tx makes p = 1."""

    p: float
    draws: bool

    def draw(self, rng: np.random.Generator) -> bool:
        return rng.random() < self.p if self.draws else self.p == 1.0


def visibility(model: LosModel, dist_m: float, endpoint_z: float, tx_z: float
               ) -> Visibility:
    """The Visibility of a link of length dist_m between heights endpoint_z and tx_z."""
    return Visibility(los_probability(model, dist_m, endpoint_z, tx_z),
                      model.mode is LosMode.PROBABILISTIC)


def los_indicator(
    model: LosModel, dist_m: float, endpoint_z: float, tx_z: float,
    rng: np.random.Generator,
) -> int:
    """Bernoulli visibility draw, the link's Visibility drawn once."""
    return int(visibility(model, dist_m, endpoint_z, tx_z).draw(rng))


def element_gain(theta, q: float = 0.285):
    """Cosine-power pattern 2(2q+1) cos^(2q)(theta), zero for |theta| > pi/2:
    off broadside, 4*pi over the front hemisphere; channel.py names the paper's use."""
    if q < 0:
        raise ValueError("pattern exponent q must be non-negative")
    th = np.asarray(theta, dtype=float)
    inside = np.abs(th) <= np.pi / 2.0
    gain = np.zeros_like(th)
    # 0**0 == 1 keeps the q = 0 pattern flat across the whole hemisphere.
    gain[inside] = 2.0 * (2.0 * q + 1.0) * np.cos(th[inside]) ** (2.0 * q)
    return gain if gain.ndim else float(gain)
