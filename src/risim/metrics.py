"""Link budget, effective channel composition, and Monte Carlo summaries."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinkBudget:
    tx_power_dbm: float = 30.0
    noise_power_dbm: float = -100.0


@dataclass
class MetricsResult:
    """Aggregates of one Monte Carlo run for a single receiver.

    mean_snr_db is 10 log10 of the trial-average linear SNR, which stays
    finite when some trials have zero power.
    """

    ergodic_rate: float            # b/s/Hz, E[log2(1 + SNR)]
    mean_snr_db: float
    rate_samples: np.ndarray       # per-trial rates, trial order
    n_trials: int
    seed: int
    rate_ci_low: float = math.nan  # bootstrap CI of the mean rate
    rate_ci_high: float = math.nan


def effective_channel(h_d, g: np.ndarray, coefficients: np.ndarray, h: np.ndarray):
    """Direct link plus every surface's cascaded contribution, (U,), for a
    dense g: the per-trial reference that run_scenario's formula matches.

    The elements of all surfaces are concatenated on one last axis of length
    N_tot: h (N_tot,) is the transmitter -> surface link, coefficients
    (N_tot,) the reflection amplitude times e^{j phase}, g (U, N_tot) one
    surface -> receiver row per user and h_d (U,) the direct links.  Leading
    axes broadcast against g's (..., U, N_tot).  A user who hears only its
    own elements passes g with the other users' entries zeroed.
    """
    return h_d + (g * coefficients * h).sum(axis=-1)


def snr(h_effective: complex, budget: LinkBudget):
    """Linear receive SNR for scalar or array effective channels."""
    gain = np.abs(np.asarray(h_effective)) ** 2
    out = 10.0 ** (budget.tx_power_dbm / 10.0) * gain \
        / 10.0 ** (budget.noise_power_dbm / 10.0)
    return out if out.ndim else float(out)


def summarize(h_effective: np.ndarray, budget: LinkBudget, seed: int = 0) -> MetricsResult:
    """Per-trial rates log2(1 + SNR) and their mean over the trial-ordered
    array, so the result does not depend on how trials were scheduled."""
    lin = snr(np.asarray(h_effective), budget)
    samples = np.log2(1.0 + lin)
    n = len(samples)
    with np.errstate(divide="ignore"):   # np.mean's sum and divide, less its wrapper
        mean_db = float(10.0 * np.log10(np.add.reduce(lin) / n)) if n else math.nan
    return MetricsResult(
        ergodic_rate=float(np.add.reduce(samples) / n) if n else math.nan,
        mean_snr_db=mean_db,
        rate_samples=samples,
        n_trials=len(samples),
        seed=seed,
    )


def empirical_cdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """Sorted sample values and step probabilities i/n."""
    values = np.sort(np.asarray(samples, dtype=float))
    if len(values) == 0:
        raise ValueError("empirical_cdf needs at least one sample")
    probs = np.arange(1, len(values) + 1) / len(values)
    return values, probs


_GATHER_BYTES = 1 << 18   # bytes of resample indices, and of their floats, per chunk
N_BOOT = 1000
CONFIDENCE = 0.95
# np.quantile's "linear" positions (N_BOOT - 1) q of both bounds: the order
# statistics either side of each, the partition's kth, and the weights
_AT = (N_BOOT - 1) * np.array([(1.0 - CONFIDENCE) / 2.0, 1.0 - (1.0 - CONFIDENCE) / 2.0])
_BELOW = _AT.astype(np.intp)   # floor: _AT >= 0
_KTH = np.concatenate((_BELOW, _BELOW + 1, [N_BOOT - 1]))
_BOUNDS = list(zip(_BELOW.tolist(), (_AT - _BELOW).tolist()))


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's _lerp of floats a, b at t, its operations in its order."""
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def bootstrap_mean_ci(samples: np.ndarray, rng: np.random.Generator) -> tuple[float, float]:
    """Percentile bootstrap interval for the sample mean at CONFIDENCE, from
    N_BOOT resamples drawn from rng (each run passes its own stream).  Rows
    of resamples are drawn, gathered and summed about _GATHER_BYTES at a
    time: consecutive integers() calls continue one call's stream (PCG64
    keeps the spare half of a 64-bit word in its state), and a row's mean
    sums that row alone, so the chunks keep the bits of one draw and one
    gather.  The bounds are np.quantile's "linear" ones from one partition
    at positions fixed on import: the order statistics either side of
    (N_BOOT - 1) q, mixed on Python floats as numpy's _lerp mixes them, and
    (nan, nan) if a mean is nan."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n == 0:
        raise ValueError("bootstrap needs at least one sample")
    rows = max(1, _GATHER_BYTES // (samples.itemsize * n))
    means = np.empty(N_BOOT)
    for r in range(0, N_BOOT, rows):   # mean's own arithmetic: row sums, then / n
        idx = rng.integers(0, n, size=(min(rows, N_BOOT - r), n))
        np.add.reduce(samples[idx], axis=1, out=means[r:r + rows])
    means /= n
    means.partition(_KTH)
    if math.isnan(means.item(-1)):   # nan sorts last
        return math.nan, math.nan
    lo, hi = (_lerp(means.item(k), means.item(k + 1), t) for k, t in _BOUNDS)
    return lo, hi
