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
    with np.errstate(divide="ignore"):
        mean_db = float(10.0 * np.log10(np.mean(lin))) if len(lin) else math.nan
    return MetricsResult(
        ergodic_rate=float(np.mean(samples)),
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


_GATHER_BYTES = 1 << 21   # resampled floats gathered at a time, as run_scenario's blocks


def bootstrap_mean_ci(
    samples: np.ndarray,
    rng: np.random.Generator,
    n_boot: int = 1000,
    confidence: float = 0.95,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the sample mean, resampled from rng
    (each run passes its own stream).  A row's mean sums that row alone, so
    gathering _GATHER_BYTES of rows at a time keeps its bits."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) == 0:
        raise ValueError("bootstrap needs at least one sample")
    idx = rng.integers(0, len(samples), size=(n_boot, len(samples)))
    rows = max(1, _GATHER_BYTES // (samples.itemsize * len(samples)))
    means = np.concatenate([samples[idx[r:r + rows]].mean(axis=1)
                            for r in range(0, n_boot, rows)])
    tail = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, [tail, 1.0 - tail])
    return float(lo), float(hi)
