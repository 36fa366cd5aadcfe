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

    mean_snr_db is 10 log10 of the trial-average linear SNR (the default
    reporting convention); snr_db_trial_mean averages the per-trial dB
    values instead.  Both are kept because the two conventions diverge
    under heavy shadowing.
    """

    ergodic_rate: float            # b/s/Hz, E[log2(1 + SNR)]
    mean_snr_db: float
    snr_db_trial_mean: float
    rate_samples: np.ndarray       # per-trial rates, trial order
    n_trials: int
    seed: int
    rate_ci_low: float = math.nan  # bootstrap CI of the mean rate
    rate_ci_high: float = math.nan


def dbm_to_watts(dbm: float) -> float:
    return 1e-3 * 10.0 ** (dbm / 10.0)


def watts_to_dbm(watts: float) -> float:
    if watts <= 0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(watts / 1e-3)


def effective_channel(h_d, g: np.ndarray, coefficients: np.ndarray,
                      h: np.ndarray, serves: np.ndarray | None = None):
    """Direct link plus every surface's cascaded contribution, (U,).

    Element-axis convention: the elements of all surfaces are concatenated
    into one last axis of length N_tot.  h (N_tot,) is the transmitter ->
    surface link, coefficients (N_tot,) the reflection amplitude times
    e^{j phase}, g (U, N_tot) one surface -> receiver row per user and h_d
    (U,) the direct links.  serves (U, N_tot), when given, keeps only the
    elements each user owns.  Any leading axes broadcast.

    One user needs no surface -> receiver phases: co-phased against h_d with
    sign s (+1 "paper", -1 "aligned"), its term k is amp_k |g_k||h_k|
    e^{-js arg h_d}.  With two users that fails for the elements a user
    does not own: they are co-phased for the other user's g.
    """
    terms = g * coefficients * h
    if serves is not None:
        terms = terms * serves
    return h_d + terms.sum(axis=-1)


def snr(h_effective: complex, budget: LinkBudget):
    """Linear receive SNR for scalar or array effective channels."""
    gain = np.abs(np.asarray(h_effective)) ** 2
    out = 10.0 ** (budget.tx_power_dbm / 10.0) * gain \
        / 10.0 ** (budget.noise_power_dbm / 10.0)
    return out if out.ndim else float(out)


def rate_samples(h_effective: np.ndarray, budget: LinkBudget) -> np.ndarray:
    return np.log2(1.0 + snr(np.asarray(h_effective), budget))


def ergodic_rate(h_effective: np.ndarray, budget: LinkBudget) -> tuple[float, np.ndarray]:
    """Sample-mean spectral efficiency and the per-trial rate vector.

    The mean is taken over the trial-ordered array, so the result does not
    depend on how trials were scheduled."""
    samples = rate_samples(h_effective, budget)
    return float(np.mean(samples)), samples


def summarize(h_effective: np.ndarray, budget: LinkBudget, seed: int = 0) -> MetricsResult:
    rate, samples = ergodic_rate(h_effective, budget)
    lin = snr(np.asarray(h_effective), budget)
    with np.errstate(divide="ignore"):
        mean_db = float(10.0 * np.log10(np.mean(lin))) if len(lin) else math.nan
        trial_db = float(np.mean(10.0 * np.log10(lin))) if len(lin) else math.nan
    return MetricsResult(
        ergodic_rate=rate,
        mean_snr_db=mean_db,
        snr_db_trial_mean=trial_db,
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


def bootstrap_mean_ci(
    samples: np.ndarray,
    n_boot: int = 1000,
    confidence: float = 0.95,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Percentile bootstrap interval for the sample mean."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) == 0:
        raise ValueError("bootstrap needs at least one sample")
    if rng is None:
        rng = np.random.default_rng(0)
    idx = rng.integers(0, len(samples), size=(n_boot, len(samples)))
    means = samples[idx].mean(axis=1)
    tail = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, [tail, 1.0 - tail])
    return float(lo), float(hi)
