import math

import numpy as np
import pytest

from risim.metrics import (
    LinkBudget, bootstrap_mean_ci, dbm_to_watts, effective_channel,
    empirical_cdf, ergodic_rate, rate_samples, snr, summarize, watts_to_dbm,
)
from risim.riscontrol import PhaseConfig, cascade

BUDGET = LinkBudget(tx_power_dbm=30.0, noise_power_dbm=-100.0)


def test_effective_channel_no_surfaces_is_direct():
    assert effective_channel([], 0.3 + 0.4j) == 0.3 + 0.4j


def test_effective_channel_additivity():
    rng = np.random.default_rng(31)
    links = []
    manual = 0.1 - 0.2j
    for _ in range(3):
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        h = rng.normal(size=4) + 1j * rng.normal(size=4)
        pc = PhaseConfig(phases=rng.uniform(-math.pi, math.pi, size=4))
        links.append((g, pc, h))
        manual += cascade(g, pc, h)
    assert effective_channel(links, 0.1 - 0.2j) == pytest.approx(manual, abs=1e-12)


def test_snr_values():
    assert snr(0.0, BUDGET) == 0.0
    # |H|^2 = 1e-10 against a -100 dBm noise floor at 30 dBm: SNR = 1000
    assert snr(1e-5, BUDGET) == pytest.approx(1000.0, rel=1e-12)
    boosted = LinkBudget(tx_power_dbm=40.0, noise_power_dbm=-100.0)
    assert snr(1e-5, boosted) == pytest.approx(10_000.0, rel=1e-12)
    out = snr(np.array([1e-5, 2e-5]), BUDGET)
    np.testing.assert_allclose(out, [1000.0, 4000.0], rtol=1e-12)


def test_rate_trivials():
    rate, samples = ergodic_rate(np.zeros(10, dtype=complex), BUDGET)
    assert rate == 0.0
    np.testing.assert_array_equal(samples, np.zeros(10))

    rate, _ = ergodic_rate(np.full(4, 1e-5, dtype=complex), BUDGET)
    assert rate == pytest.approx(math.log2(1001.0), abs=1e-12)
    assert rate == pytest.approx(9.967226258835993, abs=1e-12)


def test_rate_monotone_in_power():
    rng = np.random.default_rng(37)
    h = 1e-5 * (rng.normal(size=100) + 1j * rng.normal(size=100))
    r30, _ = ergodic_rate(h, BUDGET)
    r31, _ = ergodic_rate(h, LinkBudget(31.0, -100.0))
    assert r31 > r30


def test_summarize_hand_check_both_conventions():
    h = np.array([1e-5, 2e-5], dtype=complex)   # linear SNRs 1000 and 4000
    res = summarize(h, BUDGET, seed=77)
    assert res.n_trials == 2
    assert res.seed == 77
    assert res.ergodic_rate == pytest.approx(
        0.5 * (math.log2(1001.0) + math.log2(4001.0)), abs=1e-12)
    # dB of the mean vs mean of the dBs
    assert res.mean_snr_db == pytest.approx(10.0 * math.log10(2500.0), abs=1e-12)
    assert res.snr_db_trial_mean == pytest.approx(
        0.5 * (30.0 + 10.0 * math.log10(4000.0)), abs=1e-12)
    np.testing.assert_allclose(res.rate_samples,
                               [math.log2(1001.0), math.log2(4001.0)])
    assert math.isnan(res.rate_ci_low) and math.isnan(res.rate_ci_high)


def test_empirical_cdf_small_cases():
    vals, probs = empirical_cdf([3.0])
    np.testing.assert_array_equal(vals, [3.0])
    np.testing.assert_array_equal(probs, [1.0])

    vals, probs = empirical_cdf([4.0, 2.0, 3.0, 1.0])
    np.testing.assert_array_equal(vals, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(probs, [0.25, 0.5, 0.75, 1.0])

    with pytest.raises(ValueError):
        empirical_cdf([])


def test_empirical_cdf_uniform_ks():
    # step function must hug the U(0,1) CDF; crude KS bound at n = 1e5
    u = np.random.default_rng(41).uniform(size=100_000)
    vals, probs = empirical_cdf(u)
    n = len(vals)
    ks = max(np.max(np.abs(probs - vals)),
             np.max(np.abs(vals - (np.arange(n) / n))))
    assert ks < 0.01


def test_bootstrap_ci_behaviour():
    rng = np.random.default_rng(43)
    samples = rng.normal(5.0, 1.0, size=1000)
    lo, hi = bootstrap_mean_ci(samples, rng=np.random.default_rng(7))
    assert lo <= samples.mean() <= hi
    assert hi - lo < 0.5
    lo2, hi2 = bootstrap_mean_ci(samples, rng=np.random.default_rng(7))
    assert (lo, hi) == (lo2, hi2)
    with pytest.raises(ValueError):
        bootstrap_mean_ci(np.array([]))


def test_power_unit_conversions():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)
    for dbm in (-30.0, 0.0, 12.5, 30.0):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-9)
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)
    with pytest.raises(ValueError):
        watts_to_dbm(-1.0)


def test_rate_samples_matches_definition():
    rng = np.random.default_rng(47)
    h = 1e-6 * (rng.normal(size=50) + 1j * rng.normal(size=50))
    np.testing.assert_allclose(rate_samples(h, BUDGET),
                               np.log2(1.0 + snr(h, BUDGET)), rtol=1e-14)
