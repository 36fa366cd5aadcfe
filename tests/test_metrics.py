import math
import tracemalloc

import numpy as np
import pytest

from risim import metrics
from risim.metrics import (
    LinkBudget, bootstrap_mean_ci, effective_channel, empirical_cdf, snr,
    summarize,
)
from risim.riscontrol import (
    combined_phase_vector, optimal_phases, partition_elements,
)

BUDGET = LinkBudget(tx_power_dbm=30.0, noise_power_dbm=-100.0)


def _cn(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _cascade(g, coefficients, h):
    """Reference cascaded sum over elements of g_k c_k h_k."""
    return complex(np.sum(g * coefficients * h))


def test_effective_channel_no_surfaces_is_direct():
    h_d = np.array([0.3 + 0.4j, -0.1j])
    empty = np.zeros(0, dtype=complex)
    out = effective_channel(h_d, np.zeros((2, 0), dtype=complex), empty, empty)
    np.testing.assert_array_equal(out, h_d)


def test_effective_channel_additivity():
    rng = np.random.default_rng(31)
    sizes = (4, 9, 1)
    gs, hs = [_cn(rng, n) for n in sizes], [_cn(rng, n) for n in sizes]
    coefficients = [float(rng.uniform(0.1, 1.0))
                    * np.exp(1j * rng.uniform(-math.pi, math.pi, size=n)) for n in sizes]
    manual = 0.1 - 0.2j + sum(_cascade(g, c, h) for g, c, h in zip(gs, coefficients, hs))
    out = effective_channel(np.array([0.1 - 0.2j]), np.concatenate(gs)[None, :],
                            np.concatenate(coefficients), np.concatenate(hs))
    assert out.shape == (1,)
    assert out[0] == pytest.approx(manual, abs=1e-12)


def _element_axis_channel(h_d, gs, hs, amps, sign, offblock):
    """The effective channel by run_scenario's formula, every surface's
    elements on one axis: a user's own elements, co-phased against its
    direct link, add amp_k |g_k||h_k| e^{-js arg h_d}; with "include" and
    several users, the other users' elements add g_k amp_k e^{j phase_k} h_k
    at the unit phasors e^{j phase_k} combined_phase_vector grants their
    owners."""
    n_users = len(h_d)
    g = np.array([np.concatenate(row) for row in gs])
    h = np.concatenate(hs)
    owner = np.concatenate([partition_elements(len(x), n_users) for x in hs])
    amplitude = np.repeat(amps, [len(x) for x in hs])
    mine = owner == np.arange(n_users)[:, None]
    s = 1.0 if sign == "paper" else -1.0
    out = h_d + (mine * amplitude * np.abs(g) * np.abs(h)).sum(axis=1) \
        * np.exp(-1j * s * np.angle(h_d))
    if n_users > 1 and offblock == "include":
        phasors = combined_phase_vector(owner, g[owner, np.arange(len(h))], h, h_d, sign)
        out += (~mine * g) @ (amplitude * phasors * h)
    return out


def _per_surface_reference(h_d, gs, hs, amps, sign, offblock):
    """The same channel surface by surface and block by block, from
    optimal_phases and the reference _cascade."""
    n_users = len(h_d)
    out = np.array(h_d, dtype=complex)
    for m, (h, amp) in enumerate(zip(hs, amps)):
        blocks = np.array_split(np.arange(len(h)), n_users)
        phases = np.zeros(len(h))
        for u, block in enumerate(blocks):
            phases[block] = optimal_phases(gs[u][m], h, h_d[u], sign)[block]
        for u in range(n_users):
            keep = blocks[u] if n_users > 1 and offblock == "exclude" \
                else np.arange(len(h))
            out[u] += _cascade(gs[u][m][keep], amp * np.exp(1j * phases[keep]),
                               h[keep])
    return out


@pytest.mark.parametrize("sizes", [(16,), (9, 4), (4, 25, 9)])
@pytest.mark.parametrize("n_users", [1, 2, 3])
@pytest.mark.parametrize("offblock", ["include", "exclude"])
@pytest.mark.parametrize("sign", ["paper", "aligned"])
def test_effective_channel_matches_per_surface_reference(sizes, n_users,
                                                         offblock, sign):
    rng = np.random.default_rng([len(sizes), n_users, len(offblock), len(sign)])
    h_d = _cn(rng, n_users)
    hs = [_cn(rng, n) for n in sizes]
    gs = [[_cn(rng, n) for n in sizes] for _ in range(n_users)]
    amps = rng.uniform(0.2, 1.0, size=len(sizes))
    out = _element_axis_channel(h_d, gs, hs, amps, sign, offblock)
    ref = _per_surface_reference(h_d, gs, hs, amps, sign, offblock)
    assert out.shape == (n_users,)
    np.testing.assert_allclose(out, ref, rtol=1e-12)
    # co-phasing can at best add every cascaded magnitude to the direct link
    bound = np.abs(h_d) + [sum(a * np.sum(np.abs(g * h))
                               for a, g, h in zip(amps, row, hs)) for row in gs]
    assert np.all(np.abs(out) <= bound * (1 + 1e-12))


def test_one_user_lands_on_direct_phase():
    # each co-phased term is amp |g_k||h_k| e^{-js arg h_d}, so the
    # surface -> receiver phases do not matter with one user
    rng = np.random.default_rng(53)
    for _ in range(50):
        sizes = rng.integers(1, 5, size=rng.integers(1, 4)) ** 2
        h_d = _cn(rng, 1)
        hs = [_cn(rng, n) for n in sizes]
        gs = [[_cn(rng, n) for n in sizes]]
        amps = rng.uniform(0.1, 1.0, size=len(sizes))
        total = sum(a * np.sum(np.abs(g) * np.abs(h))
                    for a, g, h in zip(amps, gs[0], hs))
        unit = np.exp(1j * np.angle(h_d[0]))
        paper = _element_axis_channel(h_d, gs, hs, amps, "paper", "include")
        np.testing.assert_allclose(paper, h_d + total * np.conj(unit), rtol=1e-12)
        aligned = _element_axis_channel(h_d, gs, hs, amps, "aligned", "include")
        np.testing.assert_allclose(aligned, h_d + total * unit, rtol=1e-12)
        assert abs(aligned[0]) == pytest.approx(abs(h_d[0]) + total, rel=1e-12)
        assert abs(paper[0]) <= abs(h_d[0]) + total * (1 + 1e-12)
        rotated = [[g * np.exp(1j * rng.uniform(-math.pi, math.pi, size=len(g)))
                    for g in gs[0]]]
        np.testing.assert_allclose(
            _element_axis_channel(h_d, rotated, hs, amps, "paper", "include"),
            paper, rtol=1e-12)


def test_snr_values():
    assert snr(0.0, BUDGET) == 0.0
    # |H|^2 = 1e-10 against a -100 dBm noise floor at 30 dBm: SNR = 1000
    assert snr(1e-5, BUDGET) == pytest.approx(1000.0, rel=1e-12)
    boosted = LinkBudget(tx_power_dbm=40.0, noise_power_dbm=-100.0)
    assert snr(1e-5, boosted) == pytest.approx(10_000.0, rel=1e-12)
    out = snr(np.array([1e-5, 2e-5]), BUDGET)
    np.testing.assert_allclose(out, [1000.0, 4000.0], rtol=1e-12)


def test_rate_trivials():
    res = summarize(np.zeros(10, dtype=complex), BUDGET)
    assert res.ergodic_rate == 0.0
    np.testing.assert_array_equal(res.rate_samples, np.zeros(10))

    rate = summarize(np.full(4, 1e-5, dtype=complex), BUDGET).ergodic_rate
    assert rate == pytest.approx(math.log2(1001.0), abs=1e-12)
    assert rate == pytest.approx(9.967226258835993, abs=1e-12)


def test_rate_monotone_in_power():
    rng = np.random.default_rng(37)
    h = 1e-5 * (rng.normal(size=100) + 1j * rng.normal(size=100))
    r30 = summarize(h, BUDGET).ergodic_rate
    r31 = summarize(h, LinkBudget(31.0, -100.0)).ergodic_rate
    assert r31 > r30


def test_summarize_hand_check_both_conventions():
    h = np.array([1e-5, 2e-5], dtype=complex)   # linear SNRs 1000 and 4000
    res = summarize(h, BUDGET, seed=77)
    assert res.n_trials == 2
    assert res.seed == 77
    assert res.ergodic_rate == pytest.approx(
        0.5 * (math.log2(1001.0) + math.log2(4001.0)), abs=1e-12)
    # the dB of the mean SNR is reported, not the mean of the per-trial dBs
    assert res.mean_snr_db == pytest.approx(10.0 * math.log10(2500.0), abs=1e-12)
    assert res.mean_snr_db != pytest.approx(
        0.5 * (30.0 + 10.0 * math.log10(4000.0)), abs=1e-3)
    assert not hasattr(res, "snr_db_trial_mean")
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
        bootstrap_mean_ci(np.array([]), rng=np.random.default_rng(7))


def test_bootstrap_gathers_in_chunks_with_the_bits_of_one_gather(monkeypatch):
    # one row, 7 rows (a ragged last chunk) and all 1000 rows per gather
    samples = np.random.default_rng(41).exponential(3.0, size=2000)
    idx = np.random.default_rng(7).integers(0, 2000, size=(1000, 2000))
    want = np.quantile(samples[idx].mean(axis=1), [0.025, 0.975]).tolist()
    for chunk in (1, 7 * 8 * 2000, 1 << 40):
        monkeypatch.setattr(metrics, "_GATHER_BYTES", chunk)
        assert list(bootstrap_mean_ci(samples, rng=np.random.default_rng(7))) == want


def test_bootstrap_memory_stays_within_one_chunk():
    """At 20000 samples one row of draws and one of gathered floats are
    live at a time, 0.3 MB, where one (N_BOOT, n) draw would take 160 MB."""
    samples = np.random.default_rng(3).random(20_000)
    tracemalloc.start()
    try:
        bootstrap_mean_ci(samples, rng=np.random.default_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _numpy_bounds(samples, seed):
    """np.quantile's bounds over the resampled means bootstrap_mean_ci draws
    from default_rng(seed), each mean taken by ndarray.mean."""
    n = len(samples)
    idx = np.random.default_rng(seed).integers(0, n, size=(metrics.N_BOOT, n))
    tail = (1.0 - metrics.CONFIDENCE) / 2.0
    return np.quantile(samples[idx].mean(axis=1), [tail, 1.0 - tail])


def _same_bits(got, want):
    """Equal bits, any nan matching any nan."""
    got, want = np.array(got, dtype=float), np.array(want, dtype=float)
    nan = np.isnan(got)
    return (nan == np.isnan(want)).all() and got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("n, rows", [(331, 99), (331, 1), (7, 3), (13, 11)])
def test_bootstrap_draws_odd_chunks_with_the_bits_of_one_draw(monkeypatch, n, rows):
    """Chunks of an odd number of draws leave PCG64 half a 64-bit word,
    which the next chunk's integers() call takes first: the bounds and the
    stream left behind are those of one integers() call."""
    samples = np.random.default_rng(n).exponential(3.0, size=n)
    monkeypatch.setattr(metrics, "_GATHER_BYTES", rows * 8 * n)
    rng = np.random.default_rng(7)
    assert _same_bits(bootstrap_mean_ci(samples, rng=rng), _numpy_bounds(samples, 7))
    one = np.random.default_rng(7)
    one.integers(0, n, size=(metrics.N_BOOT, n))
    assert rng.bit_generator.state == one.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 10, 100, 327, 328, 2000, 2621, 2622])
def test_bootstrap_bounds_have_the_bits_of_numpys_quantile(n):
    """The one-partition bounds equal np.quantile's on continuous, tied
    (rounded) and constant samples.  327 samples draw and gather 100 rows of
    resamples at a time, ten even chunks; 328 take 99, with a ragged last;
    2621 and 2622 take 12, with a last of 4."""
    rng = np.random.default_rng(n)
    continuous = rng.exponential(3.0, size=n)
    for samples in (continuous, np.round(continuous), np.full(n, 0.7)):
        for seed in (7, 8):
            got = bootstrap_mean_ci(samples, rng=np.random.default_rng(seed))
            assert _same_bits(got, _numpy_bounds(samples, seed))


def test_bootstrap_bounds_of_nan_and_inf_samples_are_numpys():
    """One nan among 200 samples makes both bounds nan, as np.quantile does
    (a partition without the last index would miss it); an inf sample
    gives np.quantile's bounds, inf - inf = nan included."""
    samples = np.random.default_rng(5).random(200)
    samples[17] = np.nan
    got = bootstrap_mean_ci(samples, rng=np.random.default_rng(7))
    assert np.isnan(got).all() and np.isnan(_numpy_bounds(samples, 7)).all()
    samples[17] = np.inf
    with np.errstate(invalid="ignore"):
        got = bootstrap_mean_ci(samples, rng=np.random.default_rng(7))
        assert _same_bits(got, _numpy_bounds(samples, 7))


def test_rate_samples_matches_definition():
    rng = np.random.default_rng(47)
    h = 1e-6 * (rng.normal(size=50) + 1j * rng.normal(size=50))
    np.testing.assert_array_equal(summarize(h, BUDGET).rate_samples,
                                  np.log2(1.0 + snr(h, BUDGET)))
