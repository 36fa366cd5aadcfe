import math

import numpy as np
import pytest

from risim.riscontrol import (
    combined_phase_vector, optimal_phases, partition_elements,
)


def _cascade(g, phases, h):
    """Reference cascaded sum over elements of g_k e^{j phase_k} h_k."""
    return complex(np.sum(g * np.exp(1j * phases) * h))


def test_optimal_phases_trivial_on_positive_reals():
    phases = optimal_phases(np.ones(5), np.ones(5), 1.0)
    np.testing.assert_array_equal(phases, np.zeros(5))


def test_optimal_phases_hand_value():
    phases = optimal_phases(np.array([np.exp(0.3j)]), np.array([np.exp(0.5j)]),
                            np.exp(0.1j))
    assert phases[0] == pytest.approx(-0.9, abs=1e-12)


def test_cascade_cophased_sums_amplitudes():
    g = np.array([np.exp(0.3j), 2.0 * np.exp(1.0j)])
    h = np.array([np.exp(0.2j), np.exp(-0.5j)])
    c = _cascade(g, optimal_phases(g, h, 1.0), h)
    assert abs(c) == pytest.approx(3.0, rel=1e-12)
    assert np.angle(c) == pytest.approx(0.0, abs=1e-12)


def test_cophasing_identity_random():
    # optimal phasing always attains sum |g_k| |h_k|
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(1, 40))
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        h = rng.normal(size=n) + 1j * rng.normal(size=n)
        d = complex(rng.normal() + 1j * rng.normal())
        c = _cascade(g, optimal_phases(g, h, d), h)
        assert abs(c) == pytest.approx(np.sum(np.abs(g) * np.abs(h)), rel=1e-10)


def test_cascade_invariant_to_common_phase():
    rng = np.random.default_rng(13)
    g = rng.normal(size=8) + 1j * rng.normal(size=8)
    h = rng.normal(size=8) + 1j * rng.normal(size=8)
    ref = abs(_cascade(g, optimal_phases(g, h, 1.0), h))
    rot = g * np.exp(0.77j)
    assert abs(_cascade(rot, optimal_phases(rot, h, 1.0), h)) == \
        pytest.approx(ref, rel=1e-12)


def test_global_phase_lands_on_direct_link():
    rng = np.random.default_rng(17)
    g = rng.normal(size=6) + 1j * rng.normal(size=6)
    h = rng.normal(size=6) + 1j * rng.normal(size=6)
    d = np.exp(0.7j)
    c = _cascade(g, optimal_phases(g, h, d, direct_phase_sign="paper"), h)
    assert np.angle(c) == pytest.approx(-0.7, abs=1e-10)
    c = _cascade(g, optimal_phases(g, h, d, direct_phase_sign="aligned"), h)
    assert np.angle(c) == pytest.approx(0.7, abs=1e-10)
    with pytest.raises(ValueError):
        optimal_phases(g, h, d, direct_phase_sign="bogus")


def test_zero_direct_link_counts_as_zero_phase():
    g = np.array([np.exp(0.4j)])
    h = np.array([np.exp(0.9j)])
    phases = optimal_phases(g, h, 0.0)
    assert phases[0] == pytest.approx(-1.3, abs=1e-12)
    assert np.angle(_cascade(g, phases, h)) == pytest.approx(0.0, abs=1e-12)


def test_phases_are_wrapped():
    rng = np.random.default_rng(19)
    g = 5.0 * (rng.normal(size=30) + 1j * rng.normal(size=30))
    h = 5.0 * (rng.normal(size=30) + 1j * rng.normal(size=30))
    phases = optimal_phases(g, h, complex(rng.normal(), rng.normal()))
    assert np.all(phases > -math.pi) and np.all(phases <= math.pi)


def test_partition_examples():
    np.testing.assert_array_equal(partition_elements(256, 2),
                                  np.repeat([0, 1], 128))
    np.testing.assert_array_equal(partition_elements(10, 3),
                                  [0, 0, 0, 0, 1, 1, 1, 2, 2, 2])
    np.testing.assert_array_equal(partition_elements(9, 1), np.zeros(9))


def test_partition_blocks_cover_without_overlap():
    # owner u holds exactly the u-th array_split block of the lattice scan
    for n, u in ((256, 3), (64, 5), (16, 16), (100, 7), (8, 5)):
        owner = partition_elements(n, u)
        assert owner.shape == (n,)
        for user, block in enumerate(np.array_split(np.arange(n), u)):
            np.testing.assert_array_equal(np.flatnonzero(owner == user), block)


def test_partition_rejects_bad_counts():
    with pytest.raises(ValueError):
        partition_elements(4, 5)
    with pytest.raises(ValueError):
        partition_elements(4, 0)


def _cn(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_combined_phase_vector_mixes_blocks():
    owner = partition_elements(6, 2)
    rng = np.random.default_rng(7)
    g, h, h_d = _cn(rng, 2, 6), _cn(rng, 6), _cn(rng, 2)
    out = combined_phase_vector(owner, g, h, h_d, "paper")
    per_user = [optimal_phases(g[u], h, h_d[u]) for u in range(2)]
    # each element carries its owner's co-phase
    np.testing.assert_array_equal(out[:3], per_user[0][:3])
    np.testing.assert_array_equal(out[3:], per_user[1][3:])
    aligned = combined_phase_vector(owner, g, h, h_d, "aligned")
    np.testing.assert_array_equal(
        aligned[3:], optimal_phases(g[1], h, h_d[1], "aligned")[3:])
    # a leading trial axis carries through, trial by trial
    gb, hb, h_db = _cn(rng, 4, 2, 6), _cn(rng, 4, 6), _cn(rng, 4, 2)
    block = combined_phase_vector(owner, gb, hb, h_db)
    assert block.shape == (4, 6)
    for t in range(4):
        np.testing.assert_array_equal(
            block[t], combined_phase_vector(owner, gb[t], hb[t], h_db[t]))
    with pytest.raises(ValueError):
        combined_phase_vector(owner, g[:1], h, h_d[:1])
    with pytest.raises(ValueError):
        combined_phase_vector(owner, g[:, :5], h[:5], h_d)


def test_combined_phase_vector_across_surfaces():
    # two surfaces on one element axis: each surface is split on its own
    owner = np.concatenate([partition_elements(4, 2), partition_elements(9, 2)])
    rng = np.random.default_rng(13)
    g, h, h_d = _cn(rng, 2, 13), _cn(rng, 13), _cn(rng, 2)
    out = combined_phase_vector(owner, g, h, h_d)
    per_user = [optimal_phases(g[u], h, h_d[u]) for u in range(2)]
    picks = [0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1, 1]
    np.testing.assert_array_equal(out, [per_user[u][k] for k, u in enumerate(picks)])
