import math

import numpy as np
import pytest

from risim.riscontrol import (
    PhaseConfig, cascade, combined_phase_vector, optimal_phases,
    partition_elements,
)


def test_phase_config_validation():
    PhaseConfig(phases=np.zeros(4))                      # default amplitude ok
    PhaseConfig(phases=np.zeros(4), amplitude=0.3)
    with pytest.raises(ValueError):
        PhaseConfig(phases=np.zeros(4), amplitude=0.0)
    with pytest.raises(ValueError):
        PhaseConfig(phases=np.zeros(4), amplitude=1.5)


def test_phase_config_coefficients():
    pc = PhaseConfig(phases=np.array([0.0, math.pi / 2]), amplitude=0.5)
    np.testing.assert_allclose(pc.coefficients(), [0.5, 0.5j], atol=1e-15)


def test_optimal_phases_trivial_on_positive_reals():
    pc = optimal_phases(np.ones(5), np.ones(5), 1.0)
    np.testing.assert_array_equal(pc.phases, np.zeros(5))
    assert pc.amplitude == 1.0


def test_optimal_phases_hand_value():
    pc = optimal_phases(np.array([np.exp(0.3j)]), np.array([np.exp(0.5j)]),
                        np.exp(0.1j))
    assert pc.phases[0] == pytest.approx(-0.9, abs=1e-12)


def test_cascade_cophased_sums_amplitudes():
    g = np.array([np.exp(0.3j), 2.0 * np.exp(1.0j)])
    h = np.array([np.exp(0.2j), np.exp(-0.5j)])
    c = cascade(g, optimal_phases(g, h, 1.0), h)
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
        c = cascade(g, optimal_phases(g, h, d), h)
        assert abs(c) == pytest.approx(np.sum(np.abs(g) * np.abs(h)), rel=1e-10)


def test_cascade_invariant_to_common_phase():
    rng = np.random.default_rng(13)
    g = rng.normal(size=8) + 1j * rng.normal(size=8)
    h = rng.normal(size=8) + 1j * rng.normal(size=8)
    ref = abs(cascade(g, optimal_phases(g, h, 1.0), h))
    rot = g * np.exp(0.77j)
    assert abs(cascade(rot, optimal_phases(rot, h, 1.0), h)) == \
        pytest.approx(ref, rel=1e-12)


def test_global_phase_lands_on_direct_link():
    rng = np.random.default_rng(17)
    g = rng.normal(size=6) + 1j * rng.normal(size=6)
    h = rng.normal(size=6) + 1j * rng.normal(size=6)
    d = np.exp(0.7j)
    c = cascade(g, optimal_phases(g, h, d, direct_phase_sign="paper"), h)
    assert np.angle(c) == pytest.approx(-0.7, abs=1e-10)
    c = cascade(g, optimal_phases(g, h, d, direct_phase_sign="aligned"), h)
    assert np.angle(c) == pytest.approx(0.7, abs=1e-10)
    with pytest.raises(ValueError):
        optimal_phases(g, h, d, direct_phase_sign="bogus")


def test_zero_direct_link_counts_as_zero_phase():
    g = np.array([np.exp(0.4j)])
    h = np.array([np.exp(0.9j)])
    pc = optimal_phases(g, h, 0.0)
    assert pc.phases[0] == pytest.approx(-1.3, abs=1e-12)
    assert np.angle(cascade(g, pc, h)) == pytest.approx(0.0, abs=1e-12)


def test_phases_are_wrapped():
    rng = np.random.default_rng(19)
    g = 5.0 * (rng.normal(size=30) + 1j * rng.normal(size=30))
    h = 5.0 * (rng.normal(size=30) + 1j * rng.normal(size=30))
    pc = optimal_phases(g, h, complex(rng.normal(), rng.normal()))
    assert np.all(pc.phases > -math.pi) and np.all(pc.phases <= math.pi)


def test_cascade_trivials():
    g = np.ones(3, dtype=complex)
    pc = PhaseConfig(phases=np.zeros(3))
    assert cascade(g, pc, np.zeros(3, dtype=complex)) == 0.0
    with pytest.raises(ValueError):
        cascade(g, pc, np.ones(4, dtype=complex))
    with pytest.raises(ValueError):
        cascade(np.ones(4, dtype=complex), pc, np.ones(4, dtype=complex))


def test_cascade_linear_in_amplitude():
    rng = np.random.default_rng(23)
    g = rng.normal(size=5) + 1j * rng.normal(size=5)
    h = rng.normal(size=5) + 1j * rng.normal(size=5)
    full = cascade(g, optimal_phases(g, h, 1.0, amplitude=1.0), h)
    for alpha in (0.5, 0.25, 0.1):
        part = cascade(g, optimal_phases(g, h, 1.0, amplitude=alpha), h)
        assert part == pytest.approx(alpha * full, rel=1e-12)


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


def test_combined_phase_vector_mixes_blocks():
    owner = partition_elements(6, 2)
    out = combined_phase_vector(owner, [np.full(6, 0.1), np.full(6, 0.2)])
    np.testing.assert_allclose(out, [0.1, 0.1, 0.1, 0.2, 0.2, 0.2])
    with pytest.raises(ValueError):
        combined_phase_vector(owner, [np.full(6, 0.1)])
    with pytest.raises(ValueError):
        combined_phase_vector(owner, [np.full(5, 0.1), np.full(5, 0.2)])


def test_combined_phase_vector_across_surfaces():
    # two surfaces on one element axis: each surface is split on its own
    owner = np.concatenate([partition_elements(4, 2), partition_elements(9, 2)])
    per_user = [np.arange(13) * 1.0, -np.arange(13) * 1.0]
    out = combined_phase_vector(owner, per_user)
    np.testing.assert_array_equal(
        out, [0, 1, -2, -3, 4, 5, 6, 7, 8, -9, -10, -11, -12])
