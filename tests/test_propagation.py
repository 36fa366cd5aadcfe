import math

import numpy as np
import pytest

from risim.propagation import (
    LOS_73GHZ, NLOS_73GHZ, SPEED_OF_LIGHT, LosMode, LosModel, PathlossParams,
    element_gain, los_indicator, los_probability, pathloss_db, sample_shadow,
    wavelength, wavenumber,
)

# hand evaluations at 73 GHz (lambda = c / 73e9)
F73 = 73e9
LOS_1M_DB = -69.7142404242925
NLOS_10M_DB = -101.61424042429249


def test_wavelength_and_wavenumber():
    lam = wavelength(73e9)
    assert lam * 73e9 == pytest.approx(SPEED_OF_LIGHT)
    assert wavenumber(73e9) * lam == pytest.approx(2 * math.pi)


def test_pathloss_reference_values():
    assert pathloss_db(LOS_73GHZ, F73, 1.0) == pytest.approx(LOS_1M_DB, abs=1e-9)
    assert pathloss_db(NLOS_73GHZ, F73, 10.0) == pytest.approx(NLOS_10M_DB, abs=1e-9)
    # coarse anchors
    assert pathloss_db(LOS_73GHZ, F73, 1.0) == pytest.approx(-69.71, abs=0.01)
    assert pathloss_db(NLOS_73GHZ, F73, 10.0) == pytest.approx(-101.61, abs=0.01)


def test_pathloss_inverse_square_slope():
    p = PathlossParams(exponent=2.0, freq_dependence=0.0, shadow_sigma_db=0.0,
                       ref_freq_hz=73e9)
    delta = pathloss_db(p, F73, 2.0) - pathloss_db(p, F73, 1.0)
    assert delta == pytest.approx(-6.020599913279624, abs=1e-12)


def test_pathloss_monotone_and_array():
    d = np.linspace(1.0, 200.0, 50)
    out = pathloss_db(NLOS_73GHZ, F73, d)
    assert out.shape == d.shape
    assert np.all(np.diff(out) < 0)
    # a float distance takes the same path and comes back as a float
    singles = [pathloss_db(NLOS_73GHZ, F73, float(x)) for x in d]
    assert all(type(v) is float for v in singles) and singles == out.tolist()


def test_pathloss_shadow_shift_and_errors():
    with pytest.raises(ValueError):
        pathloss_db(LOS_73GHZ, F73, 0.0)
    with pytest.raises(ValueError):
        pathloss_db(LOS_73GHZ, F73, np.array([1.0, -2.0]))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_pathloss_rejects_non_positive_and_non_finite_distances(bad):
    for dist in (bad, np.array([5.0, bad]), np.array(bad)):
        with pytest.raises(ValueError, match="positive, finite distance"):
            pathloss_db(NLOS_73GHZ, F73, dist)


def test_freq_dependence_inert_at_anchor():
    with_b = PathlossParams(exponent=3.19, freq_dependence=0.06,
                            shadow_sigma_db=0.0, ref_freq_hz=73e9)
    without = PathlossParams(exponent=3.19, freq_dependence=0.0,
                             shadow_sigma_db=0.0, ref_freq_hz=73e9)
    for d in (1.0, 7.0, 120.0):
        assert pathloss_db(with_b, F73, d) == pytest.approx(pathloss_db(without, F73, d),
                                                            abs=1e-12)
    # off the anchor the exponent moves with the carrier, n (1 + b (f - f0) / f0)
    assert with_b.slope(28e9) == pytest.approx(3.19 * (1 - 0.06 * 45 / 73), rel=1e-12)
    assert without.slope(28e9) == 3.19


def test_pathloss_params_validation():
    with pytest.raises(ValueError):
        PathlossParams(exponent=0.0, freq_dependence=0.0, shadow_sigma_db=1.0,
                       ref_freq_hz=73e9)
    with pytest.raises(ValueError):
        PathlossParams(exponent=2.0, freq_dependence=0.0, shadow_sigma_db=-1.0,
                       ref_freq_hz=73e9)


def test_shadow_moments():
    assert sample_shadow(0.0, np.random.default_rng(0)) == 0.0
    draws = sample_shadow(8.29, np.random.default_rng(42), size=100_000)
    assert np.std(draws) == pytest.approx(8.29, rel=0.02)
    assert abs(np.mean(draws)) < 3 * 8.29 / math.sqrt(100_000)


def test_los_deterministic_modes():
    rng = np.random.default_rng(5)
    assert los_indicator(LosModel(mode=LosMode.ALWAYS), 50.0, 1.0, 2.0, rng) == 1
    assert los_indicator(LosModel(mode=LosMode.NEVER), 1.0, 9.0, 2.0, rng) == 0
    # deterministic modes must not consume randomness
    assert rng.random() == np.random.default_rng(5).random()


def test_los_probability_rules():
    model = LosModel(mode=LosMode.PROBABILISTIC, decay_length_m=30.0)
    assert los_probability(model, 30.0, 1.0, 2.0) == pytest.approx(math.exp(-1))
    assert los_probability(model, 90.0, 1.0, 2.0) == pytest.approx(math.exp(-3))
    # endpoint at or above the transmitter forces visibility
    assert los_probability(model, 500.0, 2.0, 2.0) == 1.0
    relaxed = LosModel(mode=LosMode.PROBABILISTIC, decay_length_m=30.0,
                       force_if_above_tx=False)
    assert los_probability(relaxed, 30.0, 5.0, 2.0) == pytest.approx(math.exp(-1))
    with pytest.raises(ValueError):
        LosModel(decay_length_m=0.0)


def test_nan_decay_length_is_rejected():
    """exp(-d / nan) is nan, which no draw falls below: passed on, a nan
    decay length blocked every probabilistic link without an error."""
    with pytest.raises(ValueError, match="decay_length_m"):
        LosModel(decay_length_m=math.nan)


def test_los_empirical_mean_quick():
    model = LosModel(mode=LosMode.PROBABILISTIC, decay_length_m=30.0)
    rng = np.random.default_rng(123)
    n = 20_000
    mean = sum(los_indicator(model, 30.0, 1.0, 2.0, rng) for _ in range(n)) / n
    assert mean == pytest.approx(math.exp(-1), abs=0.02)


def test_element_gain_values():
    assert element_gain(0.0, q=0.0) == 2.0
    assert element_gain(1.2, q=0.0) == 2.0          # flat front pattern
    assert element_gain(math.pi / 2, q=0.0) == 2.0  # 0**0 = 1 edge
    assert element_gain(0.0, q=0.285) == pytest.approx(3.14, abs=0.01)
    assert element_gain(0.0, q=0.285) == pytest.approx(2 * (2 * 0.285 + 1))
    assert element_gain(math.pi / 2, q=0.285) == pytest.approx(0.0, abs=1e-8)
    assert element_gain(2.0, q=0.285) == 0.0        # behind the surface
    assert element_gain(-2.0, q=1.0) == 0.0
    with pytest.raises(ValueError):
        element_gain(0.0, q=-0.1)


def test_element_gain_array_shape():
    th = np.array([0.0, 0.5, 2.0, -2.0])
    out = element_gain(th, q=1.0)
    assert out.shape == th.shape
    assert out[2] == 0.0 and out[3] == 0.0
    assert out[1] == pytest.approx(6.0 * math.cos(0.5) ** 2)


@pytest.mark.parametrize("q", [0.0, 0.285, 1.0])
def test_element_gain_hemisphere_power(q):
    """The pattern radiates the full 4 pi steradians' worth of power over the
    front hemisphere: integral of G(t) sin(t) dt dphi from boresight = 4 pi."""
    t = np.linspace(0.0, math.pi / 2, 20_001)
    integral = 2 * math.pi * np.trapezoid(element_gain(t, q=q) * np.sin(t), t)
    assert integral == pytest.approx(4 * math.pi, rel=0.005)
