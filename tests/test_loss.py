"""Pinball and composite loss against worked values and scalar oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadcast.errors import ConfigError
from loadcast.loss import (
    LossConfig,
    composite_loss,
    composite_loss_grad,
    pinball,
    pinball_grad,
)


def scalar_pinball(y, yhat, q):
    d = y - yhat
    return d * q if d >= 0 else d * (q - 1.0)


def scalar_composite(target, point, lower, upper, cfg):
    total = 0.0
    for h in range(len(target)):
        total += scalar_pinball(target[h], point[h], cfg.central_quantile)
        total += cfg.interval_weight * scalar_pinball(target[h], lower[h],
                                                      cfg.lower_quantile)
        total += cfg.interval_weight * scalar_pinball(target[h], upper[h],
                                                      cfg.upper_quantile)
    return total / len(target)


def test_worked_pinball_values():
    assert pinball(10.0, 9.0, 0.5) == (10.0 - 9.0) * 0.5
    assert float(pinball(10.0, 9.0, 0.5)) == 0.5
    assert float(pinball(10.0, 10.0, 0.17)) == 0.0
    assert pinball(10.0, 12.0, 0.95) == (10.0 - 12.0) * (0.95 - 1.0)
    assert float(pinball(10.0, 12.0, 0.95)) == pytest.approx(0.1, abs=1e-15)


def test_asymmetry_direction():
    # a low quantile punishes over-forecasting far harder than under
    assert float(pinball(0.0, 1.0, 0.05)) == pytest.approx(0.95)
    assert float(pinball(1.0, 0.0, 0.05)) == pytest.approx(0.05)
    # and a high quantile does the reverse
    assert float(pinball(0.0, 1.0, 0.95)) == pytest.approx(0.05)
    assert float(pinball(1.0, 0.0, 0.95)) == pytest.approx(0.95)


def test_composite_matches_scalar_oracle():
    rng = np.random.default_rng(8)
    cfg = LossConfig()
    for _ in range(40):
        n = int(rng.integers(1, 30))
        target = rng.normal(size=n)
        point, lower, upper = (rng.normal(size=n) for _ in range(3))
        got = composite_loss(target, point, lower, upper, cfg)
        want = scalar_composite(target, point, lower, upper, cfg)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-15)


def test_zero_interval_weight_reduces_to_central_pinball():
    rng = np.random.default_rng(9)
    cfg = LossConfig(interval_weight=0.0)
    target = rng.normal(size=24)
    point, lower, upper = (rng.normal(size=24) for _ in range(3))
    assert composite_loss(target, point, lower, upper, cfg) == float(
        np.mean(pinball(target, point, 0.5)))


def test_perfect_forecast_scores_zero():
    y = np.linspace(1.0, 5.0, 24)
    assert composite_loss(y, y, y, y) == pytest.approx(
        0.0 + 0.3 * (0.0 + 0.0), abs=0)


def test_grad_matches_finite_differences_away_from_kinks():
    rng = np.random.default_rng(10)
    cfg = LossConfig()
    target = rng.normal(size=12)
    point = target + rng.choice([-1.0, 1.0], size=12) * rng.uniform(0.1, 1.0, 12)
    lower = target + rng.choice([-1.0, 1.0], size=12) * rng.uniform(0.1, 1.0, 12)
    upper = target + rng.choice([-1.0, 1.0], size=12) * rng.uniform(0.1, 1.0, 12)
    g_point, g_lower, g_upper = composite_loss_grad(target, point, lower, upper, cfg)
    eps = 1e-6
    for arr, grad in [(point, g_point), (lower, g_lower), (upper, g_upper)]:
        for i in range(12):
            orig = arr[i]
            arr[i] = orig + eps
            f_plus = composite_loss(target, point, lower, upper, cfg)
            arr[i] = orig - eps
            f_minus = composite_loss(target, point, lower, upper, cfg)
            arr[i] = orig
            fd = (f_plus - f_minus) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_grad_at_kink_takes_actual_ge_predicted_branch():
    g = pinball_grad(3.0, 3.0, 0.75)
    assert float(g) == -0.75
    gp, gl, gu = composite_loss_grad(np.full(4, 2.0), np.full(4, 2.0),
                                     np.full(4, 2.0), np.full(4, 2.0))
    np.testing.assert_array_equal(gp, -0.5 / 4)
    np.testing.assert_allclose(gl, 0.3 * -0.05 / 4, rtol=1e-15)
    np.testing.assert_allclose(gu, 0.3 * -0.95 / 4, rtol=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    y=st.floats(-1e6, 1e6),
    yhat=st.floats(-1e6, 1e6),
    q=st.floats(0.001, 0.999),
)
@example(y=0.0, yhat=5e-324, q=0.5)
def test_pinball_nonnegative_and_zero_only_at_match(y, yhat, q):
    val = float(pinball(y, yhat, q))
    assert val >= 0.0
    if y != yhat:
        # the product of a nonzero difference and a slope can still round
        # to 0.0 when its exact value is at most half the smallest
        # subnormal (0.5 * 5e-324 ties to even, which is zero)
        d = y - yhat
        exact = abs(Fraction(d) * Fraction(q if d >= 0 else q - 1.0))
        half_ulp = Fraction(np.finfo(np.float64).smallest_subnormal) / 2
        assert (val > 0.0) == (exact > half_ulp)


@given(q1=st.floats(0.01, 0.98), dq=st.floats(0.001, 0.01))
def test_pinball_increases_with_quantile_when_under_forecasting(q1, dq):
    # actual above forecast: loss is q * diff, monotone in q
    assert pinball(5.0, 3.0, q1 + dq) >= pinball(5.0, 3.0, q1)


def test_config_validation():
    with pytest.raises(ConfigError):
        LossConfig(central_quantile=0.0)
    with pytest.raises(ConfigError):
        LossConfig(lower_quantile=0.9, upper_quantile=0.1)
    with pytest.raises(ConfigError):
        LossConfig(interval_weight=-0.1)
    with pytest.raises(ValueError):
        composite_loss(np.ones(3), np.ones(4), np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        composite_loss(np.ones(0), np.ones(0), np.ones(0), np.ones(0))


def test_defaults_are_the_training_quantiles():
    cfg = LossConfig()
    assert (cfg.central_quantile, cfg.lower_quantile, cfg.upper_quantile) == (
        0.5, 0.05, 0.95)
    assert cfg.interval_weight == 0.3


def test_rows_of_days_equal_one_day_at_a_time_bitwise():
    rng = np.random.default_rng(5)
    target, point, lower, upper = rng.normal(size=(4, 7, 24))
    cfg = LossConfig(interval_weight=0.4)
    losses = composite_loss(target, point, lower, upper, cfg)
    grads = composite_loss_grad(target, point, lower, upper, cfg)
    assert losses.shape == (7,)
    for r in range(7):
        row = (target[r], point[r], lower[r], upper[r])
        assert losses[r] == composite_loss(*row, cfg)
        for got, want in zip(grads, composite_loss_grad(*row, cfg)):
            np.testing.assert_array_equal(got[r], want)
