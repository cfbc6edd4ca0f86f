"""Quantile (pinball) loss and the composite training objective.

The training objective for one forecasted day averages, over the horizon,
the pinball loss of the central forecast plus a weighted sum of the pinball
losses of the two interval bounds at their respective quantiles.  It takes
one day, or a batch of days as rows, one horizon mean per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class LossConfig:
    """Pinball quantiles and bound weight; ``key`` metadata names each
    field in run-config and model-file JSON."""

    central_quantile: float = field(default=0.5, metadata={"key": "q_star"})
    lower_quantile: float = field(default=0.05, metadata={"key": "q_lower"})
    upper_quantile: float = field(default=0.95, metadata={"key": "q_upper"})
    interval_weight: float = field(default=0.3, metadata={"key": "gamma"})

    def __post_init__(self):
        for q in (self.central_quantile, self.lower_quantile, self.upper_quantile):
            if not 0.0 < q < 1.0:
                raise ConfigError(f"quantile {q} outside (0, 1)")
        if self.lower_quantile >= self.upper_quantile:
            raise ConfigError("lower quantile must be below upper quantile")
        if self.interval_weight < 0.0:
            raise ConfigError("interval weight must be non-negative")


def pinball(actual, predicted, quantile: float):
    """Elementwise pinball loss; the ``actual >= predicted`` branch pays
    ``quantile`` per unit of shortfall, the other pays ``1 - quantile``."""
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    diff = actual - predicted
    return np.where(diff >= 0.0, diff * quantile, diff * (quantile - 1.0))


def pinball_grad(actual, predicted, quantile: float):
    """d pinball / d predicted; the kink at equality takes the
    ``actual >= predicted`` branch, giving ``-quantile``."""
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    return np.where(actual - predicted >= 0.0, -quantile, 1.0 - quantile)


def _check_lengths(target, point, lower, upper):
    target = np.asarray(target, dtype=np.float64)
    point = np.asarray(point, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    if not target.shape == point.shape == lower.shape == upper.shape:
        raise ValueError("target and forecast components must share one shape")
    if target.ndim not in (1, 2) or target.size == 0:
        raise ValueError("expected non-empty 1-d arrays or rows of them")
    return target, point, lower, upper


def composite_loss(target, point, lower, upper,
                   config: LossConfig = LossConfig()):
    """Mean over the horizon of central pinball plus weighted bound pinballs:
    a float for one day, one mean per row for rows of days."""
    target, point, lower, upper = _check_lengths(target, point, lower, upper)
    per_hour = (
        pinball(target, point, config.central_quantile)
        + config.interval_weight * (pinball(target, lower, config.lower_quantile)
                                    + pinball(target, upper, config.upper_quantile))
    )
    means = np.mean(per_hour, axis=-1)
    return means if means.ndim else float(means)


def composite_loss_grad(target, point, lower, upper,
                        config: LossConfig = LossConfig()):
    """Gradients of :func:`composite_loss` wrt point, lower, upper; each row
    of days has its own horizon mean."""
    target, point, lower, upper = _check_lengths(target, point, lower, upper)
    scale = 1.0 / target.shape[-1]
    g_point = scale * pinball_grad(target, point, config.central_quantile)
    g_lower = scale * config.interval_weight * pinball_grad(
        target, lower, config.lower_quantile)
    g_upper = scale * config.interval_weight * pinball_grad(
        target, upper, config.upper_quantile)
    return g_point, g_lower, g_upper
