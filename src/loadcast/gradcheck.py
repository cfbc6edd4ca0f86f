"""Finite-difference verification of the tape's analytic gradients.

Central differences with a fixed step, compared block by block against the
analytic gradients, using the scale-aware relative error
``|a - f| / max(|a|, |f|, 1e-6)``.  A corrupt hook deliberately perturbs one
analytic block so callers can prove the checker catches wrong gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import datetime as dt

from .cells import CellKind, cell_gradient, cell_init, cell_step, new_state
from .errors import ConfigError
from .network import (
    HEAD_SIZE,
    ModelConfig,
    model_backward,
    model_build,
    model_new_state,
    model_unroll,
)
from .preprocess import ExtendedInput, calendar_features
from .tape import Tape

DEFAULT_STEP = 1e-4
MULTI_STEP_TOL = 1e-3
SINGLE_STEP_TOL = 1e-4


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)


@dataclass
class BlockReport:
    name: str
    worst_rel_error: float
    worst_coordinate: int | None
    checked: int


@dataclass
class GradCheckReport:
    blocks: list[BlockReport] = field(default_factory=list)
    tolerance: float = MULTI_STEP_TOL

    @property
    def worst(self) -> float:
        return max((b.worst_rel_error for b in self.blocks), default=0.0)

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def failing_blocks(self) -> list[BlockReport]:
        return [b for b in self.blocks if b.worst_rel_error > self.tolerance]


def corrupt_gradient(grad: np.ndarray) -> np.ndarray:
    """Perturbation guaranteed to trip the relative-error threshold."""
    return grad * 1.01 + 0.01


def check_gradients(
    value_fn,
    gradient_fn,
    blocks,
    *,
    step: float = DEFAULT_STEP,
    tolerance: float = MULTI_STEP_TOL,
    max_coords_per_block: int | None = None,
    rng: np.random.Generator | None = None,
    corrupt_block: str | None = None,
) -> GradCheckReport:
    """Compare analytic gradients to central differences.

    ``value_fn()`` must run a fresh forward pass off the current contents of
    the block arrays, which are perturbed in place and restored.
    ``gradient_fn()`` returns a dict of analytic gradients keyed like
    ``blocks``.
    """
    analytic = gradient_fn()
    if corrupt_block is not None:
        if corrupt_block not in analytic:
            raise KeyError(f"no gradient block named {corrupt_block!r}; "
                           f"choose from {', '.join(analytic)}")
        analytic = dict(analytic)
        analytic[corrupt_block] = corrupt_gradient(analytic[corrupt_block])
    reports = []
    for name, arr in blocks:
        grad = np.asarray(analytic[name])
        if grad.shape != arr.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        flat = arr.flat  # writes through to views into stacked matrices
        gflat = grad.reshape(-1)
        if max_coords_per_block is not None and arr.size > max_coords_per_block:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = np.sort(rng.choice(arr.size, size=max_coords_per_block,
                                        replace=False))
        else:
            coords = range(arr.size)
        worst, worst_at, checked = 0.0, None, 0
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + step
            f_plus = value_fn()
            flat[idx] = orig - step
            f_minus = value_fn()
            flat[idx] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = relative_error(float(gflat[idx]), numeric)
            checked += 1
            if err > worst:
                worst, worst_at = err, int(idx)
        reports.append(BlockReport(name, worst, worst_at, checked))
    return GradCheckReport(blocks=reports, tolerance=tolerance)


def check_cell(
    kind: CellKind,
    input_size: int,
    hidden_size: int,
    *,
    out_size: int | None = None,
    upper_hidden_size: int | None = None,
    connection=None,
    dilation: int = 1,
    steps: int = 5,
    seed: int = 0,
    max_coords_per_block: int | None = None,
    corrupt_block: str | None = None,
) -> GradCheckReport:
    """Gradient-check one randomly initialized cell.

    The objective is ``sum_t w_t . y_t`` with fixed random positive weights
    drawn from U(0.5, 1.5), so every output component carries gradient.
    Parameter blocks and the per-step inputs are all checked.
    """
    if steps < 1:
        raise ConfigError("gradient check needs at least one step")
    rng = np.random.default_rng(seed)
    params, _ = cell_init(kind, input_size, hidden_size, out_size=out_size,
                          upper_hidden_size=upper_hidden_size,
                          connection=connection, dilation=dilation, seed=rng)
    inputs = [rng.normal(size=input_size) for _ in range(steps)]
    weights = [rng.uniform(0.5, 1.5, size=params.out_size) for _ in range(steps)]

    def value():
        ys = cell_step(params, new_state(params, dilation), np.stack(inputs),
                       dilation)
        return sum(float(w @ y) for w, y in zip(weights, ys))

    def gradient():
        param_grads, input_grads = cell_gradient(params, inputs, dilation, weights)
        for t, g in enumerate(input_grads):
            param_grads[f"x[{t}]"] = g
        return param_grads

    blocks = params.named_arrays() + [(f"x[{t}]", x) for t, x in enumerate(inputs)]
    tolerance = SINGLE_STEP_TOL if steps == 1 else MULTI_STEP_TOL
    return check_gradients(value, gradient, blocks, tolerance=tolerance,
                           max_coords_per_block=max_coords_per_block,
                           rng=rng, corrupt_block=corrupt_block)


def random_day_inputs(rng: np.random.Generator, steps: int,
                      start=dt.date(2024, 1, 1)) -> ExtendedInput:
    """Synthetic but well-formed inputs of ``steps`` consecutive dates, one
    series' window of (steps, ...) arrays, without a coding."""
    week, level = map(np.array, zip(*[
        (rng.normal(size=168), rng.normal(loc=2.5, scale=0.3))
        for _ in range(steps)]))
    return ExtendedInput(week, level, calendar_features(
        start.toordinal() + np.arange(steps)), None)


def check_model(
    config: ModelConfig | None = None,
    *,
    steps: int = 6,
    seed: int = 0,
    max_coords_per_block: int | None = None,
    corrupt_block: str | None = None,
) -> GradCheckReport:
    """Gradient-check the full stacked model end to end.

    Objective is a fixed random positive reweighting of every output
    component over all steps, so each head slice carries gradient.  Large
    blocks are usually subsampled via ``max_coords_per_block``.
    """
    if config is None:
        config = ModelConfig(cell_variant="adrnn", hidden_size=3, out_size=3,
                             embed_size=4)
    rng = np.random.default_rng(seed)
    model = model_build(config, seed=rng)
    # one series as a one-row batch: (steps, 1, ...)
    window = random_day_inputs(rng, steps)[:, None]
    weights = rng.uniform(0.5, 1.5, size=(steps, 1, HEAD_SIZE))

    def value():
        heads = model_unroll(model, model_new_state(model), window)
        return sum(float(w @ h) for w, h in zip(weights[:, 0], heads[:, 0]))

    def gradient():
        tape, states = Tape(), model_new_state(model)
        model_unroll(model, states, window, tape)
        return dict(model.named_arrays(
            model_backward(model, states, tape, weights)))

    tolerance = SINGLE_STEP_TOL if steps == 1 else MULTI_STEP_TOL
    return check_gradients(value, gradient, model.named_arrays(),
                           tolerance=tolerance,
                           max_coords_per_block=max_coords_per_block,
                           rng=rng, corrupt_block=corrupt_block)
