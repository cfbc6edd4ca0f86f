"""Cross-learning trainer and day-ahead forecasting.

One model is trained on the pooled samples of every series: the rows of the
training set's table.  A truncation window is a range of one series'
consecutive rows.  Each epoch shuffles the series, groups them into batches
of the scheduled size, and walks the batch through successive truncated
windows: every window-group produces one Adam update from the composite loss
averaged over all (series, day) pairs it contains.  A window-group is
gathered from the table by one index matrix and unrolled as one batch, its
series stacked as rows; a short window (the end of a contiguous run) is
padded to the group's longest with zero loss weight.  Hidden state carries
across windows of the same contiguous stretch, but each window records on a
fresh tape, so gradients never reach past a window boundary.  Ensembling
trains one member per seed and averages forecasts in megawatt space after
decoding.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    LoadcastError,
    NoTrainableSamplesError,
    TrainingDivergedError,
)
from .evaluation import ForecastRecord
from .loss import LossConfig, composite_loss, composite_loss_grad
from .network import (
    ModelConfig,
    StackedModel,
    model_backward,
    model_build,
    model_new_state,
    model_step,
    model_unroll,
)
from .preprocess import (
    ExtendedInput,
    HourlySeries,
    TrainingSet,
    build_extended_input,
    decode_day,
)

#: days of history unrolled before a forecast when available
WARMUP_DAYS = 56

_DAY = dt.timedelta(days=1)


def _validated_schedule(schedule, name, *, integral=False):
    if not schedule:
        raise ConfigError(f"{name} schedule is empty")
    for epoch, value in schedule.items():
        if not isinstance(epoch, int) or epoch < 1:
            raise ConfigError(f"{name} schedule keys must be epochs >= 1")
        if integral and not isinstance(value, int):
            raise ConfigError(f"{name} schedule values must be integers")
        if not 0 < value < np.inf:  # no np.isfinite: ints may pass float range
            raise ConfigError(f"{name} schedule values must be positive")
    if 1 not in schedule:
        raise ConfigError(f"{name} schedule must start at epoch 1")
    return dict(sorted(schedule.items()))


def _schedule_value(schedule, epoch):
    value = None
    for start, v in schedule.items():
        if start > epoch:
            break
        value = v
    return value


@dataclass(frozen=True)
class TrainRecipe:
    """Epoch count, staged learning rates and batch sizes, Adam settings.

    Schedules are change-point maps: the value at epoch e is the entry
    with the largest key <= e.  Defaults follow the reference regime of
    10 epochs with rates 3e-3 / 1e-3 / 3e-4 / 1e-4 switching at epochs
    6, 7 and 8, and series-batches of 2 growing to 5 at epoch 4.
    """

    epochs: int = 10
    learning_rates: dict[int, float] = field(
        default_factory=lambda: {1: 3e-3, 6: 1e-3, 7: 3e-4, 8: 1e-4})
    batch_sizes: dict[int, int] = field(default_factory=lambda: {1: 2, 4: 5})
    window_days: int = 56
    clip_norm: float | None = 10.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        object.__setattr__(self, "learning_rates", _validated_schedule(
            self.learning_rates, "learning rate"))
        object.__setattr__(self, "batch_sizes", _validated_schedule(
            self.batch_sizes, "batch size", integral=True))
        if self.window_days < 1:
            raise ConfigError("window_days must be >= 1")
        if self.clip_norm is not None and self.clip_norm <= 0.0:
            raise ConfigError("clip_norm must be positive or None")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ConfigError("Adam betas must lie in [0, 1)")
        if self.epsilon <= 0.0:
            raise ConfigError("Adam epsilon must be positive")
        if not self.seeds:
            raise ConfigError("need at least one ensemble seed")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))

    def lr_at(self, epoch: int) -> float:
        return _schedule_value(self.learning_rates, epoch)

    def batch_at(self, epoch: int) -> int:
        return _schedule_value(self.batch_sizes, epoch)


class Adam:
    """Adam with bias correction, updating (key, array) pairs in place;
    the trainer keys the model's stacked blocks by position."""

    def __init__(self, arrays, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.arrays = list(arrays)
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self.step_count = 0
        self._m = {name: np.zeros_like(arr) for name, arr in self.arrays}
        self._v = {name: np.zeros_like(arr) for name, arr in self.arrays}
        # one scratch pair for every block, sized to the largest
        size = max((arr.size for _, arr in self.arrays), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, grads: dict, lr: float):
        """``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g^2`` and
        ``arr -= lr (m / bc1) / (sqrt(v / bc2) + eps)``, evaluated in place
        in that order."""
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for name, arr in self.arrays:
            g = grads[name]
            m, v = self._m[name], self._v[name]
            s, t = (buf[:arr.size].reshape(arr.shape) for buf in self._scratch)
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=s)
            v *= self.beta2
            np.multiply(g, g, out=s)
            v += np.multiply(1.0 - self.beta2, s, out=s)
            np.divide(m, bc1, out=s)
            np.multiply(lr, s, out=s)
            np.divide(v, bc2, out=t)
            np.sqrt(t, out=t)
            t += self.epsilon
            s /= t
            arr -= s


def clip_global_norm(grads: dict, max_norm: float | None) -> float:
    """Scale the whole gradient dict in place; returns the pre-clip norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if max_norm is not None and norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


@dataclass
class TrainResult:
    model: StackedModel
    epoch_losses: list
    update_count: int


@dataclass(frozen=True)
class EnsembleModel:
    members: tuple

    def __post_init__(self):
        if not self.members:
            raise ConfigError("ensemble needs at least one member")
        object.__setattr__(self, "members", tuple(self.members))

    @property
    def config(self) -> ModelConfig:
        return self.members[0].config


def series_windows(data: TrainingSet, window_days: int) -> dict:
    """Each series' non-overlapping truncation windows, as ``(lo, hi,
    fresh)`` row ranges of ``data``.  A contiguous stretch ends where the
    series changes or the next row is not the next day; ``fresh`` flags a
    window that opens one (cold state)."""
    cuts = (np.flatnonzero((data.series_id[1:] != data.series_id[:-1])
                           | (np.diff(data.date) != np.timedelta64(1, "D")))
            + 1).tolist()
    out = {}
    for lo, hi in zip([0, *cuts], [*cuts, len(data)]):
        out.setdefault(str(data.series_id[lo]), []).extend(
            (i, min(i + window_days, hi), i == lo)
            for i in range(lo, hi, window_days))
    return out


def _group_state(model, states, rows, entries):
    """The batched state for the window-group ``entries``: carried rows of
    ``states`` (whose rows are the series ``rows``) re-indexed, zero rows
    for a series whose window opens a fresh stretch."""
    fresh = [is_fresh for _, (_, _, is_fresh) in entries]
    if all(fresh):
        return model_new_state(model)
    states.regroup([0 if is_fresh else rows.index(sid)
                    for (sid, _), is_fresh in zip(entries, fresh)], fresh)
    return states


def _window_group_update(model, optimizer, data, ranges, states, lr,
                         clip_norm, loss_config, epoch):
    """One forward/backward/update over the k-th window of each series of a
    group, unrolled as one batch with the series as rows.  ``ranges`` are
    the windows' ``(lo, hi)`` rows of ``data``; a short window repeats its
    last row to the longest's length."""
    lo, hi = np.array(ranges).T
    n, t = hi - lo, np.arange(max(hi - lo))
    rows = lo + np.minimum.outer(t, n - 1)
    inputs = ExtendedInput(data.input.week[rows], data.input.level[rows],
                           data.input.calendar[rows], None)
    outputs, tape = model_unroll(model, states, inputs)
    # the real (series, day) pairs, series by series; padded days get none
    series, days = np.nonzero(t < n[:, None])
    heads = np.stack(outputs)[days, series]
    target = data.target[rows[days, series]]
    point, lower, upper = np.split(heads, 3, axis=-1)
    loss_sum = float(np.sum(composite_loss(target, point, lower, upper,
                                           loss_config)))
    pairs = len(target)
    if not np.isfinite(loss_sum):
        raise TrainingDivergedError(
            f"non-finite training loss in epoch {epoch}")
    seed = np.zeros((len(outputs), len(ranges), heads.shape[-1]))
    seed[days, series] = np.concatenate(composite_loss_grad(
        target, point, lower, upper, loss_config), axis=-1) / pairs
    grads = dict(enumerate(model_backward(model, states, tape, seed)))
    clip_global_norm(grads, clip_norm)
    optimizer.step(grads, lr)
    return loss_sum, pairs


def train(data: TrainingSet, config: ModelConfig, recipe: TrainRecipe,
          seed: int = 0, loss_config: LossConfig | None = None) -> TrainResult:
    """Train one model over the pooled series; deterministic given seed.

    The seed drives both initialization and epoch shuffles from a single
    generator, so a zero-epoch recipe returns exactly the initialized
    model.
    """
    if len(data) == 0:
        raise NoTrainableSamplesError("empty training set")
    if loss_config is None:
        loss_config = LossConfig()
    rng = np.random.default_rng(seed)
    model = model_build(config, rng)
    blocks = model.blocks()
    optimizer = Adam(enumerate(blocks), recipe.beta1, recipe.beta2,
                     recipe.epsilon)
    series_ids = data.series_ids
    windows = series_windows(data, recipe.window_days)
    epoch_losses = []
    for epoch in range(1, recipe.epochs + 1):
        lr = recipe.lr_at(epoch)
        batch_size = recipe.batch_at(epoch)
        order = [series_ids[i] for i in rng.permutation(len(series_ids))]
        loss_sum = 0.0
        pair_count = 0
        for start in range(0, len(order), batch_size):
            group = order[start:start + batch_size]
            states, rows = None, []
            slots = max(len(windows[sid]) for sid in group)
            for k in range(slots):
                entries = [(sid, windows[sid][k]) for sid in group
                           if k < len(windows[sid])]
                states = _group_state(model, states, rows, entries)
                rows = [sid for sid, _ in entries]
                batch_loss, pairs = _window_group_update(
                    model, optimizer, data,
                    [(lo, hi) for _, (lo, hi, _) in entries], states, lr,
                    recipe.clip_norm, loss_config, epoch)
                loss_sum += batch_loss
                pair_count += pairs
        epoch_losses.append(loss_sum / pair_count)
    return TrainResult(model=model, epoch_losses=epoch_losses,
                       update_count=optimizer.step_count)


def train_ensemble(data: TrainingSet, config: ModelConfig,
                   recipe: TrainRecipe,
                   loss_config: LossConfig | None = None) -> EnsembleModel:
    """Independently trained members, one per recipe seed."""
    results = [train(data, config, recipe, seed=s, loss_config=loss_config)
               for s in recipe.seeds]
    return EnsembleModel(tuple(r.model for r in results))


# -- forecasting -----------------------------------------------------------


def _warmup_inputs(series: HourlySeries, day: dt.date, warmup_days: int):
    """Inputs for up to ``warmup_days`` days ending the day before ``day``,
    walking back until the first day whose window cannot be built."""
    inputs = []
    cursor = day - _DAY
    while len(inputs) < warmup_days:
        try:
            inputs.append(build_extended_input(series, cursor))
        except LoadcastError:
            break
        cursor -= _DAY
    inputs.reverse()
    return inputs


def _decoded_step(member, state, ext):
    return tuple(decode_day(v, ext.coding)
                 for v in model_step(member, state, ext).reshape(3, -1))


def forecast(ensemble: EnsembleModel, series: HourlySeries,
             target_date: dt.date, *, warmup_days: int = WARMUP_DAYS,
             label: str | None = None) -> ForecastRecord:
    """Member-mean day-ahead forecast in MW: the one-day case of
    :func:`forecast_range`.

    Raises the input builder's :class:`LoadcastError` when ``target_date``
    has no input.
    """
    records = forecast_range(ensemble, series, target_date, target_date,
                             warmup_days=warmup_days, label=label)
    if not records:
        build_extended_input(series, target_date)  # raises why it was skipped
    return records[0]


def forecast_range(ensemble: EnsembleModel, series: HourlySeries,
                   first_date: dt.date, last_date: dt.date, *,
                   warmup_days: int = WARMUP_DAYS,
                   label: str | None = None) -> list:
    """Member-mean forecasts in MW for every buildable day in the inclusive
    date range.

    Members are warmed by evaluation steps over up to ``warmup_days`` days
    before each contiguous stretch (fewer when history runs out), then
    advance one evaluation step per day, decoded with that day's coding
    variables.  Days whose input cannot be built are skipped and reset the
    state.
    """
    if last_date < first_date:
        raise ValueError("empty date range")
    if label is None:
        label = ensemble.config.cell_variant
    records = []
    states = None
    day = first_date
    while day <= last_date:
        try:
            ext = build_extended_input(series, day)
        except LoadcastError:
            states = None
            day += _DAY
            continue
        if states is None:
            states = [model_new_state(m) for m in ensemble.members]
            warm = _warmup_inputs(series, day, warmup_days)
            for member, state in zip(ensemble.members, states):
                for w in warm:
                    model_step(member, state, w)
        decoded = [_decoded_step(member, state, ext)
                   for member, state in zip(ensemble.members, states)]
        point, lower, upper = (np.mean(d, axis=0) for d in zip(*decoded))
        records.append(ForecastRecord(series.series_id, day, point, lower,
                                      upper, model=label))
        day += _DAY
    return records
