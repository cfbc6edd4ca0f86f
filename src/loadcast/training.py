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
trains one member per seed.  Serving batches the same way, stretches as
rows: each run of buildable days of every series is one row, unrolled by
every member at once; members average their forecasts in MW after decoding.
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
    model_stack,
    model_unroll,
)
from .preprocess import (
    HOURS_PER_WEEK,
    HourlySeries,
    TrainingSet,
    build_extended_input,
    concat_inputs,
    decode_day,
    standardize_week,
)
from .tape import Tape

#: days of history unrolled before a forecast when available
WARMUP_DAYS = 56


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
        if min(self.seeds) < 0:
            raise ConfigError("ensemble seeds must be >= 0")

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


def _squared_norm(arrays) -> float:
    """The sum of the squares of every element of ``arrays``: inf or nan
    when one is not finite, or when the sum overflows."""
    total = 0.0
    for a in arrays:
        total += float(np.sum(a * a))
    return total


def clip_global_norm(grads: dict, max_norm: float | None) -> float:
    """Scale the whole gradient dict in place; returns the pre-clip norm."""
    norm = float(np.sqrt(_squared_norm(grads.values())))
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
        if any(m.config != self.members[0].config for m in self.members):
            raise ConfigError("ensemble members must share one model config")

    @property
    def config(self) -> ModelConfig:
        return self.members[0].config


def stretches(key, day):
    """The ``(lo, hi)`` row range arrays of the runs of rows of one ``key``
    whose ``day`` steps by one day; rows are in key, then day order."""
    cuts = np.flatnonzero((key[1:] != key[:-1]) | (np.diff(day) != 1)) + 1
    return np.r_[0, cuts], np.r_[cuts, len(key)]


def series_windows(data: TrainingSet, window_days: int) -> dict:
    """Each series' non-overlapping truncation windows, as ``(lo, hi,
    fresh)`` row ranges of ``data``, cut from its contiguous stretches;
    ``fresh`` flags a window that opens one (cold state)."""
    out = {}
    for lo, hi in zip(*(x.tolist() for x in stretches(data.series_id,
                                                       data.date))):
        out.setdefault(str(data.series_id[lo]), []).extend(
            (i, min(i + window_days, hi), i == lo)
            for i in range(lo, hi, window_days))
    return out


def _group_state(model, states, rows, entries):
    """The batched state for the window-group ``entries``: carried rows of
    ``states`` (whose rows are the series ``rows``) re-indexed, zero rows
    for a series whose window opens a fresh stretch."""
    fresh = np.array([is_fresh for _, (_, _, is_fresh) in entries])
    if fresh.all():
        return model_new_state(model)
    carried = np.array([0 if is_fresh else rows.index(sid)
                        for (sid, _), is_fresh in zip(entries, fresh)])
    for ring in states:
        ring.regroup(carried, fresh)
    return states


def _padded(lo, hi):
    """Row ranges ``[lo, hi)`` as one batch: (T, B) rows, a short range
    repeating its last row, and the ``(b, t)`` of the real cells, b by b."""
    n = hi - lo
    t = np.arange(max(n))
    return lo + np.minimum.outer(t, n - 1), *np.nonzero(t < n[:, None])


def _window_group_update(model, optimizer, data, ranges, states, lr,
                         clip_norm, loss_config, epoch):
    """One forward/backward/update over the k-th window of each series of a
    group, unrolled as one batch with the series as rows.  ``ranges`` are
    the windows' ``(lo, hi)`` rows of ``data``; a short window repeats its
    last row to the longest's length."""
    rows, series, days = _padded(*np.array(ranges).T)
    tape = Tape()
    heads = model_unroll(model, states, data.input[rows], tape)[days, series]
    target = data.target[rows[days, series]]
    point, lower, upper = np.split(heads, 3, axis=-1)
    loss_sum = float(np.sum(composite_loss(target, point, lower, upper,
                                           loss_config)))
    pairs = len(target)
    if not np.isfinite(loss_sum):
        raise TrainingDivergedError(
            f"non-finite training loss in epoch {epoch}")
    seed = np.zeros((len(rows), len(ranges), heads.shape[-1]))
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
    model.  Raises :class:`TrainingDivergedError` on a non-finite loss, or
    when the trained weights or their squared norm are not finite.
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
    with np.errstate(over="ignore", invalid="ignore"):
        diverged = not np.isfinite(_squared_norm(blocks))
    if diverged:
        raise TrainingDivergedError(
            f"member seed={seed} diverged: its trained weights, or their "
            "squared norm, are not finite")
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


def forecast(ensemble: EnsembleModel, series: HourlySeries,
             target_date: dt.date, *, warmup_days: int = WARMUP_DAYS,
             label: str | None = None) -> ForecastRecord:
    """Member-mean day-ahead forecast in MW: the one-day case of
    :func:`forecast_range`.

    Raises :class:`IncompleteHistoryError` or :class:`ConstantWeekError`
    when ``target_date`` has no input.
    """
    records = forecast_range(ensemble, series, target_date, target_date,
                             warmup_days=warmup_days, label=label)
    if not records:  # raise why the day was skipped
        start = series.day_start_index(target_date) - HOURS_PER_WEEK
        standardize_week(series.window(start, HOURS_PER_WEEK))
    return records[0]


def forecast_range(ensemble: EnsembleModel, series, first_date: dt.date,
                   last_date: dt.date, *, warmup_days: int = WARMUP_DAYS,
                   label: str | None = None) -> list:
    """Member-mean forecasts in MW for every buildable day in the inclusive
    date range, of one :class:`HourlySeries` or of each of a sequence, in
    series order, then date order.

    Stretches are rows: each run of buildable days from ``warmup_days``
    days before ``first_date`` on, less those ending before ``first_date``,
    is one row of a batch from t = 0 (its days before ``first_date`` warm
    up), a short row repeating its last day as training pads its windows.
    The stacked members unroll the batch as one window from a cold state;
    the days are decoded with their coding, members averaged in MW.  A
    non-finite forecast raises :class:`LoadcastError`.
    """
    if last_date < first_date:
        raise ValueError("empty date range")
    if label is None:
        label = ensemble.config.cell_variant
    series = [series] if isinstance(series, HourlySeries) else list(series)
    first = first_date.toordinal()
    built = [build_extended_input(s, max(first - warmup_days, 1),
                                  last_date.toordinal()) for s in series]
    index = np.repeat(np.arange(len(series)), [len(d) for d, _ in built])
    if not len(index):
        return []
    day = np.concatenate([d for d, _ in built])
    ext = concat_inputs([e for _, e in built])
    lo, hi = stretches(index, day)
    lo, hi = lo[day[hi - 1] >= first], hi[day[hi - 1] >= first]
    if not len(lo):
        return []
    rows, b, t = _padded(lo, hi)
    src = rows[t, b]
    # each forecast day's (b, t) in the batch, and its row of ``ext``
    b, t, src = (x[day[src] >= first] for x in (b, t, src))
    model = model_stack(ensemble.members)
    with np.errstate(all="ignore"):  # a non-finite forecast raises below
        heads = model_unroll(model, model_new_state(model),
                             ext[rows[:, None]])[t, :, b]  # (days, M, 72)
        forecasts = np.mean(decode_day(np.moveaxis(heads.reshape(
            *heads.shape[:2], 3, -1), 0, 2), ext[src].coding), 0)
    finite = np.isfinite(forecasts).all(axis=(0, 2))
    if not finite.all():
        k = src[np.argmin(finite)]
        raise LoadcastError(f"model {label!r} forecasts non-finite loads for "
                            f"series {series[index[k]].series_id!r} on "
                            f"{dt.date.fromordinal(day[k])}")
    return [ForecastRecord(series[i].series_id, dt.date.fromordinal(d), *f,
                           model=label) for i, d, *f in zip(
                index[src].tolist(), day[src].tolist(), *forecasts)]
