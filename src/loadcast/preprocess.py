"""Weekly/daily pattern encoding and training-set assembly.

An hourly series is turned into overlapping (input, target) pairs: the input
is the standardized 168-hour week preceding a target day, extended with the
log10 level and calendar one-hots for that day; the target is the day's 24
hours encoded with the preceding week's mean and standard deviation.  The same
coding variables invert the network output back to physical units.  One
builder stacks a range of days' inputs, for training and serving; the training
set is one row table of these pairs, each series' rows together in date order.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantWeekError,
    IncompleteHistoryError,
    NoTrainableSamplesError,
)

HOURS_PER_DAY = 24
HOURS_PER_WEEK = 168
#: a week has a usable spread, and so an input, when its population std is
#: at least this and finite (the squares of loads near 1e154 overflow)
STD_FLOOR = 1e-6
#: raw extended-input length: 168 + 1 + 7 + 31 + 52
CALENDAR_SIZE = 7 + 31 + 52
EXTENDED_INPUT_SIZE = HOURS_PER_WEEK + 1 + CALENDAR_SIZE
#: day ordinal of 1970-01-01, day 0 of ``datetime64[D]``
_EPOCH = dt.date(1970, 1, 1).toordinal()


@dataclass(frozen=True)
class HourlySeries:
    """One contiguous hourly history; ``missing[i]`` marks unusable hours.

    Timestamps are implicit: hour ``i`` is ``start + i hours``.  Missing
    entries hold NaN in ``values``.
    """

    series_id: str
    start: dt.datetime
    values: np.ndarray
    missing: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        missing = np.asarray(self.missing, dtype=bool)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "missing", missing)
        if values.shape != missing.shape or values.ndim != 1:
            raise ValueError("values and missing_mask must be equal-length vectors")
        if self.start.minute or self.start.second or self.start.microsecond:
            raise ValueError("series must start on a whole hour")
        if dt.datetime.max - self.start < dt.timedelta(hours=len(values) - 1):
            raise ValueError(f"series runs past {dt.datetime.max}")
        present = values[~missing]
        if present.size and (not np.all(np.isfinite(present)) or np.any(present <= 0)):
            raise ValueError("non-missing loads must be finite and strictly positive")

    def __len__(self) -> int:
        return self.values.shape[0]

    def timestamp(self, index: int) -> dt.datetime:
        return self.start + dt.timedelta(hours=index)

    @property
    def end(self) -> dt.datetime:
        """Timestamp of the last stored hour."""
        return self.timestamp(len(self) - 1)

    def day_start_index(self, day):
        """Index of 00:00 of ``day`` within the series (may be out of range);
        ``day`` is a date, or day ordinals as an int or an int array."""
        ordinal = day.toordinal() if isinstance(day, dt.date) else day
        return (ordinal - self.start.toordinal()) * HOURS_PER_DAY - self.start.hour

    def windows(self, starts, length: int) -> tuple[np.ndarray, np.ndarray]:
        """Which ``length``-hour windows from hours ``starts`` are stored in
        full, and those windows stacked."""
        present = np.concatenate([[0], np.cumsum(~self.missing)])
        stored = (present[np.clip(starts + length, 0, len(self))]
                  - present[np.clip(starts, 0, len(self))] == length)
        return stored, self.values[starts[stored, None] + np.arange(length)]

    def window(self, start_index: int, length: int) -> np.ndarray:
        """Return ``length`` hours from ``start_index``; all must be present."""
        if start_index < 0 or start_index + length > len(self):
            raise IncompleteHistoryError(
                f"{self.series_id}: window [{start_index}, {start_index + length}) "
                f"outside stored range"
            )
        if self.missing[start_index : start_index + length].any():
            raise IncompleteHistoryError(
                f"{self.series_id}: window [{start_index}, {start_index + length}) "
                f"touches missing hours"
            )
        return self.values[start_index : start_index + length]


@dataclass(frozen=True)
class CodingVariables:
    """Mean/std of the historical week, used to encode and decode days;
    arrays, one entry per day, for stacked days."""

    week_mean: float | np.ndarray
    week_std: float | np.ndarray


@dataclass(frozen=True)
class ExtendedInput:
    """The network input for one day, with the coding that decodes its output.

    ``week`` is the standardized preceding week, ``level`` the log10 of its
    mean, ``calendar`` the target day's one-hots and ``coding`` the week's
    mean and std.  Days stacked along leading axes (rows of a table, or
    days by series of a window) share one instance; ``coding`` holds their
    per-day arrays, or is None where no caller decodes.
    """

    week: np.ndarray  # (..., 168)
    level: float | np.ndarray  # (...)
    calendar: np.ndarray  # (..., 90): day-of-week, day-of-month, week-of-year
    coding: CodingVariables | None

    def __getitem__(self, rows) -> ExtendedInput:
        """The stacked days at ``rows``, an index of the leading axes."""
        coding = self.coding and CodingVariables(self.coding.week_mean[rows],
                                                 self.coding.week_std[rows])
        return ExtendedInput(self.week[rows], self.level[rows],
                             self.calendar[rows], coding)


def concat_inputs(inputs) -> ExtendedInput:
    """Coded inputs of stacked days joined along their first axis."""
    week, level, calendar, mean, std = (np.concatenate(column) for column in zip(
        *((e.week, e.level, e.calendar, e.coding.week_mean, e.coding.week_std)
          for e in inputs)))
    return ExtendedInput(week, level, calendar, CodingVariables(mean, std))


def standardize_week(week) -> tuple[np.ndarray, CodingVariables]:
    """Standardize 168-hour windows, ``(..., 168)``, with the population
    std so the output has unit variance exactly.  One week without a usable
    spread raises :class:`ConstantWeekError`; a stack leaves such rows for
    the caller to drop."""
    week = np.asarray(week, dtype=np.float64)
    if week.shape[-1:] != (HOURS_PER_WEEK,):
        raise ValueError(f"weekly window must have {HOURS_PER_WEEK} hours")
    if not np.isfinite(week).all():
        raise ValueError("weekly window contains non-finite values")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # np.mean and np.std, spelled out so the deviations are computed once
        mean = week.sum(axis=-1) / HOURS_PER_WEEK
        dev = week - mean[..., None]
        std = np.sqrt((dev * dev).sum(axis=-1) / HOURS_PER_WEEK)
        if week.ndim == 1 and not STD_FLOOR <= std < np.inf:
            raise ConstantWeekError(f"no usable spread (std {std:.3e})")
        return dev / std[..., None], CodingVariables(mean, std)


def encode_day(day, coding: CodingVariables) -> np.ndarray:
    """Encode 24-hour days, ``(..., 24)``, with their preceding weeks'
    mean/std."""
    day = np.asarray(day, dtype=np.float64)
    if day.shape[-1:] != (HOURS_PER_DAY,):
        raise ValueError(f"daily window must have {HOURS_PER_DAY} hours")
    if not np.isfinite(day).all():
        raise ValueError("daily window contains non-finite values")
    mean, std = (np.expand_dims(x, -1) for x in (coding.week_mean, coding.week_std))
    return (day - mean) / std


def decode_day(pattern, coding: CodingVariables) -> np.ndarray:
    """Invert :func:`encode_day`: map encoded days back to physical units."""
    mean, std = (np.expand_dims(x, -1) for x in (coding.week_mean, coding.week_std))
    return np.asarray(pattern, dtype=np.float64) * std + mean


def calendar_features(days) -> np.ndarray:
    """The 90 calendar one-hots of day ordinals ``days``, ``(..., 90)``:
    day-of-week (Monday=0), day-of-month and ISO week-of-year, in blocks of
    7, 31 and 52.  The ISO week counts from the day of the year of the
    week's Thursday; week 53 is folded into slot 52.
    """
    weekday = (np.asarray(days) - 1) % 7  # ordinal 1, 0001-01-01, is a Monday
    date = (np.asarray(days) - _EPOCH).astype("datetime64[D]")
    thursday = date + (3 - weekday)
    cols = np.stack([weekday, 7 + (date - date.astype("datetime64[M]")).astype(int),
                     38 + np.minimum((thursday - thursday.astype("datetime64[Y]"))
                                     .astype(int) // 7, 51)], axis=-1)
    out = np.zeros(weekday.shape + (CALENDAR_SIZE,))
    np.put_along_axis(out, cols, 1.0, axis=-1)
    return out


def build_extended_input(series: HourlySeries, first: int, last: int
                         ) -> tuple[np.ndarray, ExtendedInput]:
    """The ordinals of the days from ordinal ``first`` to ``last`` whose
    preceding week is stored and has a usable spread, and their stacked
    input."""
    days = np.arange(max(first, series.start.toordinal()),
                     min(last, series.end.toordinal() + 1) + 1)
    stored, weeks = series.windows(series.day_start_index(days)
                                   - HOURS_PER_WEEK, HOURS_PER_WEEK)
    days = days[stored]
    week, coding = standardize_week(weeks)
    keep = (STD_FLOOR <= coding.week_std) & (coding.week_std < np.inf)
    mean, std = coding.week_mean[keep], coding.week_std[keep]
    return days[keep], ExtendedInput(week[keep], np.log10(mean),
                                     calendar_features(days[keep]),
                                     CodingVariables(mean, std))


@dataclass(frozen=True)
class TrainingSet:
    """Training days of many series as one row table.

    Row ``i`` is day ``date[i]`` of series ``series_id[i]``: its stacked
    input and its target day encoded with that input's week.  Each series'
    rows sit together, in date order.
    """

    series_id: np.ndarray  # (N,) str
    date: np.ndarray  # (N,) datetime64[D]
    input: ExtendedInput  # week (N, 168), level, calendar (N, 90), coding
    target: np.ndarray  # (N, 24)

    def __len__(self) -> int:
        return len(self.series_id)

    @property
    def series_ids(self) -> list[str]:
        return np.unique(self.series_id).tolist()


def build_training_set(series_list, train_range=None) -> TrainingSet:
    """The row table of every series' buildable days, in ``series_list``
    order: days with an input whose target day is fully stored.

    ``train_range`` is an inclusive (first_date, last_date) pair of target
    dates, or None for the full history.  Series ids must be unique.
    """
    series_list = list(series_list)
    if len({series.series_id for series in series_list}) < len(series_list):
        raise ValueError("series ids must be unique")
    first, last = ((1, dt.date.max.toordinal()) if train_range is None
                   else (day.toordinal() for day in train_range))
    ids, days, inputs, targets = [], [], [], []
    for series in series_list:
        day, ext = build_extended_input(series, first, last)
        stored, target = series.windows(series.day_start_index(day),
                                        HOURS_PER_DAY)
        ids += [series.series_id] * len(target)
        days.append(day[stored])
        inputs.append(ext[stored])
        targets.append(encode_day(target, inputs[-1].coding))
    if not ids:
        raise NoTrainableSamplesError("no trainable samples in the given range")
    return TrainingSet(
        np.array(ids), (np.concatenate(days) - _EPOCH).astype("datetime64[D]"),
        concat_inputs(inputs), np.concatenate(targets))
