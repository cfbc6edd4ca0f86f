"""Weekly/daily pattern encoding and training-set assembly.

An hourly series is turned into overlapping (input, target) pairs: the input
is the standardized 168-hour week preceding a target day, extended with the
log10 level and calendar one-hots for that day; the target is the day's 24
hours encoded with the preceding week's mean and standard deviation.  The same
coding variables invert the network output back to physical units.  The
training set is one row table of these pairs, each series' rows together and
in date order.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantWeekError,
    IncompleteHistoryError,
    NonPositiveLevelError,
    NoTrainableSamplesError,
)

HOURS_PER_DAY = 24
HOURS_PER_WEEK = 168
#: weeks with population std below this carry no usable shape and are rejected
STD_FLOOR = 1e-6
#: raw extended-input length: 168 + 1 + 7 + 31 + 52
CALENDAR_SIZE = 7 + 31 + 52
EXTENDED_INPUT_SIZE = HOURS_PER_WEEK + 1 + CALENDAR_SIZE


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

    def day_start_index(self, day: dt.date) -> int:
        """Index of ``day`` 00:00 within the series (may be out of range)."""
        delta = dt.datetime.combine(day, dt.time()) - self.start
        hours = delta / dt.timedelta(hours=1)
        if hours != int(hours):
            raise ValueError("series does not start on a whole hour boundary")
        return int(hours)

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
    """Mean/std of the historical week, used to encode and decode days."""

    week_mean: float
    week_std: float


@dataclass(frozen=True)
class ExtendedInput:
    """The network input for one day, with the coding that decodes its output.

    ``week`` is the standardized preceding week, ``level`` the log10 of its
    mean, ``calendar`` the target day's one-hots and ``coding`` the week's
    mean and std.  Days stacked along leading axes (rows of a table, or
    days by series of a window) share one instance with ``coding`` None.
    """

    week: np.ndarray  # (..., 168)
    level: float | np.ndarray  # (...)
    calendar: np.ndarray  # (..., 90): day-of-week, day-of-month, week-of-year
    coding: CodingVariables | None


def standardize_week(week) -> tuple[np.ndarray, CodingVariables]:
    """Standardize a 168-hour window; rejects (near-)constant weeks.

    Uses the population standard deviation so the output has unit variance
    exactly.
    """
    week = np.asarray(week, dtype=np.float64)
    if week.shape != (HOURS_PER_WEEK,):
        raise ValueError(f"weekly window must have {HOURS_PER_WEEK} hours")
    if not np.isfinite(week).all():
        raise ValueError("weekly window contains non-finite values")
    # np.mean and np.std, spelled out so the deviations are computed once
    mean = float(week.sum() / HOURS_PER_WEEK)
    dev = week - mean
    std = float(np.sqrt((dev * dev).sum() / HOURS_PER_WEEK))
    if std < STD_FLOOR:
        raise ConstantWeekError(f"constant week (std {std:.3e} < {STD_FLOOR})")
    return dev / std, CodingVariables(mean, std)


def encode_day(day, coding: CodingVariables) -> np.ndarray:
    """Encode 24 hourly values with the preceding week's mean/std."""
    day = np.asarray(day, dtype=np.float64)
    if day.shape != (HOURS_PER_DAY,):
        raise ValueError(f"daily window must have {HOURS_PER_DAY} hours")
    if not np.isfinite(day).all():
        raise ValueError("daily window contains non-finite values")
    return (day - coding.week_mean) / coding.week_std


def decode_day(pattern, coding: CodingVariables) -> np.ndarray:
    """Invert :func:`encode_day`: map an encoded day back to physical units."""
    return np.asarray(pattern, dtype=np.float64) * coding.week_std + coding.week_mean


def calendar_features(day: dt.date) -> np.ndarray:
    """The 90 calendar one-hots: day-of-week (Monday=0), day-of-month and
    ISO week-of-year, in blocks of 7, 31 and 52.

    ISO week 53 is folded into slot 52 to fit the 52-slot encoding.
    """
    week = min(day.isocalendar()[1], 52)
    out = np.zeros(CALENDAR_SIZE)
    out[[day.weekday(), 7 + day.day - 1, 38 + week - 1]] = 1.0
    return out


def build_extended_input(series: HourlySeries, target_date: dt.date) -> ExtendedInput:
    """The network input for ``target_date``, built from its preceding week."""
    day_start = series.day_start_index(target_date)
    week_values = series.window(day_start - HOURS_PER_WEEK, HOURS_PER_WEEK)
    week, coding = standardize_week(week_values)
    if coding.week_mean <= 0:
        raise NonPositiveLevelError(
            f"{series.series_id}: weekly mean {coding.week_mean} is not positive"
        )
    return ExtendedInput(week, float(np.log10(coding.week_mean)),
                         calendar_features(target_date), coding)


@dataclass(frozen=True)
class TrainingSet:
    """Training days of many series as one row table.

    Row ``i`` is day ``date[i]`` of series ``series_id[i]``: its stacked
    input and its target day encoded with that input's week.  Each series'
    rows sit together, in date order.
    """

    series_id: np.ndarray  # (N,) str
    date: np.ndarray  # (N,) datetime64[D]
    input: ExtendedInput  # week (N, 168), level (N,), calendar (N, 90)
    target: np.ndarray  # (N, 24)

    def __len__(self) -> int:
        return len(self.series_id)

    @property
    def series_ids(self) -> list[str]:
        return np.unique(self.series_id).tolist()


def candidate_target_dates(series: HourlySeries, train_range=None) -> list[dt.date]:
    """All dates whose 168h input + 24h target windows fit in the series."""
    first_day = series.start.date()
    if dt.datetime.combine(first_day, dt.time()) < series.start:
        first_day += dt.timedelta(days=1)
    first_target = first_day + dt.timedelta(days=7)
    last_target = series.timestamp(len(series)).date() - dt.timedelta(days=1)
    if train_range is not None:
        lo, hi = train_range
        first_target = max(first_target, lo)
        last_target = min(last_target, hi)
    days = (last_target - first_target).days
    return [first_target + dt.timedelta(days=i) for i in range(days + 1)]


def build_training_set(series_list, train_range=None) -> TrainingSet:
    """The row table of every series' buildable days, in ``series_list``
    order; days whose input or target windows touch gaps are left out.

    ``train_range`` is an inclusive (first_date, last_date) pair of target
    dates, or None for the full history.  Series ids must be unique.
    """
    series_list = list(series_list)
    if len({series.series_id for series in series_list}) < len(series_list):
        raise ValueError("series ids must be unique")
    ids, dates, inputs, targets = [], [], [], []
    for series in series_list:
        for day in candidate_target_dates(series, train_range):
            try:
                ext = build_extended_input(series, day)
                target = encode_day(series.window(
                    series.day_start_index(day), HOURS_PER_DAY), ext.coding)
            except (IncompleteHistoryError, ConstantWeekError, NonPositiveLevelError):
                continue
            ids.append(series.series_id)
            dates.append(day)
            inputs.append(ext)
            targets.append(target)
    if not ids:
        raise NoTrainableSamplesError("no trainable samples in the given range")
    return TrainingSet(
        np.array(ids), np.array(dates, dtype="datetime64[D]"),
        ExtendedInput(np.array([ext.week for ext in inputs]),
                      np.array([ext.level for ext in inputs]),
                      np.array([ext.calendar for ext in inputs]), None),
        np.array(targets))
