"""
Weekly standardization and the day encoding
===========================================

Every training sample and every forecast is expressed relative to the week
that precedes it: the 168 hours before the target day supply a mean and a
standard deviation, the weekly input is standardized with them, and the
24-hour target is encoded in the same units.  Decoding a forecast is the
exact inverse, so the network never sees absolute megawatts.
"""

import datetime as dt

import numpy as np

from loadcast import (
    build_extended_input,
    build_training_set,
    decode_day,
    encode_day,
    standardize_week,
    synthetic_series,
)

series = synthetic_series("demo", days=30, start=dt.date(2024, 1, 1), seed=42)
print(f"series {series.series_id}: {len(series)} hours from {series.start}")

# take the week before Jan 10 and standardize it
target = dt.date(2024, 1, 10)
start = series.day_start_index(target)
week = series.window(start - 168, 168)
pattern, coding = standardize_week(week)
print(f"\nweek before {target}: mean {coding.week_mean:.1f} MW, "
      f"std {coding.week_std:.1f} MW")
print(f"standardized week: mean {np.mean(pattern):+.2e}, "
      f"std {np.std(pattern):.12f}")

# encode the target day in units of that week, then invert
day = series.window(start, 24)
encoded = encode_day(day, coding)
decoded = decode_day(encoded, coding)
print(f"\nencoded day range: [{encoded.min():+.2f}, "
      f"{encoded.max():+.2f}]  (dimensionless)")
print(f"round-trip error: {np.max(np.abs(decoded - day)):.2e} MW")

# the full network input adds a log-level and calendar one-hots
ext = build_extended_input(series, target)
print(f"\nextended input: 168 weekly values + level {ext.level:.3f} "
      f"(log10 of the week mean) + {ext.calendar.size} calendar bits")
print(f"total input length: {ext.week.size + 1 + ext.calendar.size}; "
      f"it carries its week's coding, std {ext.coding.week_std:.1f}")

# the training set stacks every buildable day as one row: its input and
# its target day, encoded with that input's coding
data = build_training_set([series])
row = int(np.flatnonzero(data.date == np.datetime64(target))[0])
print(f"\ntraining set: {len(data)} rows; row {row} is {data.date[row]}, "
      f"input week {data.input.week[row].shape}, "
      f"target {data.target[row].shape}")
print(f"row target equals the encoded day: "
      f"{np.array_equal(data.target[row], encoded)}")
