"""Tests for pattern encoding, decoding, and training-set assembly."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadcast.errors import (
    ConstantWeekError,
    IncompleteHistoryError,
    NoTrainableSamplesError,
)
from loadcast.preprocess import (
    EXTENDED_INPUT_SIZE,
    CodingVariables,
    HourlySeries,
    build_extended_input,
    build_training_set,
    calendar_features,
    decode_day,
    encode_day,
    standardize_week,
)

MONDAY = dt.date(2024, 1, 1)  # 2024-01-01 is a Monday


def make_series(n_hours, series_id="s", start=None, missing_hours=(), seed=0):
    rng = np.random.default_rng(seed)
    hours = np.arange(n_hours)
    values = 1000.0 + 200.0 * np.sin(2 * np.pi * hours / 24) + rng.normal(0, 30, n_hours)
    values = np.abs(values) + 1.0
    missing = np.zeros(n_hours, dtype=bool)
    for h in missing_hours:
        missing[h] = True
        values[h] = np.nan
    if start is None:
        start = dt.datetime.combine(MONDAY, dt.time())
    return HourlySeries(series_id, start, values, missing)


# -- standardize_week ------------------------------------------------------


def loop_standardize(week):
    """Independent scalar-loop evaluation of the weekly standardization."""
    total = 0.0
    for v in week:
        total += v
    mean = total / len(week)
    ssq = 0.0
    for v in week:
        ssq += (v - mean) ** 2
    std = (ssq / len(week)) ** 0.5
    return [(v - mean) / std for v in week], mean, std


def test_alternating_week_maps_to_plus_minus_one():
    week = np.tile([90.0, 110.0], 84)
    pattern, coding = standardize_week(week)
    np.testing.assert_allclose(pattern, np.tile([-1.0, 1.0], 84))
    assert coding.week_mean == pytest.approx(100.0)
    assert coding.week_std == pytest.approx(10.0)


def test_constant_week_rejected():
    with pytest.raises(ConstantWeekError):
        standardize_week(np.full(168, 100.0))


def test_linear_ramp_matches_scalar_loop_oracle():
    week = np.arange(1.0, 169.0)
    pattern, coding = standardize_week(week)
    expected, mean, std = loop_standardize(week)
    np.testing.assert_allclose(pattern, expected, rtol=1e-12)
    assert coding.week_mean == pytest.approx(mean, rel=1e-14)
    assert coding.week_std == pytest.approx(std, rel=1e-14)
    assert abs(np.mean(pattern)) < 1e-12
    assert abs(np.std(pattern) - 1.0) < 1e-12


def test_standardized_weeks_have_zero_mean_unit_std():
    rng = np.random.default_rng(42)
    for _ in range(200):
        week = rng.uniform(50, 5000) + rng.normal(0, rng.uniform(1, 500), 168)
        pattern, _ = standardize_week(week)
        assert abs(np.mean(pattern)) < 1e-9
        assert abs(np.std(pattern) - 1.0) < 1e-9


def test_stacked_weeks_equal_one_week_at_a_time():
    rng = np.random.default_rng(7)
    weeks = rng.uniform(50, 5000, (6, 1)) + rng.normal(0, 40, (6, 168))
    weeks[2] = 300.0  # a constant row comes back unusable, not raised
    weeks[4] *= 1e160  # its deviations' squares overflow
    pattern, coding = standardize_week(weeks)
    assert coding.week_std[2] == 0.0 and coding.week_std[4] == np.inf
    for i in (0, 1, 3, 5):
        one, one_coding = standardize_week(weeks[i])
        np.testing.assert_array_equal(pattern[i], one)
        assert coding.week_mean[i] == one_coding.week_mean
        assert coding.week_std[i] == one_coding.week_std


def test_overflowing_week_has_no_usable_spread():
    week = np.tile([1e160, 2e160], 84)
    with pytest.raises(ConstantWeekError, match="no usable spread"):
        standardize_week(week)


def test_wrong_length_and_nonfinite_rejected():
    with pytest.raises(ValueError):
        standardize_week(np.ones(24))
    week = np.arange(168.0)
    week[3] = np.nan
    with pytest.raises(ValueError):
        standardize_week(week)


# -- encode / decode -------------------------------------------------------


def test_encode_day_identities():
    coding = CodingVariables(100.0, 10.0)
    np.testing.assert_allclose(encode_day(np.full(24, 100.0), coding), 0.0)
    np.testing.assert_allclose(encode_day(np.full(24, 110.0), coding), 1.0)
    day = np.tile([105.0, 95.0], 12)
    np.testing.assert_allclose(encode_day(day, coding), np.tile([0.5, -0.5], 12))


def test_decode_day_affine():
    coding = CodingVariables(300.0, 50.0)
    np.testing.assert_allclose(decode_day(np.zeros(24), coding), 300.0)
    y = np.zeros(24)
    y[0], y[1] = 1.0, -1.0
    decoded = decode_day(y, coding)
    assert decoded[0] == 350.0 and decoded[1] == 250.0 and decoded[2] == 300.0


@settings(max_examples=200, deadline=None)
@given(
    mean=st.floats(1.0, 1e6),
    std=st.floats(1e-3, 1e5),
    data=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=24, max_size=24),
)
def test_encode_decode_round_trip(mean, std, data):
    day = np.array(data)
    coding = CodingVariables(mean, std)
    decoded = decode_day(encode_day(day, coding), coding)
    scale = max(np.max(np.abs(day)), mean, std)
    np.testing.assert_allclose(decoded, day, atol=1e-10 * scale)


def test_encode_rejects_nonfinite():
    coding = CodingVariables(100.0, 10.0)
    day = np.full(24, 100.0)
    day[5] = np.inf
    with pytest.raises(ValueError):
        encode_day(day, coding)


# -- extended inputs -------------------------------------------------------


def one_day(series, day):
    """The built input of ``day`` alone, as 1-d arrays, or None."""
    days, ext = build_extended_input(series, day.toordinal(), day.toordinal())
    return ext[0] if len(days) else None


def test_monday_one_hot_and_length():
    series = make_series(16 * 24)
    target = MONDAY + dt.timedelta(days=7)  # also a Monday
    ext = one_day(series, target)
    dow, dom, woy = ext.calendar[:7], ext.calendar[7:38], ext.calendar[38:]
    assert dow[0] == 1.0 and dow.sum() == 1.0
    assert dom.sum() == 1.0 and woy.sum() == 1.0
    assert ext.week.size + 1 + ext.calendar.size == EXTENDED_INPUT_SIZE
    assert EXTENDED_INPUT_SIZE == 259


def test_calendar_one_hot_layout():
    # Wednesday, day 15, ISO week 20
    cal = calendar_features(dt.date(2024, 5, 15).toordinal())
    assert cal.shape == (90,)
    np.testing.assert_array_equal(np.flatnonzero(cal), [2, 7 + 14, 38 + 19])


def iso_columns(day):
    return [day.weekday(), 7 + day.day - 1,
            38 + min(day.isocalendar()[1], 52) - 1]


@pytest.mark.parametrize("first, last", [
    (dt.date(1, 1, 1), dt.date(3, 12, 31)),
    (dt.date(1999, 1, 1), dt.date(2030, 12, 31)),
    (dt.date(9996, 1, 1), dt.date(9999, 12, 31)),
])
def test_calendar_matches_isocalendar_on_every_day(first, last):
    days = np.arange(first.toordinal(), last.toordinal() + 1)
    rows, cols = np.nonzero(calendar_features(days))
    np.testing.assert_array_equal(rows, np.repeat(np.arange(len(days)), 3))
    np.testing.assert_array_equal(cols.reshape(-1, 3), [
        iso_columns(dt.date.fromordinal(int(o))) for o in days])


def test_level_is_log10_of_week_mean():
    values = np.full(192, 1000.0)
    values[::7] = 1013.0  # break the constant week, keep the mean computable
    mean = values[:168].mean()
    series = HourlySeries("s", dt.datetime.combine(MONDAY, dt.time()), values,
                          np.zeros(192, dtype=bool))
    ext = one_day(series, MONDAY + dt.timedelta(days=7))
    assert ext.level == pytest.approx(np.log10(mean), rel=1e-12)


def test_week53_folds_into_last_slot():
    # 2020-12-31 falls in ISO week 53
    woy = calendar_features(dt.date(2020, 12, 31).toordinal())[38:]
    assert woy[51] == 1.0 and woy.sum() == 1.0


def test_missing_history_rejected():
    series = make_series(16 * 24, missing_hours=[30])
    assert one_day(series, MONDAY + dt.timedelta(days=7)) is None
    assert one_day(series, MONDAY) is None  # no week of history at all
    days, ext = build_extended_input(series, MONDAY.toordinal(),
                                     (MONDAY + dt.timedelta(days=16)).toordinal())
    # Jan 10 is the first day whose week starts past hour 30 (Jan 2 06:00),
    # and Jan 17 the day after the last stored hour
    assert days.tolist() == [(MONDAY + dt.timedelta(days=k)).toordinal()
                             for k in range(9, 17)]
    assert ext.week.shape == (8, 168) and ext.coding.week_mean.shape == (8,)


# -- training-set assembly -------------------------------------------------


def test_fifteen_complete_days_yield_eight_samples():
    series = make_series(15 * 24)
    ts = build_training_set([series])
    assert len(ts) == 8
    assert ts.date.tolist() == [MONDAY + dt.timedelta(days=i)
                                for i in range(7, 15)]


def test_two_series_union():
    a = make_series(15 * 24, series_id="a", seed=1)
    b = make_series(15 * 24, series_id="b", seed=2)
    ts = build_training_set([a, b])
    assert len(ts) == 16
    assert ts.series_ids == ["a", "b"]


def test_missing_hour_excludes_overlapping_windows():
    series = make_series(15 * 24, missing_hours=[100])
    ts = build_training_set([series])
    dates = ts.date.tolist()
    # windows [day_start-168, day_start+24) covering hour 100 are rejected
    assert dates == [MONDAY + dt.timedelta(days=i) for i in (12, 13, 14)]


def test_cardinality_matches_window_count():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n_days = int(rng.integers(8, 40))
        series = make_series(n_days * 24, seed=int(rng.integers(1e6)))
        ts = build_training_set([series])
        assert len(ts) == n_days - 7


def test_empty_result_raises():
    series = make_series(6 * 24)  # fewer than 8 days
    with pytest.raises(NoTrainableSamplesError):
        build_training_set([series])


def test_train_range_restricts_targets():
    series = make_series(20 * 24)
    lo, hi = MONDAY + dt.timedelta(days=9), MONDAY + dt.timedelta(days=11)
    ts = build_training_set([series], train_range=(lo, hi))
    assert ts.date.tolist() == [lo, lo + dt.timedelta(days=1), hi]


def test_samples_store_consistent_coding():
    series = make_series(10 * 24)
    ts = build_training_set([series])
    day = ts.date[0].item()
    decoded = decode_day(ts.target[0], ts.input[0].coding)
    start = series.day_start_index(day)
    np.testing.assert_allclose(decoded, series.values[start : start + 24], rtol=1e-12)


def reference_rows(series):
    """Each training row of ``series`` built alone: a day whose week and
    target windows are stored in full and whose week has a usable spread."""
    rows = []
    for ordinal in range(series.start.toordinal(),
                         series.end.toordinal() + 1):
        day = dt.date.fromordinal(ordinal)
        start = series.day_start_index(day)
        try:
            week, coding = standardize_week(series.window(start - 168, 168))
            target = encode_day(series.window(start, 24), coding)
        except (IncompleteHistoryError, ConstantWeekError):
            continue
        calendar = np.zeros(90)
        calendar[iso_columns(day)] = 1.0
        rows.append((series.series_id, day, week, np.log10(coding.week_mean),
                     calendar, target, coding.week_mean, coding.week_std))
    return rows


@st.composite
def stores(draw):
    """Up to three series of 1-40 days: gappy, with a constant or an
    overflowing week, starting mid-day, ending on the last calendar day or
    spanning ISO week 53."""
    out = []
    for k in range(draw(st.integers(1, 3))):
        hours = 24 * draw(st.integers(1, 40)) + draw(st.integers(0, 23))
        anchor = draw(st.sampled_from(["plain", "week53", "end"]))
        if anchor == "end":
            start = dt.datetime(9999, 12, 31, 23) - dt.timedelta(hours=hours - 1)
        else:
            day = dt.date(2020, 12, 5) if anchor == "week53" else MONDAY
            start = dt.datetime.combine(day, dt.time(draw(st.integers(0, 23))))
        series = make_series(hours, series_id=f"s{k}", start=start,
                             seed=draw(st.integers(0, 2**16)))
        values, missing = series.values.copy(), series.missing.copy()
        for _ in range(draw(st.integers(0, 3))):
            lo = draw(st.integers(0, hours - 1))
            missing[lo:lo + draw(st.integers(1, 48))] = True
        for level in draw(st.lists(st.sampled_from([500.0, 1e160]),
                                   max_size=2)):
            lo = draw(st.integers(0, hours - 1))
            values[lo:lo + draw(st.integers(24, 200))] = level
        values[missing] = np.nan
        out.append(HourlySeries(series.series_id, start, values, missing))
    return out


@settings(max_examples=60, deadline=None)
@given(series=stores())
def test_rows_equal_a_per_row_reference_bitwise(series):
    want = [row for s in series for row in reference_rows(s)]
    if not want:
        with pytest.raises(NoTrainableSamplesError):
            build_training_set(series)
        return
    ts = build_training_set(series)
    assert ts.series_id.tolist() == [row[0] for row in want]
    assert ts.date.tolist() == [row[1] for row in want]
    got = (ts.input.week, ts.input.level, ts.input.calendar, ts.target,
           ts.input.coding.week_mean, ts.input.coding.week_std)
    for column, array in enumerate(got, start=2):
        expected = np.array([row[column] for row in want])
        assert array.dtype == expected.dtype and array.shape == expected.shape
        assert array.tobytes() == expected.tobytes()


def test_overflowing_loads_leave_no_trainable_samples():
    series = make_series(20 * 24)
    huge = HourlySeries("s", series.start, series.values * 1e160,
                        series.missing)
    with pytest.raises(NoTrainableSamplesError):
        build_training_set([huge])


def test_repeated_series_id_rejected():
    with pytest.raises(ValueError, match="unique"):
        build_training_set([make_series(15 * 24, seed=1),
                             make_series(15 * 24, seed=2)])
