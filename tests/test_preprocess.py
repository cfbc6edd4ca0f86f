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
    candidate_target_dates,
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


def test_monday_one_hot_and_length():
    series = make_series(16 * 24)
    target = MONDAY + dt.timedelta(days=7)  # also a Monday
    ext = build_extended_input(series, target)
    dow, dom, woy = ext.calendar[:7], ext.calendar[7:38], ext.calendar[38:]
    assert dow[0] == 1.0 and dow.sum() == 1.0
    assert dom.sum() == 1.0 and woy.sum() == 1.0
    assert ext.week.size + 1 + ext.calendar.size == EXTENDED_INPUT_SIZE
    assert EXTENDED_INPUT_SIZE == 259


def test_calendar_one_hot_layout():
    cal = calendar_features(dt.date(2024, 5, 15))  # Wednesday, day 15, ISO week 20
    assert cal.shape == (90,)
    np.testing.assert_array_equal(np.flatnonzero(cal), [2, 7 + 14, 38 + 19])


def test_level_is_log10_of_week_mean():
    values = np.full(192, 1000.0)
    values[::7] = 1013.0  # break the constant week, keep the mean computable
    mean = values[:168].mean()
    series = HourlySeries("s", dt.datetime.combine(MONDAY, dt.time()), values,
                          np.zeros(192, dtype=bool))
    ext = build_extended_input(series, MONDAY + dt.timedelta(days=7))
    assert ext.level == pytest.approx(np.log10(mean), rel=1e-12)


def test_week53_folds_into_last_slot():
    # 2020-12-31 falls in ISO week 53
    woy = calendar_features(dt.date(2020, 12, 31))[38:]
    assert woy[51] == 1.0 and woy.sum() == 1.0


def test_missing_history_rejected():
    series = make_series(16 * 24, missing_hours=[30])
    with pytest.raises(IncompleteHistoryError):
        build_extended_input(series, MONDAY + dt.timedelta(days=7))
    with pytest.raises(IncompleteHistoryError):
        build_extended_input(series, MONDAY)  # no week of history at all


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
    decoded = decode_day(ts.target[0], build_extended_input(series, day).coding)
    start = series.day_start_index(day)
    np.testing.assert_allclose(decoded, series.values[start : start + 24], rtol=1e-12)


def test_rows_equal_the_per_day_builders_bitwise():
    a = make_series(25 * 24, series_id="a", missing_hours=[100, 400], seed=4)
    b = make_series(18 * 24, series_id="b", seed=5,
                    start=dt.datetime(2024, 1, 3, 5))
    ts = build_training_set([a, b])
    want = []
    for series in (a, b):
        for day in candidate_target_dates(series):
            try:
                ext = build_extended_input(series, day)
                target = encode_day(series.window(
                    series.day_start_index(day), 24), ext.coding)
            except IncompleteHistoryError:
                continue
            want.append((series.series_id, day, ext, target))
    assert list(zip(ts.series_id.tolist(), ts.date.tolist())) == [
        (sid, day) for sid, day, _, _ in want]
    # the gaps leave series a two stretches: Jan 13-16 and Jan 25
    assert [day.day for sid, day, _, _ in want if sid == "a"] == [
        13, 14, 15, 16, 25]
    for i, (_, _, ext, target) in enumerate(want):
        np.testing.assert_array_equal(ts.input.week[i], ext.week)
        assert ts.input.level[i] == ext.level
        np.testing.assert_array_equal(ts.input.calendar[i], ext.calendar)
        np.testing.assert_array_equal(ts.target[i], target)
    assert ts.input.coding is None


def test_repeated_series_id_rejected():
    with pytest.raises(ValueError, match="unique"):
        build_training_set([make_series(15 * 24, seed=1),
                             make_series(15 * 24, seed=2)])
