"""Metric arithmetic, interval scores, predictive-ability test, rankings."""

import csv
import datetime as dt
import json

import numpy as np
import pytest

from loadcast import evaluation
from loadcast.evaluation import (
    ForecastRecord,
    build_report,
    collect_pairs,
    daily_loss_series,
    day_actual,
    evaluate_forecasts,
    gw_test,
    pi_metrics,
    point_metrics,
    rank_models,
    winkler_scores,
    write_report,
)
from loadcast.preprocess import HourlySeries


def make_series(series_id, start_day, values, missing=None):
    values = np.asarray(values, dtype=np.float64)
    if missing is None:
        missing = np.zeros(values.size, dtype=bool)
    return HourlySeries(series_id, dt.datetime.combine(start_day, dt.time()),
                        values, missing)


def test_point_metrics_worked_example():
    m = point_metrics([100.0, 200.0], [110.0, 180.0])
    assert m.mape == 10.0
    assert m.mdape == 10.0
    assert m.iqr_ape == 0.0
    assert m.mpe == 0.0  # (-10 + 10) / 2, over-prediction negative
    assert m.std_pe == 10.0
    assert m.rmse == np.sqrt((100.0 + 400.0) / 2.0)
    assert m.rmse == pytest.approx(15.8114, abs=1e-4)


def test_perfect_forecast_zeroes_everything():
    y = np.linspace(50.0, 80.0, 24)
    m = point_metrics(y, y)
    assert (m.mape, m.mdape, m.iqr_ape, m.rmse, m.mpe, m.std_pe) == (0,) * 6


def test_over_prediction_gives_negative_mpe():
    m = point_metrics([100.0, 100.0], [120.0, 110.0])
    assert m.mpe < 0.0


def test_percentage_metrics_scale_invariance():
    rng = np.random.default_rng(2)
    actual = rng.uniform(50, 150, size=100)
    forecast = actual * rng.uniform(0.9, 1.1, size=100)
    base = point_metrics(actual, forecast)
    scaled = point_metrics(1000.0 * actual, 1000.0 * forecast)
    for name in ("mape", "mdape", "iqr_ape", "mpe", "std_pe"):
        assert getattr(scaled, name) == pytest.approx(getattr(base, name),
                                                      rel=1e-12)
    assert scaled.rmse == pytest.approx(1000.0 * base.rmse, rel=1e-12)


def test_non_positive_actuals_rejected():
    with pytest.raises(ValueError, match="positive"):
        point_metrics([100.0, 0.0], [90.0, 10.0])
    with pytest.raises(ValueError, match="positive"):
        point_metrics([-5.0], [1.0])


def test_winkler_worked_examples():
    assert winkler_scores([15.0], [10.0], [20.0], 0.1)[0] == 10.0
    assert winkler_scores([5.0], [10.0], [20.0], 0.1)[0] == 110.0
    assert winkler_scores([25.0], [10.0], [20.0], 0.1)[0] == 110.0


def test_winkler_at_least_width_with_equality_inside():
    rng = np.random.default_rng(3)
    actual = rng.uniform(0, 100, 500)
    lower = actual - rng.uniform(0, 30, 500)
    upper = actual + rng.uniform(0, 30, 500)
    # shove a third of the observations outside
    actual[::3] = upper[::3] + rng.uniform(0.1, 5.0, actual[::3].size)
    w = winkler_scores(actual, lower, upper, 0.1)
    width = upper - lower
    inside = (actual >= lower) & (actual <= upper)
    assert np.all(w >= width - 1e-12)
    np.testing.assert_array_equal(w[inside], width[inside])
    assert np.all(w[~inside] > width[~inside])


def test_coverage_triple_and_crossings():
    actual = np.full(10, 15.0)
    lower = np.full(10, 10.0)
    upper = np.full(10, 20.0)
    actual[:3] = 5.0  # below
    actual[3] = 25.0  # above
    lower[8], upper[8] = 21.0, 9.0  # crossed bounds; below wins the bucket
    m = pi_metrics(actual, lower, upper, 0.1, mean_test_load=15.0)
    assert m.pi_below == 40.0
    assert m.pi_above == 10.0
    assert m.pi_in == 50.0
    assert m.pi_in + m.pi_below + m.pi_above == pytest.approx(100.0, abs=1e-9)
    assert m.pi_crossings == 1


def test_winkler_normalization_by_mean_load():
    actual = np.full(4, 15.0)
    lower, upper = np.full(4, 10.0), np.full(4, 20.0)
    m = pi_metrics(actual, lower, upper, 0.1, mean_test_load=50.0)
    assert m.winkler_normalized == 10.0 / 50.0
    with pytest.raises(ValueError):
        pi_metrics(actual, lower, upper, 0.1, mean_test_load=0.0)
    with pytest.raises(ValueError):
        pi_metrics(actual, lower, upper, 1.5, mean_test_load=50.0)


# -- predictive ability ----------------------------------------------------


def test_gw_zero_differential_degenerate():
    losses = np.random.default_rng(4).uniform(1, 2, 60)
    r = gw_test(losses, losses.copy())
    assert r.degenerate and r.p_value == 1.0
    # constant non-zero differential carries no usable variation either
    r2 = gw_test(losses, losses + 1.0)
    assert r2.degenerate and r2.p_value == 1.0


def test_gw_detects_strong_dominance():
    rng = np.random.default_rng(5)
    base = rng.uniform(3, 4, size=364)
    a = base - 1.0 + 0.1 * rng.normal(size=364)
    r = gw_test(a, base)
    assert not r.degenerate
    assert r.p_value < 0.01
    # and the reverse hypothesis is correspondingly hopeless
    assert gw_test(base, a).p_value > 0.99


def test_gw_swap_antisymmetry():
    rng = np.random.default_rng(6)
    a = rng.uniform(1, 2, 80)
    b = a + 0.2 * rng.normal(size=80)
    fwd = gw_test(a, b)
    rev = gw_test(b, a)
    assert rev.p_value == pytest.approx(1.0 - fwd.p_value, abs=1e-12)
    assert rev.statistic == pytest.approx(fwd.statistic, rel=1e-9)


def test_gw_statistic_scale_invariance():
    rng = np.random.default_rng(7)
    a = rng.uniform(1, 2, 100)
    b = a + 0.3 * rng.normal(size=100)
    r1 = gw_test(a, b)
    r2 = gw_test(25.0 * a, 25.0 * b)
    assert r2.statistic == pytest.approx(r1.statistic, rel=1e-9)
    assert r2.p_value == pytest.approx(r1.p_value, rel=1e-9)


def test_gw_input_validation():
    with pytest.raises(ValueError, match="30"):
        gw_test(np.ones(29), np.zeros(29))
    with pytest.raises(ValueError):
        gw_test(np.ones(40), np.ones(39))


# -- rankings --------------------------------------------------------------


def test_single_model_ranks_first_everywhere():
    r = rank_models({"only": {"s1": 3.0, "s2": 5.0}})
    assert r.mean_ranks == {"only": 1.0}
    assert r.first_places == {"only": 2}
    assert r.tied_series == 0


def test_strict_winner_takes_all_series():
    table = {
        "a": {"s1": 1.0, "s2": 2.0, "s3": 3.0},
        "b": {"s1": 2.0, "s2": 3.0, "s3": 4.0},
        "c": {"s1": 3.0, "s2": 4.0, "s3": 5.0},
    }
    r = rank_models(table)
    assert r.first_places == {"a": 3, "b": 0, "c": 0}
    assert r.mean_ranks == {"a": 1.0, "b": 2.0, "c": 3.0}


def test_rank_permutation_invariance_and_ties():
    base = {
        "m1": {"s1": 1.0, "s2": 4.0},
        "m2": {"s1": 1.0, "s2": 3.0},  # tie with m1 on s1, label order breaks
        "m3": {"s1": 2.0, "s2": 5.0},
    }
    reordered = {k: base[k] for k in ("m3", "m1", "m2")}
    r1, r2 = rank_models(base), rank_models(reordered)
    assert r1 == r2
    assert r1.tied_series == 1
    assert r1.mean_ranks["m1"] == 1.5  # rank 1 on s1 via label, rank 2 on s2
    assert r1.mean_ranks["m2"] == 1.5


def test_rank_incomplete_table_rejected():
    with pytest.raises(ValueError):
        rank_models({"a": {"s1": 1.0}, "b": {"s1": 1.0, "s2": 2.0}})
    with pytest.raises(ValueError):
        rank_models({})


# -- record plumbing -------------------------------------------------------


def day_record(series_id, day, point, lower=None, upper=None, model="m"):
    point = np.full(24, float(point))
    lower = point - 5.0 if lower is None else np.full(24, float(lower))
    upper = point + 5.0 if upper is None else np.full(24, float(upper))
    return ForecastRecord(series_id, day, point, lower, upper, model=model)


def test_record_validation():
    day = dt.date(2024, 6, 1)
    with pytest.raises(ValueError, match="24 hourly"):
        ForecastRecord("s", day, np.ones(23), np.ones(24), np.ones(24))
    bad = np.ones(24)
    bad[5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ForecastRecord("s", day, bad, np.ones(24), np.ones(24))


def test_day_actual_and_collect_pairs_skip_incomplete():
    start = dt.date(2024, 6, 1)
    values = np.arange(1.0, 73.0)  # three days
    missing = np.zeros(72, dtype=bool)
    missing[30] = True  # hole in day 2
    s = make_series("s1", start, values, missing)
    assert day_actual(s, start) is not None
    assert day_actual(s, start + dt.timedelta(days=1)) is None
    assert day_actual(s, start + dt.timedelta(days=3)) is None  # out of range

    records = [day_record("s1", start + dt.timedelta(days=i), 10.0)
               for i in range(3)]
    actual, point, lower, upper = collect_pairs(records, {"s1": s})
    assert actual.size == 48  # day 2 dropped
    np.testing.assert_array_equal(actual[:24], values[:24])
    np.testing.assert_array_equal(point, 10.0)
    with pytest.raises(ValueError, match="no records"):
        collect_pairs([day_record("s1", start + dt.timedelta(days=1), 1.0)],
                      {"s1": s})


def test_scoring_pairs_each_record_with_its_day_actual():
    # actuals are found with one windows call per series; they must be the
    # per-record day_actual ones, bit for bit, skipping the same days: holes,
    # days before a series starts (b starts at 05:00) and days past its end
    rng = np.random.default_rng(6)
    start = dt.date(2024, 6, 1)
    series = {}
    for sid, hour, holes in (("a", 0, [30, 100, 101]), ("b", 5, [200])):
        missing = np.zeros(240, dtype=bool)
        missing[holes] = True
        values = np.where(missing, np.nan, rng.uniform(50.0, 150.0, 240))
        series[sid] = HourlySeries(
            sid, dt.datetime.combine(start, dt.time(hour)), values, missing)
    records = [ForecastRecord(sid, start + dt.timedelta(days=d),
                              *rng.uniform(50.0, 150.0, (3, 24)))
               for sid in ("b", "a") for d in range(12, -3, -1)]
    pairs = [(r, day_actual(series[r.series_id], r.target_date))
             for r in evaluation.sort_records(records)]
    pairs = [(r, a) for r, a in pairs if a is not None]
    assert len(pairs) == 16  # of 30: 5 before a start, 3 holes, 6 past
    actual, point, lower, upper = collect_pairs(records, series)
    np.testing.assert_array_equal(actual, np.concatenate([a for _, a in pairs]))
    np.testing.assert_array_equal(point,
                                  np.concatenate([r.point for r, _ in pairs]))
    dates, losses = daily_loss_series(records, series)
    ref_dates, ref_losses = per_record_daily_losses(records, series)
    assert dates == ref_dates
    np.testing.assert_array_equal(losses, ref_losses)


def per_record_daily_losses(records, series):
    """Daily losses record by record: each record's MAE against its
    :func:`day_actual`, then each date's mean over its series in order."""
    by_date = {}
    for r in evaluation.sort_records(records):
        actual = day_actual(series[r.series_id], r.target_date)
        if actual is not None:
            by_date.setdefault(r.target_date, []).append(
                float(np.mean(np.abs(actual - r.point))))
    dates = sorted(by_date)
    return dates, [float(np.mean(by_date[d])) for d in dates]


def test_daily_losses_match_the_per_record_reference_on_nine_series():
    # up to nine losses a date: np.mean sums eight or more pairwise, which
    # rounds differently from a sequential sum (np.bincount's)
    rng = np.random.default_rng(12)
    start = dt.date(2024, 6, 1)
    series, records = {}, []
    for k in range(9):
        sid = f"s{k}"
        missing = rng.random(24 * 30) < 0.004
        values = np.where(missing, np.nan,
                          rng.uniform(50.0, 150.0, 24 * 30) * 10.0 ** k)
        series[sid] = HourlySeries(
            sid, dt.datetime.combine(start, dt.time(k % 3)), values, missing)
        records += [ForecastRecord(sid, start + dt.timedelta(days=d),
                                   *rng.uniform(40.0, 160.0, (3, 24))
                                   * 10.0 ** k)
                    for d in rng.permutation(32)[:25].tolist()]
    rng.shuffle(records)
    dates, losses = daily_loss_series(records, series)
    ref_dates, ref_losses = per_record_daily_losses(records, series)
    assert dates == ref_dates and len(dates) > 20
    np.testing.assert_array_equal(losses, ref_losses)


def test_daily_loss_series_averages_across_series():
    start = dt.date(2024, 6, 1)
    s1 = make_series("s1", start, np.full(48, 100.0))
    s2 = make_series("s2", start, np.full(48, 200.0))
    records = [
        day_record("s1", start, 90.0),  # MAE 10
        day_record("s2", start, 230.0),  # MAE 30
        day_record("s1", start + dt.timedelta(days=1), 95.0),  # MAE 5
    ]
    dates, losses = daily_loss_series(records, {"s1": s1, "s2": s2})
    assert dates == [start, start + dt.timedelta(days=1)]
    np.testing.assert_allclose(losses, [20.0, 5.0])


def test_evaluate_forecasts_end_to_end_arithmetic():
    start = dt.date(2024, 6, 1)
    s = make_series("s1", start, np.full(24, 100.0))
    rec = day_record("s1", start, point=90.0, lower=95.0, upper=105.0)
    report = evaluate_forecasts([rec], {"s1": s}, alpha=0.1)
    assert report.mape == 10.0
    assert report.mpe == 10.0  # under-prediction is positive
    assert report.rmse == 10.0
    assert report.pi_in == 100.0
    # width 10 everywhere, mean load 100
    assert report.winkler_normalized == pytest.approx(0.1, rel=1e-12)
    assert report.pi_crossings == 0
    assert report.n_hours == 24 and report.n_days == 1


def three_series_report(label="m", shift=0.0):
    start = dt.date(2024, 6, 1)
    day = dt.timedelta(days=1)
    series = {"s1": make_series("s1", start, np.full(72, 100.0)),
              "s2": make_series("s2", start, np.full(48, 200.0)),
              "s3": make_series("s3", start, np.full(24, 300.0))}
    records = {label: [
        day_record("s1", start, 90.0 + shift),
        day_record("s1", start + day, 104.0, lower=101.0, upper=99.0),
        day_record("s1", start + 2 * day, 130.0, lower=80.0, upper=90.0),
        day_record("s2", start, 230.0, lower=150.0, upper=250.0),
        day_record("s2", start + 2 * day, 210.0),  # no stored actual
        day_record("s3", start + day, 300.0),  # no stored actual either
    ]}
    return build_report(records, series, 0.1, (start, start + 2 * day))


def test_report_summary_aggregates_per_series_scores(tmp_path):
    write_report(three_series_report(), tmp_path)

    with open(tmp_path / "report.json", encoding="utf-8") as fh:
        model = json.load(fh)["models"]["m"]
    assert set(model["per_series"]) == {"s1", "s2"}  # s3 has nothing scored
    scored = list(model["per_series"].values())
    assert [s["n_days"] for s in scored] == [3, 1]
    assert [s["pi_crossings"] for s in scored] == [24, 0]
    summary = model["summary"]
    assert set(summary) == set(scored[0])
    for name, value in summary.items():
        values = [s[name] for s in scored]
        if name in ("n_days", "n_hours", "pi_crossings"):
            assert value == sum(values), name
        else:
            assert value == float(np.mean(values)), name
            assert values[0] != values[1], name  # a mean of distinct values

    with open(tmp_path / "per_series.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "series", "mape", "mdape", "iqr_ape", "rmse",
                       "mpe", "std_pe", "pi_in", "pi_below", "pi_above",
                       "winkler_normalized", "n_days"]
    assert [row[:2] for row in rows[1:]] == [["m", "s1"], ["m", "s2"]]
    assert [float(v) for v in rows[1][2:-1]] == [
        scored[0][name] for name in rows[0][2:-1]]


def test_failed_report_write_leaves_previous_report(tmp_path, monkeypatch):
    write_report(three_series_report(), tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(before) == ["gw_matrix.csv", "per_series.csv",
                              "report.json", "table1.csv", "table2.csv"]
    opened = []

    def fail_on_fourth(path, *args, **kwargs):
        opened.append(path)
        if len(opened) == 4:
            raise OSError("injected open failure")
        return open(path, *args, **kwargs)

    monkeypatch.setattr(evaluation, "open", fail_on_fourth, raising=False)
    with pytest.raises(OSError, match="injected"):
        write_report(three_series_report("m2", shift=5.0), tmp_path)
    monkeypatch.undo()
    assert len(opened) == 4
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    write_report(three_series_report("m2", shift=5.0), tmp_path)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert sorted(after) == sorted(before)
    assert all(after[name] != before[name] for name in before)
