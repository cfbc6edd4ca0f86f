"""Trainer mechanics: schedules, Adam, windowing, ensembles, forecasting."""

import datetime as dt
import math

import numpy as np
import pytest

from loadcast import network, training
from loadcast.errors import ConfigError, ConstantWeekError, TrainingDivergedError
from loadcast.evaluation import ForecastRecord
from loadcast.network import (
    CELL_VARIANTS,
    HORIZON,
    ModelConfig,
    model_build,
    model_new_state,
    model_unroll,
)
from loadcast.preprocess import (
    HourlySeries,
    build_extended_input,
    build_training_set,
    decode_day,
    standardize_week,
)
from loadcast.training import (
    Adam,
    EnsembleModel,
    TrainRecipe,
    WARMUP_DAYS,
    clip_global_norm,
    forecast,
    forecast_range,
    series_windows,
    train,
    train_ensemble,
)


def wave_series(sid="s1", days=30, start=dt.date(2024, 1, 1), noise=0.0,
                seed=0, base=100.0, weekly=5.0):
    """Repeating daily shape with a mild weekly swell; optionally noisy."""
    h = np.arange(days * 24, dtype=np.float64)
    values = (base + 20.0 * np.sin(2.0 * np.pi * h / 24.0)
              + weekly * np.sin(2.0 * np.pi * h / 168.0))
    if noise:
        values = values + np.random.default_rng(seed).normal(0, noise, h.size)
    return HourlySeries(sid, dt.datetime.combine(start, dt.time()),
                        values, np.zeros(h.size, dtype=bool))


def desk_config(variant="gru1", hidden=8):
    return ModelConfig(cell_variant=variant, hidden_size=hidden, embed_size=4)


# -- recipe ----------------------------------------------------------------


def test_recipe_defaults_follow_staged_schedules():
    r = TrainRecipe()
    assert r.epochs == 10
    assert [r.lr_at(e) for e in range(1, 11)] == (
        [3e-3] * 5 + [1e-3] + [3e-4] + [1e-4] * 3)
    assert [r.batch_at(e) for e in range(1, 11)] == [2] * 3 + [5] * 7
    assert r.seeds == (0, 1, 2, 3, 4)
    assert r.clip_norm == 10.0


def test_recipe_validation():
    with pytest.raises(ConfigError):
        TrainRecipe(epochs=-1)
    with pytest.raises(ConfigError, match="start at epoch 1"):
        TrainRecipe(learning_rates={2: 1e-3})
    with pytest.raises(ConfigError, match="positive"):
        TrainRecipe(learning_rates={1: 0.0})
    with pytest.raises(ConfigError, match="integers"):
        TrainRecipe(batch_sizes={1: 2.5})
    with pytest.raises(ConfigError):
        TrainRecipe(window_days=0)
    with pytest.raises(ConfigError):
        TrainRecipe(clip_norm=-1.0)
    with pytest.raises(ConfigError):
        TrainRecipe(seeds=())
    with pytest.raises(ConfigError):
        TrainRecipe(learning_rates={1: float("inf")})


# -- optimizer -------------------------------------------------------------


def scalar_adam(x0, grad_fn, lr, steps, beta1=0.9, beta2=0.999, eps=1e-8):
    x = [float(v) for v in x0]
    m = [0.0] * len(x)
    v = [0.0] * len(x)
    for t in range(1, steps + 1):
        g = grad_fn(x)
        for i in range(len(x)):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g[i]
            v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i]
            mhat = m[i] / (1.0 - beta1 ** t)
            vhat = v[i] / (1.0 - beta2 ** t)
            x[i] -= lr * mhat / (math.sqrt(vhat) + eps)
    return x


def test_adam_matches_scalar_reference_on_quadratic_bowl():
    curv = np.array([1.0, 4.0, 0.5, 2.0])
    target = np.array([3.0, -1.0, 0.5, 2.5])
    x = np.array([0.0, 0.0, 0.0, 0.0])
    opt = Adam([("x", x)])
    for _ in range(100):
        opt.step({"x": 2.0 * curv * (x - target)}, lr=0.05)

    ref = scalar_adam([0.0] * 4,
                      lambda xs: [2.0 * c * (xi - ti)
                                  for c, xi, ti in zip(curv, xs, target)],
                      lr=0.05, steps=100)
    np.testing.assert_allclose(x, ref, rtol=1e-12, atol=1e-15)
    assert np.all(np.abs(x - target) < np.abs(target))  # heading downhill


def test_adam_first_step_is_lr_sized():
    x = np.array([5.0, -5.0])
    opt = Adam([("x", x)])
    opt.step({"x": np.array([40.0, -0.003])}, lr=0.1)
    # bias correction makes the first step ~lr regardless of gradient size
    np.testing.assert_allclose(x, [4.9, -4.9], rtol=1e-6)


def test_adam_in_place_step_equals_the_expression_bitwise():
    # blocks of different shapes share one scratch pair sized to the largest
    rng = np.random.default_rng(4)
    arrays = [rng.normal(size=(5, 7)), rng.normal(size=3), rng.normal(size=(2, 2))]
    ref = [a.copy() for a in arrays]
    m = [np.zeros_like(a) for a in ref]
    v = [np.zeros_like(a) for a in ref]
    opt = Adam(enumerate(arrays), beta1=0.8, beta2=0.99, epsilon=1e-7)
    for step in range(1, 4):
        grads = [rng.normal(size=a.shape) for a in arrays]
        opt.step(dict(enumerate(grads)), lr=0.01)
        bc1, bc2 = 1.0 - 0.8 ** step, 1.0 - 0.99 ** step
        for a, mk, vk, g in zip(ref, m, v, grads):
            mk *= 0.8
            mk += (1.0 - 0.8) * g
            vk *= 0.99
            vk += (1.0 - 0.99) * (g * g)
            a -= 0.01 * (mk / bc1) / (np.sqrt(vk / bc2) + 1e-7)
        for got, want in zip(arrays, ref):
            np.testing.assert_array_equal(got, want)


def test_clip_global_norm():
    g1 = np.array([3.0, 4.0])
    grads = {"a": g1}
    norm = clip_global_norm(grads, max_norm=10.0)
    assert norm == 5.0
    np.testing.assert_array_equal(grads["a"], [3.0, 4.0])  # under the cap

    norm = clip_global_norm(grads, max_norm=1.0)
    assert norm == 5.0
    np.testing.assert_allclose(np.linalg.norm(grads["a"]), 1.0, rtol=1e-12)

    big = {"a": np.full(100, 50.0)}
    assert clip_global_norm(big, max_norm=None) == pytest.approx(500.0)
    np.testing.assert_array_equal(big["a"], 50.0)  # None disables clipping


# -- windowing -------------------------------------------------------------


def test_series_windows_split_on_gaps_and_length():
    data = build_training_set([wave_series(days=30)])
    assert len(data) == 23  # 23 contiguous target days (Jan 8..30)
    wins = series_windows(data, window_days=7)["s1"]
    assert [hi - lo for lo, hi, _ in wins] == [7, 7, 7, 2]
    assert [fresh for _, _, fresh in wins] == [True, False, False, False]

    # a hole in the stored values splits the run and re-flags cold state
    s = wave_series(days=40)
    missing = s.missing.copy()
    missing[24 * 20 + 5] = True  # breaks samples with windows over day 20
    s = HourlySeries(s.series_id, s.start, s.values, missing)
    wins = series_windows(build_training_set([s]), 7)["s1"]
    fresh_flags = [fresh for _, _, fresh in wins]
    assert fresh_flags.count(True) == 2


def test_series_windows_never_span_two_series():
    # a's last target day is Jan 15 and b's first is Jan 16: consecutive
    # dates in consecutive rows, but two series
    a = wave_series("a", days=15)
    b = wave_series("b", days=20, start=dt.date(2024, 1, 9), seed=1, noise=1.0)
    data = build_training_set([a, b])
    assert data.date[8] - data.date[7] == np.timedelta64(1, "D")
    assert series_windows(data, window_days=56) == {
        "a": [(0, 8, True)], "b": [(8, 21, True)]}


# -- train -----------------------------------------------------------------


def test_zero_epochs_returns_initialized_model_bitwise():
    data = build_training_set([wave_series(days=20)])
    config = desk_config()
    result = train(data, config, TrainRecipe(epochs=0), seed=7)
    assert result.epoch_losses == []
    assert result.update_count == 0
    reference = model_build(config, seed=7)
    for (name, arr), (ref_name, ref_arr) in zip(
            result.model.named_arrays(), reference.named_arrays()):
        assert name == ref_name
        np.testing.assert_array_equal(arr, ref_arr)


def test_constant_pattern_loss_drops_ninety_percent():
    # identical daily shape every day is exactly learnable by the head bias
    data = build_training_set([wave_series(days=50, weekly=0.0)])
    recipe = TrainRecipe(epochs=5, learning_rates={1: 1e-2},
                         batch_sizes={1: 1}, window_days=1, seeds=(0,))
    result = train(data, desk_config(), recipe, seed=3)
    assert result.update_count == 5 * 43  # 43 one-day windows per epoch
    assert result.epoch_losses[-1] < 0.1 * result.epoch_losses[0]


def test_update_count_matches_batch_and_window_arithmetic():
    series = [wave_series(sid=f"s{i}", days=20) for i in range(3)]
    data = build_training_set(series)
    # 13 samples per series -> ceil(13/7) = 2 windows; ceil(3/2) = 2 batches
    recipe = TrainRecipe(epochs=2, learning_rates={1: 1e-3},
                         batch_sizes={1: 2}, window_days=7, seeds=(0,))
    result = train(data, desk_config(), recipe, seed=0)
    assert result.update_count == 2 * 2 * 2
    assert len(result.epoch_losses) == 2


def test_training_is_deterministic_and_seed_sensitive():
    data = build_training_set([wave_series(days=24, noise=1.0)])
    recipe = TrainRecipe(epochs=1, learning_rates={1: 1e-3},
                         batch_sizes={1: 1}, window_days=7, seeds=(0,))
    a = train(data, desk_config(), recipe, seed=5)
    b = train(data, desk_config(), recipe, seed=5)
    for (_, arr_a), (_, arr_b) in zip(a.model.named_arrays(),
                                      b.model.named_arrays()):
        np.testing.assert_array_equal(arr_a, arr_b)
    assert a.epoch_losses == b.epoch_losses

    c = train(data, desk_config(), recipe, seed=6)
    diffs = [not np.array_equal(arr_a, arr_c)
             for (_, arr_a), (_, arr_c) in zip(a.model.named_arrays(),
                                               c.model.named_arrays())]
    assert any(diffs)
    assert all(arr_a.shape == arr_c.shape
               for (_, arr_a), (_, arr_c) in zip(a.model.named_arrays(),
                                                 c.model.named_arrays()))


def test_divergence_guard_raises():
    data = build_training_set([wave_series(days=20)])
    recipe = TrainRecipe(epochs=1, learning_rates={1: 1e300},
                         batch_sizes={1: 1}, window_days=7, seeds=(0,),
                         clip_norm=None)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            train(data, desk_config(), recipe, seed=0)


# -- ensembles -------------------------------------------------------------


def quick_recipe(seeds):
    return TrainRecipe(epochs=1, learning_rates={1: 1e-3},
                       batch_sizes={1: 1}, window_days=7, seeds=seeds)


def test_single_seed_ensemble_equals_member():
    data = build_training_set([wave_series(days=20)])
    config = desk_config()
    ens = train_ensemble(data, config, quick_recipe((3,)))
    assert len(ens.members) == 1
    member = train(data, config, quick_recipe((3,)), seed=3).model
    day = dt.date(2024, 1, 19)
    rec_ens = forecast(ens, wave_series(days=20), day)
    rec_one = forecast(EnsembleModel((member,)), wave_series(days=20), day)
    np.testing.assert_array_equal(rec_ens.point, rec_one.point)
    np.testing.assert_array_equal(rec_ens.lower, rec_one.lower)
    np.testing.assert_array_equal(rec_ens.upper, rec_one.upper)


def test_identical_seeds_degenerate_to_single_member():
    data = build_training_set([wave_series(days=20)])
    config = desk_config()
    series = wave_series(days=20)
    day = dt.date(2024, 1, 19)
    triple = forecast(train_ensemble(data, config, quick_recipe((2, 2, 2))),
                      series, day)
    single = forecast(train_ensemble(data, config, quick_recipe((2,))),
                      series, day)
    np.testing.assert_allclose(triple.point, single.point, rtol=1e-14)
    np.testing.assert_allclose(triple.lower, single.lower, rtol=1e-14)
    np.testing.assert_allclose(triple.upper, single.upper, rtol=1e-14)


def test_member_order_does_not_matter():
    data = build_training_set([wave_series(days=20)])
    config = desk_config()
    series = wave_series(days=20)
    day = dt.date(2024, 1, 19)
    fwd = forecast(train_ensemble(data, config, quick_recipe((1, 2))),
                   series, day)
    rev = forecast(train_ensemble(data, config, quick_recipe((2, 1))),
                   series, day)
    np.testing.assert_allclose(fwd.point, rev.point, rtol=1e-14)


# -- forecasting -----------------------------------------------------------


def zero_head_ensemble(config=None, members=1):
    config = config or desk_config()
    models = []
    for seed in range(members):
        m = model_build(config, seed=seed)
        m.head_w[:] = 0.0
        m.head_b[:] = 0.0
        models.append(m)
    return EnsembleModel(tuple(models))


def test_zero_head_forecast_is_week_mean():
    series = wave_series(days=20)
    day = dt.date(2024, 1, 15)
    rec = forecast(zero_head_ensemble(), series, day)
    start = series.day_start_index(day)
    week = series.window(start - 168, 168)
    expected = np.full(24, np.mean(week))
    np.testing.assert_array_equal(rec.point, expected)
    np.testing.assert_array_equal(rec.lower, expected)
    np.testing.assert_array_equal(rec.upper, expected)
    assert rec.series_id == "s1" and rec.target_date == day


def test_forecast_with_scant_history_is_finite():
    series = wave_series(days=9)
    day = dt.date(2024, 1, 9)  # walk-back finds a single warm day
    ens = train_ensemble(build_training_set([wave_series(days=20)]),
                         desk_config(), quick_recipe((0,)))
    rec = forecast(ens, series, day)
    assert np.all(np.isfinite(rec.point))
    cold = forecast(ens, series, dt.date(2024, 1, 8))  # no warm days at all
    assert np.all(np.isfinite(cold.point))
    assert not np.array_equal(rec.point, cold.point)


def test_forecast_incomplete_history_raises():
    from loadcast.errors import IncompleteHistoryError
    series = wave_series(days=9)
    ens = zero_head_ensemble()
    with pytest.raises(IncompleteHistoryError):
        forecast(ens, series, dt.date(2024, 1, 7))  # week window too short


def test_decoding_commutes_with_member_average():
    # decoding is affine, so MW-space and standardized-space averages agree
    config = desk_config()
    data = build_training_set([wave_series(days=20, noise=2.0)])
    ens = train_ensemble(data, config, quick_recipe((0, 1)))
    series = wave_series(days=20, noise=2.0)
    day = dt.date(2024, 1, 19)
    rec = forecast(ens, series, day, warmup_days=5)

    start = series.day_start_index(day)
    _, coding = standardize_week(series.window(start - 168, 168))
    days, ext = build_extended_input(series, day.toordinal() - 5,
                                     day.toordinal())
    assert len(days) == 6
    raw_points = [model_unroll(member, model_new_state(member), ext)[5, :HORIZON]
                  for member in ens.members]
    averaged_then_decoded = decode_day(np.mean(raw_points, axis=0), coding)
    np.testing.assert_allclose(rec.point, averaged_then_decoded,
                               rtol=1e-10, atol=1e-10)


def test_forecast_range_matches_single_day_and_skips_gaps():
    series = wave_series(days=26)
    missing = series.missing.copy()
    missing[24 * 18 + 3] = True  # hole inside stored Jan 19
    gappy = HourlySeries(series.series_id, series.start, series.values, missing)
    ens = zero_head_ensemble()

    # forecasting needs only the preceding week, so Jan 19 itself is fine;
    # Jan 20-26 have the hole inside their input weeks and drop out, and
    # Jan 27 (one day past the stored data) works off the clean Jan 20-26
    first, last = dt.date(2024, 1, 10), dt.date(2024, 1, 27)
    records = forecast_range(ens, gappy, first, last)
    dates = [r.target_date for r in records]
    expected = [dt.date(2024, 1, d) for d in range(10, 20)]
    assert dates == expected + [dt.date(2024, 1, 27)]

    lone = forecast(ens, gappy, dt.date(2024, 1, 12))
    match = [r for r in records if r.target_date == dt.date(2024, 1, 12)]
    np.testing.assert_array_equal(match[0].point, lone.point)


def test_constant_week_is_skipped_on_the_day_path():
    series = wave_series(days=40)
    values = series.values.copy()
    values[24 * 10:24 * 18] = 100.0  # Jan 11-18: the weeks before Jan 18, 19
    flat = HourlySeries(series.series_id, series.start, values, series.missing)
    constant = [dt.date(2024, 1, 18), dt.date(2024, 1, 19)]

    dates = build_training_set([flat]).date.tolist()
    every_day = [dt.date(2024, 1, 8) + dt.timedelta(days=i) for i in range(33)]
    assert dates == [d for d in every_day if d not in constant]

    ens = EnsembleModel((model_build(desk_config(), seed=5),))
    with pytest.raises(ConstantWeekError):
        forecast(ens, flat, constant[0])

    records = forecast_range(ens, flat, dt.date(2024, 1, 16),
                             dt.date(2024, 1, 21))
    assert [r.target_date.day for r in records] == [16, 17, 20, 21]
    # Jan 20 opens a new stretch: a fresh state with no warm-up, because
    # the constant Jan 19 ends the stretch before it
    member = ens.members[0]
    ext = one_day(flat, dt.date(2024, 1, 20))
    cold = model_unroll(member, model_new_state(member), ext)
    np.testing.assert_array_equal(records[2].point,
                                  decode_day(cold[:, :HORIZON], ext.coding)[0])
    lone = forecast(ens, flat, dt.date(2024, 1, 21))
    np.testing.assert_array_equal(records[3].point, lone.point)


def test_forecast_range_continuity_reuses_state():
    series = wave_series(days=30, noise=1.0)
    data = build_training_set([series])
    ens = train_ensemble(data, desk_config(), quick_recipe((4,)))
    records = forecast_range(ens, series, dt.date(2024, 1, 20),
                             dt.date(2024, 1, 23))
    assert [r.target_date.day for r in records] == [20, 21, 22, 23]
    assert all(isinstance(r, ForecastRecord) for r in records)
    assert all(np.all(np.isfinite(r.point)) for r in records)
    with pytest.raises(ValueError):
        forecast_range(ens, series, dt.date(2024, 1, 23), dt.date(2024, 1, 20))


# -- serving a batch of stretches -------------------------------------------


def random_ensemble(variant="adrnn", members=3):
    return EnsembleModel(tuple(model_build(desk_config(variant), seed=s)
                               for s in range(members)))


def days_from(first, last):
    return [first + dt.timedelta(days=k) for k in range((last - first).days + 1)]


def one_day(series, day):
    """The built input of ``day`` alone, as a one-day window."""
    days, ext = build_extended_input(series, day.toordinal(), day.toordinal())
    assert days.tolist() == [day.toordinal()]
    return ext


def day_by_day(ens, series, warm, days):
    """The per-day path: each member unrolls one series' one-day windows in
    turn from a cold state over the ``warm`` days, then the ``days``,
    decoding each of those with its own coding; members averaged in MW.
    (days, 3, 24)."""
    decoded = []
    for member in ens.members:
        state = model_new_state(member)
        for day in warm:
            model_unroll(member, state, one_day(series, day))
        out = []
        for day in days:
            ext = one_day(series, day)
            out.append(decode_day(model_unroll(member, state, ext).reshape(
                3, -1), ext.coding))
        decoded.append(out)
    return np.mean(decoded, axis=0)


def stacked(records):
    return np.array([[r.point, r.lower, r.upper] for r in records])


def with_missing_days(series, *days):
    missing = series.missing.copy()
    for day in days:
        start = series.day_start_index(day)
        missing[start:start + 24] = True
    values = np.where(missing, np.nan, series.values)
    return HourlySeries(series.series_id, series.start, values, missing)


@pytest.fixture
def builder_calls(monkeypatch):
    """The ``(series_id, first, last)`` ranges forecast_range asked the input
    builder for, in call order, as dates."""
    from loadcast import network, training
    calls = []

    def spy(series, first, last):
        calls.append((series.series_id, dt.date.fromordinal(first),
                      dt.date.fromordinal(last)))
        return build_extended_input(series, first, last)

    monkeypatch.setattr(training, "build_extended_input", spy)
    return calls


@pytest.mark.parametrize("variant", ["adrnn", "gru1", "lstm2", "dlstm"])
def test_many_series_match_per_series_calls(variant, builder_calls):
    series = [
        with_missing_days(wave_series("a", days=60, noise=2.0, seed=0),
                          dt.date(2024, 1, 20)),
        wave_series("b", days=45, noise=2.0, seed=1, base=300.0),
        with_missing_days(wave_series("c", days=60, noise=2.0, seed=2),
                          dt.date(2024, 1, 30), dt.date(2024, 2, 11)),
    ]
    ens = random_ensemble(variant)
    first, last = dt.date(2024, 1, 15), dt.date(2024, 2, 25)
    batched = forecast_range(ens, series, first, last, label="m")
    assert [sid for sid, _, _ in builder_calls] == ["a", "b", "c"]
    single = [r for s in series
              for r in forecast_range(ens, s, first, last, label="m")]
    key = [(r.series_id, r.target_date, r.model) for r in batched]
    assert key == [(r.series_id, r.target_date, r.model) for r in single]
    assert len({sid for sid, _, _ in key}) == 3
    np.testing.assert_allclose(stacked(batched), stacked(single),
                               rtol=1e-12, atol=0)
    np.testing.assert_array_equal(
        stacked(forecast_range(ens, tuple(series), first, last)),
        stacked(batched))


@pytest.mark.parametrize("variant", ["lstm1", "lstm2", "gru1", "gru2",
                                     "dlstm", "drnn", "adrnn"])
def test_one_clean_series_is_bitwise_the_day_by_day_path(variant):
    series = wave_series(days=90, noise=2.0)
    ens = random_ensemble(variant)
    first, last = dt.date(2024, 3, 10), dt.date(2024, 3, 20)
    records = forecast_range(ens, series, first, last)
    warm = days_from(first - dt.timedelta(days=WARMUP_DAYS),
                     first - dt.timedelta(days=1))
    days = days_from(first, last)
    assert [r.target_date for r in records] == days
    np.testing.assert_array_equal(stacked(records),
                                  day_by_day(ens, series, warm, days))


def gappy_store():
    """Four series of different lengths and levels, three with gaps; the
    range below reaches past the end of two of them."""
    return [
        with_missing_days(wave_series("a", days=90, noise=2.0, seed=0),
                          dt.date(2024, 2, 20)),
        wave_series("b", days=72, noise=2.0, seed=1, base=300.0),
        with_missing_days(wave_series("c", days=90, noise=2.0, seed=2),
                          dt.date(2024, 3, 1), dt.date(2024, 3, 12)),
        with_missing_days(wave_series("d", days=80, noise=2.0, seed=3,
                                      base=50.0), dt.date(2024, 1, 30)),
    ]


@pytest.mark.parametrize("variant", sorted(CELL_VARIANTS))
@pytest.mark.parametrize("store", ["gappy", "one-clean"])
def test_stacked_members_are_bitwise_each_member_stepped_alone(
        variant, store, monkeypatch):
    series = gappy_store() if store == "gappy" else [
        wave_series(days=90, noise=2.0)]
    ens = random_ensemble(variant)
    first, last = dt.date(2024, 2, 25), dt.date(2024, 3, 31)
    records = forecast_range(ens, series, first, last)
    # the reference: the same batch, stepped by each member alone with its
    # own 2-D weights (the unit member axis serves them as they are) and
    # decoded, then the members averaged in MW
    monkeypatch.setattr(training, "model_stack", lambda members: members[0])
    alone = [forecast_range(EnsembleModel((member,)), series, first, last)
             for member in ens.members]
    for member_records in alone:
        assert [(r.series_id, r.target_date) for r in member_records] == [
            (r.series_id, r.target_date) for r in records]
    np.testing.assert_array_equal(
        stacked(records), np.mean([stacked(a) for a in alone], axis=0))


def test_one_model_step_per_window_serves_every_member(monkeypatch):
    calls = []

    step = network.model_step

    def spy(model, states, u1, tape=None):
        calls.append((model.head_w.shape[0], u1.shape[:-1]))
        return step(model, states, u1, tape)

    monkeypatch.setattr(network, "model_step", spy)
    ens = random_ensemble("drnn", members=3)
    first, last = dt.date(2024, 3, 10), dt.date(2024, 3, 20)
    forecast_range(ens, gappy_store(), first, last)
    # five stretches hold days of the range (c's gap on Mar 12 splits it);
    # the longest, b's, runs from Jan 14, 56 days before Mar 10, to Mar 13,
    # the day after its data ends: one call over 60 days for 3 members
    assert calls == [(3, (60, 3, 5))]


def test_ensemble_members_must_share_one_config():
    with pytest.raises(ConfigError, match="one model config"):
        EnsembleModel((model_build(desk_config("gru1"), seed=0),
                       model_build(desk_config("lstm1"), seed=1)))
    with pytest.raises(ConfigError, match="one model config"):
        EnsembleModel((model_build(desk_config("gru1"), seed=0),
                       model_build(desk_config("gru2"), seed=1)))


def test_warmup_is_clipped_and_shorter_when_history_runs_out(builder_calls):
    series = wave_series(days=90, noise=2.0)
    ens = random_ensemble("drnn", members=1)
    first = dt.date(2024, 3, 10)
    forecast_range(ens, series, first, first)
    assert builder_calls == [
        ("s1", first - dt.timedelta(days=WARMUP_DAYS), first)]
    builder_calls.clear()
    forecast_range(ens, series, first, first, warmup_days=5)
    assert builder_calls == [("s1", first - dt.timedelta(days=5), first)]
    builder_calls.clear()
    # the warm-up starts at Jan 8, the first day with a week of data
    first = dt.date(2024, 1, 20)
    records = forecast_range(ens, series, first, first)
    assert builder_calls == [
        ("s1", first - dt.timedelta(days=WARMUP_DAYS), first)]
    warm = days_from(dt.date(2024, 1, 8), dt.date(2024, 1, 19))
    np.testing.assert_array_equal(stacked(records),
                                  day_by_day(ens, series, warm, [first]))


def test_gap_and_constant_week_each_start_a_cold_stretch():
    series = with_missing_days(wave_series(days=60, noise=2.0),
                               dt.date(2024, 1, 20))
    values = series.values.copy()
    start = series.day_start_index(dt.date(2024, 2, 5))
    values[start:start + 168] = 100.0  # the week before Feb 12
    series = HourlySeries(series.series_id, series.start, values,
                          series.missing)
    ens = random_ensemble("adrnn")
    first, last = dt.date(2024, 1, 15), dt.date(2024, 2, 20)
    records = forecast_range(ens, series, first, last)
    # Jan 21-27 read the gap and Feb 12 the constant week
    stretches = [(days_from(dt.date(2024, 1, 8), dt.date(2024, 1, 14)),
                  days_from(first, dt.date(2024, 1, 20))),
                 ([], days_from(dt.date(2024, 1, 28), dt.date(2024, 2, 11))),
                 ([], days_from(dt.date(2024, 2, 13), last))]
    assert [r.target_date for r in records] == [
        day for _, days in stretches for day in days]
    expected = np.concatenate([day_by_day(ens, series, warm, days)
                               for warm, days in stretches])
    np.testing.assert_allclose(stacked(records), expected, rtol=1e-12,
                               atol=0)


def test_run_ending_before_the_range_contributes_nothing(builder_calls):
    # Jan 8-25 is a run inside the warm-up reach, but Jan 26 - Feb 1 read
    # the gap: the range opens on an unbuildable day, so nothing warms up
    series = with_missing_days(wave_series(days=40, noise=2.0),
                               dt.date(2024, 1, 25))
    ens = random_ensemble("gru2")
    first, last = dt.date(2024, 1, 30), dt.date(2024, 2, 5)
    records = forecast_range(ens, series, first, last)
    days = days_from(dt.date(2024, 2, 2), last)
    assert [r.target_date for r in records] == days
    assert builder_calls == [
        ("s1", first - dt.timedelta(days=WARMUP_DAYS), last)]
    np.testing.assert_array_equal(stacked(records),
                                  day_by_day(ens, series, [], days))


def test_series_without_a_buildable_day_contributes_nothing():
    short = wave_series("short", days=6)
    good = wave_series("good", days=30, noise=2.0)
    ens = random_ensemble("lstm1")
    first, last = dt.date(2024, 1, 10), dt.date(2024, 1, 20)
    assert forecast_range(ens, [short], first, last) == []
    assert forecast_range(ens, [], first, last) == []
    records = forecast_range(ens, [short, good, short], first, last)
    alone = forecast_range(ens, good, first, last)
    assert [(r.series_id, r.target_date) for r in records] == [
        (r.series_id, r.target_date) for r in alone]
    np.testing.assert_array_equal(stacked(records), stacked(alone))


def test_ranges_at_the_ends_of_the_calendar():
    ens = random_ensemble("drnn", members=1)
    early = wave_series(days=20, start=dt.date(1, 1, 1))
    records = forecast_range(ens, early, dt.date(1, 1, 1), dt.date(1, 1, 20))
    assert [r.target_date for r in records] == days_from(dt.date(1, 1, 8),
                                                         dt.date(1, 1, 20))
    records = forecast_range(ens, early, dt.date(1, 1, 10), dt.date(1, 1, 10))
    np.testing.assert_array_equal(stacked(records), day_by_day(
        ens, early, days_from(dt.date(1, 1, 8), dt.date(1, 1, 9)),
        [dt.date(1, 1, 10)]))
    late = wave_series(days=31, start=dt.date(9999, 12, 1))
    records = forecast_range(ens, [early, late], dt.date(9999, 12, 20),
                             dt.date.max)
    assert [r.target_date for r in records] == days_from(
        dt.date(9999, 12, 20), dt.date.max)


def test_warmup_constant_is_eight_weeks():
    assert WARMUP_DAYS == 56
