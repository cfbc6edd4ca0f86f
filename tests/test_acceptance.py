"""End-to-end acceptance gate.

Eight checks covering gradient correctness, forward oracles, the encoding
round trip, loss identities, the predictive-ability test, a synthetic
forecasting experiment against the seasonal-naive baseline, report shapes,
and byte-level training determinism.  Each check prints a one-line verdict
with its measured numbers so a log scan shows the whole gate at once.
"""

import datetime as dt
import json
import time

import numpy as np
import pytest

import test_cells as oracles

from loadcast.cells import CellKind, Connection, cell_init
from loadcast.cli import main
from loadcast.config import desk_preset
from loadcast.dataset import synthetic_store
from loadcast.evaluation import (
    TABLE1_COLUMNS,
    TABLE2_COLUMNS,
    day_actual,
    evaluate_forecasts,
    gw_test,
    pi_metrics,
    winkler_scores,
)
from loadcast.gradcheck import check_cell, check_model
from loadcast.loss import LossConfig, composite_loss, pinball
from loadcast.network import CELL_VARIANTS, ModelConfig
from loadcast.preprocess import (
    build_training_set,
    decode_day,
    encode_day,
    standardize_week,
)
from loadcast.training import forecast_range, train_ensemble

MULTI_TOL = 1e-3
SINGLE_TOL = 1e-4
ORACLE_TOL = 1e-12
ROUND_TRIP_TOL = 1e-10
STANDARD_TOL = 1e-9

#: desk-scale cell geometries; every recurrent state stays at 8 or fewer units
CELL_SIZES = {
    "lstm1": {"input_size": 5, "hidden_size": 4},
    "lstm2": {"input_size": 5, "hidden_size": 4},
    "gru1": {"input_size": 5, "hidden_size": 4},
    "gru2": {"input_size": 5, "hidden_size": 4},
    "dlstm": {"input_size": 5, "hidden_size": 4, "out_size": 4},
    "drnn": {"input_size": 5, "hidden_size": 4, "out_size": 4},
    "adrnn": {"input_size": 4, "hidden_size": 3, "out_size": 3,
              "upper_hidden_size": 3},
}


def verdict(capsys, number, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] check {number}/8: {detail}"
    with capsys.disabled():
        print(flush=True)
        print(line, flush=True)
    assert passed, line


def test_1_gradients_match_finite_differences(capsys):
    started = time.monotonic()
    failures = []
    draws = 0
    worst_multi = 0.0
    for dilation in (1, 2, 4, 7):
        for variant, (kind, connection) in sorted(CELL_VARIANTS.items()):
            report = check_cell(kind, connection=connection, dilation=dilation,
                                steps=9, seed=draws, **CELL_SIZES[variant])
            draws += 1
            worst_multi = max(worst_multi, report.worst)
            if report.worst > MULTI_TOL:
                failures.append(f"{variant} d={dilation}: {report.worst:.2e}")

    worst_single = 0.0
    for variant in ("lstm1", "gru1", "dlstm", "drnn", "adrnn"):
        kind, connection = CELL_VARIANTS[variant]
        report = check_cell(kind, connection=connection, dilation=2,
                            steps=1, seed=100 + draws, **CELL_SIZES[variant])
        draws += 1
        worst_single = max(worst_single, report.worst)
        if report.worst > SINGLE_TOL:
            failures.append(f"{variant} single-step: {report.worst:.2e}")

    for seed, config in ((0, None),
                         (1, ModelConfig(cell_variant="gru1", hidden_size=4,
                                         embed_size=4))):
        report = check_model(config, steps=6, seed=seed,
                             max_coords_per_block=10)
        draws += 1
        worst_multi = max(worst_multi, report.worst)
        if report.worst > MULTI_TOL:
            failures.append(f"stacked model seed={seed}: {report.worst:.2e}")

    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        failures.append(f"too slow: {elapsed:.1f}s")
    verdict(capsys, 1, not failures,
            f"analytic vs central-difference gradients, {draws} draws: "
            f"worst multi-step {worst_multi:.2e} (tol {MULTI_TOL:g}), "
            f"worst single-step {worst_single:.2e} (tol {SINGLE_TOL:g}), "
            f"{elapsed:.1f}s" + (f"; failures: {failures}" if failures else ""))


def test_2_forward_passes_match_scalar_oracles(capsys):
    rng = np.random.default_rng(123)
    worst = 0.0
    draws = 0
    for dilation in (1, 2, 4, 7):
        lag_conn = (Connection.RECENT_ONLY if dilation == 1
                    else Connection.DELAYED_ONLY)
        steps = 2 * dilation + 4
        for kind in ("lstm", "gru", "dlstm", "drnn", "adrnn"):
            in_size = int(rng.integers(2, 6))
            hidden = int(rng.integers(2, 5))
            seed = int(rng.integers(1_000_000))
            xs = [rng.normal(size=in_size) for _ in range(steps)]
            if kind == "lstm":
                params, _ = cell_init(CellKind.LSTM, in_size, hidden,
                                      connection=lag_conn, seed=seed)
                oracle = oracles.LstmOracle(params, dilation)
            elif kind == "gru":
                params, _ = cell_init(CellKind.GRU, in_size, hidden,
                                      connection=lag_conn, seed=seed)
                oracle = oracles.GruOracle(params, dilation)
            elif kind == "dlstm":
                params, _ = cell_init(CellKind.DLSTM, in_size, hidden,
                                      out_size=hidden, seed=seed)
                oracle = oracles.DlstmOracle(params, dilation)
            elif kind == "drnn":
                params, _ = cell_init(CellKind.DRNN, in_size, hidden,
                                      out_size=hidden, seed=seed)
                oracle = oracles.DrnnOracle(params, dilation)
            else:
                params, _ = cell_init(CellKind.ADRNN, in_size, hidden,
                                      out_size=hidden, upper_hidden_size=hidden,
                                      seed=seed)
                oracle = oracles.AdrnnOracle(params, dilation)
            got = oracles.run_cell(params, xs, dilation)
            for x, y in zip(xs, got):
                diff = float(np.max(np.abs(y - np.asarray(oracle.step(x)))))
                worst = max(worst, diff)
            draws += 1
    verdict(capsys, 2, worst <= ORACLE_TOL,
            f"vectorized vs scalar-loop forward passes, {draws} draws "
            f"across all five cells: worst abs diff {worst:.2e} "
            f"(tol {ORACLE_TOL:g})")


def test_3_encode_decode_round_trip(capsys):
    rng = np.random.default_rng(3)
    worst_rel = 0.0
    worst_mean = 0.0
    worst_std = 0.0
    cases = 1000
    for _ in range(cases):
        week = rng.uniform(20.0, 200.0, size=168)
        day = rng.uniform(5.0, 400.0, size=24)
        pattern, coding = standardize_week(week)
        worst_mean = max(worst_mean, abs(float(np.mean(pattern))))
        worst_std = max(worst_std, abs(float(np.std(pattern)) - 1.0))
        decoded = decode_day(encode_day(day, coding), coding)
        worst_rel = max(worst_rel, float(np.max(np.abs(decoded - day) / day)))
    ok = (worst_rel <= ROUND_TRIP_TOL and worst_mean < STANDARD_TOL
          and worst_std < STANDARD_TOL)
    verdict(capsys, 3, ok,
            f"decode(encode(day)) over {cases} random cases: worst rel err "
            f"{worst_rel:.2e} (tol {ROUND_TRIP_TOL:g}); standardized weeks "
            f"|mean| {worst_mean:.2e}, |std-1| {worst_std:.2e} "
            f"(tol {STANDARD_TOL:g})")


def test_4_loss_identities(capsys):
    failures = []
    if float(pinball(1.0, 0.0, 0.5)) != 0.5:
        failures.append("pinball(1,0,0.5)")
    if float(pinball(3.7, 3.7, 0.42)) != 0.0:
        failures.append("pinball at zero residual")
    if float(pinball(2.0, 3.0, 0.9)) != (2.0 - 3.0) * (0.9 - 1.0):
        failures.append("pinball(2,3,0.9)")

    rng = np.random.default_rng(4)
    target = rng.normal(size=24)
    point, lower, upper = rng.normal(size=(3, 24))
    gamma_zero = composite_loss(target, point, lower, upper,
                                LossConfig(interval_weight=0.0))
    if gamma_zero != float(np.mean(pinball(target, point, 0.5))):
        failures.append("interval weight 0 must reduce to the point pinball")

    worst_sum = 0.0
    for _ in range(50):
        actual = rng.uniform(0.0, 1.0, size=500)
        lo_b = rng.uniform(0.0, 1.0, size=500)
        up_b = rng.uniform(0.0, 1.0, size=500)
        pm = pi_metrics(actual, lo_b, up_b, alpha=0.1, mean_test_load=1.0)
        worst_sum = max(worst_sum,
                        abs(pm.pi_in + pm.pi_below + pm.pi_above - 100.0))
    if worst_sum >= 1e-9:
        failures.append(f"coverage triple drifts from 100% by {worst_sum:.1e}")

    for z, expected in ((15.0, 10.0), (5.0, 110.0), (25.0, 110.0)):
        got = winkler_scores([z], [10.0], [20.0], alpha=0.1)[0]
        if got != expected:
            failures.append(f"interval score z={z}: {got!r} != {expected}")

    verdict(capsys, 4, not failures,
            "pinball worked examples exact, zero interval weight reduces to "
            "point pinball, coverage triple sums to 100%, interval score "
            "inside/below/above cases exact (10/110/110)"
            + (f"; failures: {failures}" if failures else ""))


def test_5_predictive_ability_test(capsys):
    same = gw_test(np.full(40, 3.0), np.full(40, 3.0))
    degenerate_ok = same.degenerate and same.p_value == 1.0

    rng = np.random.default_rng(7)
    n, reps = 364, 1000
    rejections = 0
    for _ in range(reps):
        d = -1.0 + 0.1 * rng.standard_normal(n)
        if gw_test(5.0 + d, np.full(n, 5.0)).p_value < 0.01:
            rejections += 1
    ok = degenerate_ok and rejections >= int(0.99 * reps)
    verdict(capsys, 5, ok,
            f"zero differential: degenerate flag with p=1 "
            f"({'yes' if degenerate_ok else 'NO'}); noisy dominance "
            f"(n={n}): {rejections}/{reps} rejections at p<0.01 "
            f"(need >= {int(0.99 * reps)})")


def test_6_synthetic_experiment_beats_seasonal_naive(capsys):
    started = time.monotonic()
    store = synthetic_store(n_series=4, days=1095,
                            start=dt.date(2015, 1, 1), seed=0)
    cfg = desk_preset()
    series = [store.get(sid) for sid in store.series_ids]
    data = build_training_set(series,
                              (dt.date(2015, 1, 1), dt.date(2016, 12, 31)))
    ensemble = train_ensemble(data, cfg.model, cfg.recipe)

    series_by_id = {s.series_id: s for s in series}
    lo, hi = dt.date(2017, 1, 1), dt.date(2017, 12, 30)
    mapes, coverages, naive_mapes, day_counts = [], [], [], []
    for s in series:
        records = forecast_range(ensemble, s, lo, hi)
        report = evaluate_forecasts(records, series_by_id)
        mapes.append(report.mape)
        coverages.append(report.pi_in)
        day_counts.append(report.n_days)
        week = dt.timedelta(days=7)
        pes = [100.0 * np.abs(day_actual(s, r.target_date)
                              - day_actual(s, r.target_date - week))
               / day_actual(s, r.target_date) for r in records]
        naive_mapes.append(float(np.mean(pes)))

    mape = float(np.mean(mapes))
    naive = float(np.mean(naive_mapes))
    coverage = float(np.mean(coverages))
    elapsed = time.monotonic() - started

    failures = []
    if day_counts != [364, 364, 364, 364]:
        failures.append(f"incomplete test year: {day_counts}")
    if not mape < naive:
        failures.append(f"MAPE {mape:.3f} not below naive {naive:.3f}")
    if not 82.0 <= coverage <= 97.0:
        failures.append(f"coverage {coverage:.1f}% outside [82, 97]")
    if elapsed >= 600.0:
        failures.append(f"too slow: {elapsed:.0f}s")
    verdict(capsys, 6, not failures,
            f"attentive ensemble (3 members) on 4 triple-seasonal series: "
            f"test-year MAPE {mape:.3f} vs seasonal-naive {naive:.3f}, "
            f"90% interval coverage {coverage:.1f}% (band [82, 97]), "
            f"{elapsed:.0f}s" + (f"; failures: {failures}" if failures else ""))


@pytest.fixture(scope="module")
def cli_artifacts(tmp_path_factory):
    """Tiny store and run config for exercising the command line."""
    root = tmp_path_factory.mktemp("accept_cli")
    store = str(root / "data.store")
    config = root / "run.json"
    config.write_text(json.dumps({
        "model": {"cell_variant": "drnn", "hidden_size": 4, "embed_size": 4},
        "recipe": {"epochs": 1, "learning_rates": {"1": 1e-3},
                   "batch_sizes": {"1": 2}, "seeds": [0]},
    }), encoding="utf-8")
    assert main(["synth", "--series", "2", "--days", "40", "--seed", "9",
                 "--store", store]) == 0
    return {"root": root, "store": store, "config": str(config)}


def test_7_report_shapes(cli_artifacts, capsys, tmp_path):
    model = str(tmp_path / "m.model")
    out_dir = tmp_path / "reports"
    assert main(["train", "--store", cli_artifacts["store"], "--out", model,
                 "--config", cli_artifacts["config"],
                 "--train-range", "2015-01-08:2015-01-30"]) == 0
    assert main(["evaluate", "--store", cli_artifacts["store"],
                 "--model", f"one={model}", "--model", f"two={model}",
                 "--test-range", "2015-01-31:2015-02-09",
                 "--out-dir", str(out_dir)]) == 0

    import csv as csv_mod
    with open(out_dir / "table1.csv", newline="") as fh:
        header1 = tuple(next(csv_mod.reader(fh)))
    with open(out_dir / "table2.csv", newline="") as fh:
        header2 = tuple(next(csv_mod.reader(fh)))
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        matrix = json.load(fh)["gw"]["matrix"]
    diagonal = [matrix[label][label] for label in ("one", "two")]

    failures = []
    if header1 != TABLE1_COLUMNS:
        failures.append(f"point-metric columns {header1}")
    if header2 != TABLE2_COLUMNS:
        failures.append(f"interval-metric columns {header2}")
    if diagonal != [1.0, 1.0]:
        failures.append(f"matrix diagonal {diagonal}")
    verdict(capsys, 7, not failures,
            f"evaluation emits point-metric columns {list(TABLE1_COLUMNS)} "
            f"and interval columns {list(TABLE2_COLUMNS)}; pairwise-test "
            f"matrix diagonal {diagonal}"
            + (f"; failures: {failures}" if failures else ""))


def test_8_training_is_byte_deterministic(cli_artifacts, capsys, tmp_path):
    out1, out2 = str(tmp_path / "a.model"), str(tmp_path / "b.model")
    args = ["train", "--store", cli_artifacts["store"],
            "--config", cli_artifacts["config"],
            "--train-range", "2015-01-08:2015-01-30"]
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        bytes1, bytes2 = f1.read(), f2.read()
    verdict(capsys, 8, bytes1 == bytes2,
            f"two training runs with fixed seeds wrote byte-identical "
            f"model files ({len(bytes1)} bytes)")
