"""Command-line behavior: artifacts, round trips, exit codes."""

import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import loadcast
from loadcast.cells import cell_init
from loadcast.cli import build_parser, main
from loadcast.dataset import DatasetStore, ingest_csv, load_store, save_store
from loadcast.errors import ConfigError, ModelFileError
from loadcast.evaluation import TABLE1_COLUMNS, TABLE2_COLUMNS
from loadcast.network import CELL_VARIANTS, ModelConfig
from loadcast.preprocess import HourlySeries
from loadcast.serialize import load_ensemble


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic store plus one small trained model, built once."""
    root = tmp_path_factory.mktemp("cli")
    store_path = str(root / "data.store")
    csv_path = str(root / "data.csv")
    model_path = str(root / "gru1.model")
    config_path = str(root / "run.json")
    config = {
        "model": {"cell_variant": "gru1", "hidden_size": 6, "embed_size": 4},
        "recipe": {"epochs": 1, "learning_rates": {"1": 1e-3},
                   "batch_sizes": {"1": 2}, "seeds": [0, 1]},
    }
    (root / "run.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["synth", "--series", "2", "--days", "95", "--seed", "3",
                 "--store", store_path, "--csv", csv_path]) == 0
    assert main(["train", "--store", store_path, "--out", model_path,
                 "--config", config_path,
                 "--train-range", "2015-01-08:2015-02-28"]) == 0
    return {"root": root, "store": store_path, "csv": csv_path,
            "model": model_path, "config": config_path}


def test_synth_ingest_export_round_trip(workspace, tmp_path):
    store_a = ingest_csv(workspace["csv"])
    out_csv = str(tmp_path / "again.csv")
    store_file = str(tmp_path / "again.store")
    assert main(["ingest", "--csv", workspace["csv"],
                 "--store", store_file]) == 0
    assert main(["export", "--store", store_file, "--csv", out_csv]) == 0
    store_b = ingest_csv(out_csv)
    assert store_a.manifest() == store_b.manifest()
    assert store_a.manifest() == load_store(store_file).manifest()


def test_synth_and_ingest_print_their_manifest(tmp_path, capsys):
    # the manifest goes to the sys.stdout of the call, not of the import
    store, csv_path = str(tmp_path / "s.store"), str(tmp_path / "s.csv")
    assert main(["synth", "--series", "2", "--days", "10", "--store", store,
                 "--csv", csv_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "series synth1", "series synth2", "total"]
    assert lines[-1] == "total: 2 series, 480 hours"
    assert main(["ingest", "--csv", csv_path,
                 "--store", str(tmp_path / "t.store")]) == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_ingest_bad_file_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("series_id,timestamp,load_mw\nx,notatime,5\n",
                   encoding="utf-8")
    assert main(["ingest", "--csv", str(bad),
                 "--store", str(tmp_path / "s")]) == 1
    assert "error:" in capsys.readouterr().err


def test_ingest_accepts_a_byte_order_mark(workspace, tmp_path, capsys):
    # spreadsheet "CSV UTF-8" exports start with one
    marked = tmp_path / "marked.csv"
    with open(workspace["csv"], "rb") as fh:
        marked.write_bytes(b"\xef\xbb\xbf" + fh.read())
    store = str(tmp_path / "s.store")
    assert main(["ingest", "--csv", str(marked), "--store", store]) == 0
    assert "total: 2 series" in capsys.readouterr().out
    assert (load_store(store).manifest()
            == ingest_csv(workspace["csv"]).manifest())


def test_train_writes_log_and_is_byte_deterministic(workspace, tmp_path):
    out1, out2 = str(tmp_path / "a.model"), str(tmp_path / "b.model")
    log = tmp_path / "train.log"
    args = ["train", "--store", workspace["store"], "--config",
            workspace["config"], "--train-range", "2015-01-08:2015-02-28"]
    assert main(args + ["--out", out1, "--log", str(log)]) == 0
    assert main(args + ["--out", out2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()
    text = log.read_text(encoding="utf-8")
    assert "member seed=0 epoch 1/1" in text
    assert "loss=" in text and "lr=" in text


#: sha256 of the model file a zero-epoch ``train`` writes for each variant
#: at a small size (two members); pins the file layout and the
#: initialization draws
ZERO_EPOCH_SHA256 = {
    "adrnn": "65e058e3ded0a2f275d1e7f865ba5d056492cdaac8f1c953c05d8c6a09da9e1b",
    "dlstm": "c4e640da07e0a72440dd97da9e6de6b9e7d125269eacb78d613309dd89ddda2d",
    "drnn": "69b834d9bf3b26e93e3c26210ca71345411eb164d2e8c8a063db75b8084eeec8",
    "gru1": "ecf84b538237e46b6f7d2b3a6f4b1d1e0b38798c31eedfa2d906e7aee030c004",
    "gru2": "045e47986fa96dfae85a5df1bf521954330e1bbb0eef06ee580df5125a38e9d8",
    "lstm1": "44a165f6217cc6436f0bbcf4c1c65f45e888f81df51085e911defc7edffd7977",
    "lstm2": "660d14bac674f972a5839e230f455caf494095525243b544adbdde7fd9cd830e",
}


@pytest.mark.parametrize("variant", sorted(ZERO_EPOCH_SHA256))
def test_zero_epoch_model_file_is_pinned(workspace, tmp_path, variant):
    model = {"cell_variant": variant, "hidden_size": 3, "embed_size": 4}
    if variant in ("dlstm", "drnn", "adrnn"):
        model["out_size"] = 2
    if variant == "adrnn":
        model["upper_hidden_size"] = 4
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"model": model, "recipe": {
        "epochs": 0, "seeds": [0, 1]}}), encoding="utf-8")
    out = tmp_path / "zero.model"
    assert main(["train", "--store", workspace["store"], "--out", str(out),
                 "--config", str(config),
                 "--train-range", "2015-01-08:2015-02-28"]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == ZERO_EPOCH_SHA256[variant]


def test_cell_flag_accepts_all_variants():
    parser = build_parser()
    for variant in ("lstm1", "lstm2", "gru1", "gru2", "dlstm", "drnn",
                    "adrnn"):
        args = parser.parse_args(["train", "--store", "s", "--out", "m",
                                  "--cell", variant])
        assert args.cell == variant
    with pytest.raises(SystemExit):
        parser.parse_args(["train", "--store", "s", "--out", "m",
                           "--cell", "transformer"])


def test_forecast_row_counts_and_dual_serialization(workspace, tmp_path):
    out_csv = str(tmp_path / "f.csv")
    out_json = str(tmp_path / "f.json")
    assert main(["forecast", "--model", workspace["model"],
                 "--store", workspace["store"], "--series", "synth1",
                 "--dates", "2015-03-01", "--csv", out_csv]) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 24  # header plus one day

    assert main(["forecast", "--model", workspace["model"],
                 "--store", workspace["store"], "--series", "synth1",
                 "--dates", "2015-03-01:2015-03-07", "--csv", out_csv,
                 "--json", out_json]) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 168
    stamps = [r[0] for r in rows[1:]]
    assert stamps == sorted(stamps)

    with open(out_json, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["series"] == "synth1"
    assert len(payload["days"]) == 7
    flat_json = [v for day in payload["days"] for v in day["point"]]
    flat_csv = [float(r[1]) for r in rows[1:]]
    assert flat_csv == flat_json  # identical numbers, not just close


def test_forecast_unknown_series_fails(workspace, tmp_path, capsys):
    assert main(["forecast", "--model", workspace["model"],
                 "--store", workspace["store"], "--series", "nope",
                 "--dates", "2015-03-01",
                 "--csv", str(tmp_path / "f.csv")]) == 1
    assert "no series" in capsys.readouterr().err


def test_evaluate_reports_and_gw_matrix(workspace, tmp_path):
    out_dir = str(tmp_path / "reports")
    # same model under two labels: a self-comparison with >= 30 shared days
    assert main(["evaluate", "--store", workspace["store"],
                 "--model", f"one={workspace['model']}",
                 "--model", f"two={workspace['model']}",
                 "--test-range", "2015-03-01:2015-04-04",
                 "--out-dir", out_dir]) == 0

    with open(f"{out_dir}/table1.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TABLE1_COLUMNS
    assert [r[0] for r in rows[1:]] == ["one", "two"]
    assert rows[1][1:] == rows[2][1:]  # identical models, identical metrics

    with open(f"{out_dir}/table2.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == TABLE2_COLUMNS

    with open(f"{out_dir}/gw_matrix.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "one", "two"]
    matrix = {r[0]: dict(zip(rows[0][1:], map(float, r[1:])))
              for r in rows[1:]}
    assert matrix["one"]["one"] == 1.0
    assert matrix["two"]["two"] == 1.0
    assert matrix["one"]["two"] == 1.0  # degenerate self-comparison
    assert matrix["two"]["one"] == 1.0

    with open(f"{out_dir}/report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["gw"]["days"] >= 30
    assert "instruments" in report["gw"]
    assert report["ranking_by_mape"]["tied_series"] == 2  # every series tied
    assert set(report["models"]) == {"one", "two"}
    per_series = report["models"]["one"]["per_series"]
    assert set(per_series) == {"synth1", "synth2"}
    with open(f"{out_dir}/per_series.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 4  # 2 models x 2 series


def test_evaluate_duplicate_labels_rejected(workspace, tmp_path, capsys):
    assert main(["evaluate", "--store", workspace["store"],
                 "--model", workspace["model"],
                 "--model", workspace["model"],
                 "--test-range", "2015-03-01:2015-03-10",
                 "--out-dir", str(tmp_path / "r")]) == 1
    assert "duplicate model label" in capsys.readouterr().err


def test_evaluate_defaults_to_final_year(workspace, tmp_path, capsys):
    out_dir = str(tmp_path / "reports")
    assert main(["evaluate", "--store", workspace["store"],
                 "--model", workspace["model"], "--out-dir", out_dir]) == 0
    assert "final calendar year 2015-01-01:2015-12-31" in (
        capsys.readouterr().out)


def test_gradcheck_pass_and_corrupt_negative_control(capsys):
    assert main(["gradcheck", "--cell", "gru1", "--steps", "5",
                 "--hidden-size", "4", "--input-size", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "reset.W" in out

    assert main(["gradcheck", "--cell", "gru1", "--steps", "5",
                 "--hidden-size", "4", "--input-size", "5",
                 "--corrupt", "reset.W"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


@pytest.mark.parametrize("argv,message", [
    (["--cell", "lstm2", "--dilation", str(10**20)], "longest state ring"),
    # arrays past numpy's size range, and past any memory: no memory touched
    (["--cell", "gru1", "--hidden-size", str(10**9)],
     "does not fit in memory"),
    (["--cell", "adrnn", "--input-size", str(10**5), "--hidden-size",
      str(10**5)], "does not fit in memory"),
], ids=["past-ring-length", "past-array-range", "huge-cell"])
def test_gradcheck_unusable_sizes_exit_1(argv, message, capsys):
    assert main(["gradcheck", *argv]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


#: (variant, hidden_size, out_size, upper_hidden_size, dilation, accepted)
SIZE_RULES = [
    ("lstm1", 5, None, None, 2, True),
    ("gru2", 5, None, None, 2, True),
    ("lstm2", 5, 5, None, 2, True),
    ("lstm1", 5, 7, None, 2, False),
    ("gru1", 5, 7, None, 2, False),
    ("dlstm", 5, None, None, 2, True),
    ("drnn", 5, 3, None, 2, True),
    ("adrnn", 5, None, 3, 2, True),
    ("drnn", 5, None, 3, 2, False),
    ("gru1", 5, None, 5, 2, False),
    ("gru1", 0, None, None, 2, False),
    ("drnn", 0, 3, None, 2, False),
    ("adrnn", 5, 0, None, 2, False),
    ("adrnn", 5, None, 0, 2, False),
    ("lstm1", 5, None, None, 0, False),
    ("dlstm", 5, None, None, 0, False),
]


@pytest.mark.parametrize("variant,hidden,out,upper,dilation,accepted",
                         SIZE_RULES)
def test_cell_size_rules_agree_across_entry_points(
        variant, hidden, out, upper, dilation, accepted, capsys):
    kind, connection = CELL_VARIANTS[variant]
    sizes = {"hidden_size": hidden, "out_size": out,
             "upper_hidden_size": upper}
    for build in (lambda: ModelConfig(cell_variant=variant, embed_size=2,
                                      dilations=(dilation, 4, 7), **sizes),
                  lambda: cell_init(kind, 6, connection=connection,
                                    dilation=dilation, **sizes)):
        if accepted:
            build()
        else:
            with pytest.raises(ConfigError):
                build()
    if upper is not None:  # gradcheck has no flag for the second stage
        return
    argv = ["gradcheck", "--cell", variant, "--hidden-size", str(hidden),
            "--dilation", str(dilation), "--steps", "2"]
    if out is not None:
        argv += ["--out-size", str(out)]
    assert main(argv) == (0 if accepted else 1)
    err = capsys.readouterr().err
    assert ("error:" in err) is not accepted and "Traceback" not in err


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_missing_store_file_is_clean_error(tmp_path, capsys):
    assert main(["export", "--store", str(tmp_path / "absent.store"),
                 "--csv", str(tmp_path / "o.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_train_ill_typed_config_exits_1(workspace, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"recipe": {"epochs": 2.5}}), encoding="utf-8")
    assert main(["train", "--store", workspace["store"], "--config",
                 str(config), "--out", str(tmp_path / "m.model")]) == 1
    assert "epochs in recipe must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("raw,message", [
    ({"recipe": {"seeds": [-1]}}, "seeds must be >= 0"),
    # PiB-scale arrays: refused at once, no memory touched
    ({"model": {"hidden_size": 10**8}}, "does not fit in memory"),
    ({"model": {"embed_size": 10**11}}, "does not fit in memory"),
    ({"model": {"hidden_size": 10**9}}, "does not fit in memory"),
    ({"model": {"dilations": [2, 4, 10**20]}}, "longest state ring"),
    # the interval level is evaluate's --alpha; a run config holds none
    ({"alpha": 0.1}, "unknown run config keys: alpha"),
], ids=["negative-seed", "huge-hidden", "huge-embedding", "past-array-range",
        "past-ring-length", "alpha-key"])
def test_train_unusable_config_exits_1(workspace, tmp_path, capsys, raw,
                                       message):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "m.model"
    assert main(["train", "--store", workspace["store"], "--config",
                 str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_train_with_diverged_weights_exits_1(tmp_path, capsys):
    # a rate of 1e300 keeps one epoch's losses finite but leaves weights
    # near 1e300, whose squared norm overflows: the member is refused and no
    # model file is written
    store, out = str(tmp_path / "s.store"), tmp_path / "m.model"
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "model": {"cell_variant": "gru1", "hidden_size": 16, "embed_size": 8},
        "recipe": {"epochs": 1, "learning_rates": {"1": 1e300},
                   "seeds": [0]}}), encoding="utf-8")
    assert main(["synth", "--series", "2", "--days", "60", "--store",
                 store]) == 0
    assert main(["train", "--store", store, "--config", str(config),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "member seed=0 diverged" in err and "Traceback" not in err
    assert not out.exists()


def test_evaluate_headerless_store_exits_1(workspace, tmp_path, capsys):
    store = tmp_path / "headerless.store"
    store.write_bytes(b'loadcast-store\n{"format_version":1}\n')
    assert main(["evaluate", "--store", str(store), "--model",
                 workspace["model"], "--out-dir", str(tmp_path / "r")]) == 1
    assert "store header needs a list of series" in capsys.readouterr().err


def test_empty_store_rejected_and_evaluate_exits_1(workspace, tmp_path,
                                                   capsys):
    store = tmp_path / "empty.store"
    save_store(store, DatasetStore())
    with pytest.raises(ModelFileError, match="no series"):
        load_store(store)
    assert main(["evaluate", "--store", str(store), "--model",
                 workspace["model"], "--out-dir", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "error: store header lists no series" in err
    assert "Traceback" not in err


def test_evaluate_oversized_model_header_exits_1(workspace, tmp_path,
                                                 capsys):
    with open(workspace["model"], "rb") as fh:
        magic, header, payload = fh.read().split(b"\n", 2)
    header = json.loads(header)
    for member in header["members"]:
        member["config"]["hidden_size"] = 10**9
    model = tmp_path / "oversized.model"
    model.write_bytes(b"\n".join([magic, json.dumps(header).encode(),
                                  payload]))
    assert main(["evaluate", "--store", workspace["store"], "--model",
                 str(model), "--out-dir", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "error: model file truncated" in err and "Traceback" not in err


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_weights_rejected_and_forecast_exits_1(workspace, tmp_path,
                                                          capsys, bad):
    # a loaded NaN or infinity would only surface as a failed forecast
    with open(workspace["model"], "rb") as fh:
        magic, header, payload = fh.read().split(b"\n", 2)
    weights = np.frombuffer(payload, np.float64).copy()
    weights[len(weights) // 2] = bad
    model = tmp_path / "bad.model"
    model.write_bytes(b"\n".join([magic, header, weights.tobytes()]))
    with pytest.raises(ModelFileError, match="non-finite"):
        load_ensemble(model)
    assert main(["forecast", "--model", str(model), "--store",
                 workspace["store"], "--series", "synth1", "--dates",
                 "2015-03-10"]) == 1
    err = capsys.readouterr().err
    assert "error: model file holds non-finite weights" in err
    assert "Traceback" not in err


def test_non_finite_forecasts_exit_1(workspace, tmp_path, capsys):
    # finite weights near 1e300 load, but overflow the forward pass
    with open(workspace["model"], "rb") as fh:
        magic, header, payload = fh.read().split(b"\n", 2)
    weights = np.frombuffer(payload, np.float64) * 1e300
    assert np.isfinite(weights).all()
    model = tmp_path / "huge.model"
    model.write_bytes(b"\n".join([magic, header, weights.tobytes()]))
    load_ensemble(model)
    assert main(["forecast", "--model", str(model), "--store",
                 workspace["store"], "--series", "synth1", "--dates",
                 "2015-03-10"]) == 1
    assert main(["evaluate", "--store", workspace["store"], "--model",
                 f"big={model}", "--out-dir", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.count("error: model 'big' forecasts non-finite") == 1
    assert "error: model 'gru1' forecasts non-finite loads for series " \
        "'synth1' on 2015-03-10" in err
    assert "Traceback" not in err


def test_evaluate_mixed_member_configs_exits_1(workspace, tmp_path, capsys):
    # gru2's arrays have gru1's shapes: only the config tells them apart
    with open(workspace["model"], "rb") as fh:
        magic, header, payload = fh.read().split(b"\n", 2)
    header = json.loads(header)
    header["members"][1]["config"]["cell_variant"] = "gru2"
    model = tmp_path / "mixed.model"
    model.write_bytes(b"\n".join([magic, json.dumps(header).encode(),
                                  payload]))
    assert main(["evaluate", "--store", workspace["store"], "--model",
                 str(model), "--out-dir", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "error: bad members in model header" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("raw", [
    b"series_id,timestamp,load_mw\nx,2024-01-01T00:00:00,5\xff\n",
    b"series_id,timestamp,load_mw\nx,0001-01-01T00:00+01:00,5\n",
], ids=["not-utf8", "before-year-1-in-utc"])
def test_ingest_unreadable_csv_exits_1(tmp_path, capsys, raw):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(raw)
    assert main(["ingest", "--csv", str(bad),
                 "--store", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["evaluate", "--store", "{store}", "--model", "{model}",
     "--alpha", "0", "--out-dir", "{tmp}/r"],
    ["evaluate", "--store", "{store}", "--model", "{model}",
     "--alpha", "1", "--out-dir", "{tmp}/r"],
    # the day after the store ends is forecastable but has no actuals
    ["evaluate", "--store", "{store}", "--model", "{model}",
     "--test-range", "2015-04-06:2015-04-06", "--out-dir", "{tmp}/r"],
    ["synth", "--days", "0", "--store", "{tmp}/s"],
    ["synth", "--series", "0", "--store", "{tmp}/s"],
    ["gradcheck", "--cell", "gru1", "--steps", "0"],
    ["evaluate", "--store", "{store}", "--model", "={model}",
     "--out-dir", "{tmp}/r"],
    ["synth", "--noise", "-5", "--store", "{tmp}/s"],
    ["synth", "--noise", "nan", "--store", "{tmp}/s"],
    ["synth", "--noise", "inf", "--store", "{tmp}/s"],
    ["gradcheck", "--cell", "drnn", "--corrupt", "nope"],
    # the last day of the calendar: no day after it to step to
    ["forecast", "--store", "{store}", "--model", "{model}", "--series",
     "synth1", "--dates", "9999-12-31", "--csv", "{tmp}/f.csv"],
    ["evaluate", "--store", "{store}", "--model", "{model}",
     "--test-range", "9999-12-31:9999-12-31", "--out-dir", "{tmp}/r"],
    ["synth", "--start", "9999-01-01", "--days", "400", "--store", "{tmp}/s"],
], ids=["alpha-0", "alpha-1", "no-actuals", "zero-days", "zero-series",
        "zero-steps", "empty-label", "negative-noise", "nan-noise",
        "inf-noise", "unknown-corrupt-block", "forecast-calendar-end",
        "evaluate-calendar-end", "synth-past-calendar-end"])
def test_invalid_cli_input_is_clean_error(workspace, tmp_path, capsys, argv):
    argv = [arg.format(**workspace, tmp=tmp_path) for arg in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not (tmp_path / "s").exists()  # rejected before writing
    if "--corrupt" in argv:  # the message names the blocks one may corrupt
        assert "fusion.W" in err


def test_store_ending_on_the_last_calendar_day_trains_and_forecasts(
        workspace, tmp_path, capsys):
    store, model = str(tmp_path / "end.store"), str(tmp_path / "end.model")
    assert main(["synth", "--series", "1", "--start", "9999-11-01",
                 "--days", "61", "--store", store]) == 0
    assert load_store(store).get("synth1").end.isoformat() == (
        "9999-12-31T23:00:00")
    assert main(["train", "--store", store, "--out", model,
                 "--config", workspace["config"]]) == 0
    assert main(["forecast", "--store", store, "--model", model, "--series",
                 "synth1", "--dates", "9999-12-25:9999-12-31",
                 "--csv", str(tmp_path / "f.csv")]) == 0
    err = capsys.readouterr().err
    assert "synth1: 7 days" in err and "Traceback" not in err


def test_overflowing_loads_are_a_clean_error(workspace, tmp_path, capsys):
    # loads this large are finite and ingest, but their weeks' squared
    # deviations overflow, so no day has a usable input
    synth = load_store(workspace["store"]).get("synth1")
    huge = DatasetStore({"synth1": HourlySeries(
        "synth1", synth.start, synth.values[:20 * 24] * 1e156,
        synth.missing[:20 * 24])})
    store = str(tmp_path / "huge.store")
    save_store(store, huge)
    assert main(["forecast", "--store", store, "--model", workspace["model"],
                 "--series", "synth1", "--dates", "2015-01-10:2015-01-20"]) == 1
    assert main(["train", "--store", store, "--out", str(tmp_path / "m"),
                 "--config", workspace["config"]]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "Traceback" not in err
    assert not (tmp_path / "m").exists()


def test_store_running_past_the_calendar_is_a_clean_error(workspace,
                                                          tmp_path, capsys):
    # 48 hours from 9999-12-31T00:00 end a day past datetime.max
    synth = load_store(workspace["store"]).get("synth1")
    store = tmp_path / "late.store"
    save_store(store, DatasetStore({"a": HourlySeries(
        "a", synth.start, synth.values[:48], synth.missing[:48])}))
    magic, header, payload = store.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    header["series"][0]["start"] = "9999-12-31T00:00:00"
    store.write_bytes(b"\n".join([magic, json.dumps(header).encode(),
                                  payload]))
    for argv in (["export", "--csv", str(tmp_path / "a.csv")],
                 ["train", "--out", str(tmp_path / "m"),
                  "--config", workspace["config"]],
                 ["evaluate", "--model", workspace["model"],
                  "--out-dir", str(tmp_path / "r")]):
        assert main([*argv, "--store", str(store)]) == 1
    err = capsys.readouterr().err
    assert err.count("error: store series 'a': series runs past") == 3
    assert "Traceback" not in err


def test_model_bytes_at_one_and_two_blas_threads(workspace, tmp_path,
                                                  record_property):
    # OpenBLAS reads its thread count when numpy loads, so each run is its
    # own process; layer 1's stacked matrices (708 x 182 for the lower stage)
    # are large enough for OpenBLAS to split their products over threads
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "model": {"cell_variant": "adrnn", "hidden_size": 4, "embed_size": 4},
        "recipe": {"epochs": 2, "seeds": [0]}}), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(loadcast.__file__))
    digests = {}
    for threads in ("1", "1", "2", "2"):
        out = tmp_path / f"t{threads}-{len(digests.get(threads, []))}.model"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run(
            [sys.executable, "-m", "loadcast", "train",
             "--store", workspace["store"], "--out", str(out),
             "--config", str(config), "--train-range", "2015-01-08:2015-02-28"],
            env=env, check=True, capture_output=True, timeout=300)
        digests.setdefault(threads, []).append(
            hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests["1"][0] == digests["1"][1]
    assert digests["2"][0] == digests["2"][1]
    # not a requirement: README states what this host showed
    record_property("blas_thread_counts_agree", digests["1"] == digests["2"])
