"""Command-line surface: synth, ingest, export, train, forecast, evaluate,
gradcheck.

Every command is deterministic given its inputs and seeds and exits
nonzero on any error.  Dates are ISO (YYYY-MM-DD); ranges are written
``first:last`` with both ends inclusive.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime as dt
import json
import sys
import time

from .config import load_run_config, preset
from .dataset import (
    export_csv,
    ingest_csv,
    load_store,
    save_store,
    synthetic_store,
)
from .errors import LoadcastError
from .evaluation import build_report, sort_records, write_csv, write_report
from .files import replacing
from .gradcheck import check_cell
from .network import CELL_VARIANTS
from .serialize import load_ensemble, save_ensemble
from .preprocess import build_training_set
from .training import EnsembleModel, forecast_range, train


def _parse_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise LoadcastError(f"bad date {text!r}, expected YYYY-MM-DD") from None


def _parse_range(text: str):
    first, sep, last = text.partition(":")
    lo = _parse_date(first)
    hi = _parse_date(last) if sep else lo
    if hi < lo:
        raise LoadcastError(f"date range {text!r} runs backwards")
    return lo, hi


def _print_manifest(manifest):
    for sid, entry in manifest["series"].items():
        print(f"series {sid}: {entry['hours']} hours from {entry['start']} "
              f"to {entry['end']}, {entry['missing_hours']} missing "
              f"({entry['coverage_pct']:.1f}% coverage), "
              f"{entry['gap_count']} gaps")
    print(f"total: {manifest['total_series']} series, "
          f"{manifest['total_hours']} hours")


def cmd_synth(args) -> int:
    if args.series < 1 or args.days < 1:
        raise LoadcastError("synth needs --series and --days of at least 1")
    if not 0.0 <= args.noise < float("inf"):
        raise LoadcastError(f"synth needs a finite --noise of at least 0, "
                            f"not {args.noise}")
    start = _parse_date(args.start)
    if args.days > (dt.date.max - start).days + 1:
        raise LoadcastError(f"synth: {args.days} days from {start} run past "
                            f"{dt.date.max}")
    store = synthetic_store(n_series=args.series, days=args.days,
                            start=start, seed=args.seed, noise=args.noise)
    if args.csv is None and args.store is None:
        raise LoadcastError("synth needs --csv and/or --store")
    if args.csv:
        export_csv(store, args.csv)
    if args.store:
        save_store(args.store, store)
    _print_manifest(store.manifest())
    return 0


def cmd_ingest(args) -> int:
    store = ingest_csv(args.csv)
    save_store(args.store, store)
    _print_manifest(store.manifest())
    return 0


def cmd_export(args) -> int:
    export_csv(load_store(args.store), args.csv)
    return 0


def _load_config(args):
    config = load_run_config(args.config) if args.config else preset(args.preset)
    if args.cell:
        config = dataclasses.replace(
            config, model=dataclasses.replace(config.model,
                                              cell_variant=args.cell))
    return config


def cmd_train(args) -> int:
    config = _load_config(args)
    store = load_store(args.store)
    train_range = _parse_range(args.train_range) if args.train_range else None
    data = build_training_set(
        [store.get(sid) for sid in store.series_ids], train_range)

    log_lines = []

    def log(line):
        log_lines.append(line)
        print(line)

    log(f"training {config.model.cell_variant} on {len(data.series_ids)} "
        f"series, {len(data)} samples, {len(config.recipe.seeds)} members")
    started = time.monotonic()
    members = []
    for seed in config.recipe.seeds:
        result = train(data, config.model, config.recipe, seed=seed,
                       loss_config=config.loss)
        for epoch, loss in enumerate(result.epoch_losses, start=1):
            log(f"member seed={seed} epoch {epoch}/{config.recipe.epochs} "
                f"loss={loss!r} lr={config.recipe.lr_at(epoch)} "
                f"batch={config.recipe.batch_at(epoch)}")
        log(f"member seed={seed} finished: {result.update_count} updates")
        members.append(result.model)
    ensemble = EnsembleModel(tuple(members))
    save_ensemble(args.out, ensemble, recipe=config.recipe,
                  loss_config=config.loss)
    log(f"wrote {args.out} after {time.monotonic() - started:.1f}s")
    if args.log:
        with replacing(args.log) as (tmp,):
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write("\n".join(log_lines) + "\n")
    return 0


def _load_model(path, label=None):
    """(label, ensemble) of a model file; default label: its cell variant."""
    ensemble, meta = load_ensemble(path)
    if label is None:
        label = meta["cell_variant"] or ensemble.config.cell_variant
    return label, ensemble


def cmd_forecast(args) -> int:
    store = load_store(args.store)
    lo, hi = _parse_range(args.dates)
    label, ensemble = _load_model(args.model)
    records = forecast_range(ensemble, store.get(args.series), lo, hi,
                             label=label)
    if not records:
        raise LoadcastError(
            f"no forecastable days for {args.series} in {args.dates}")

    rows, days = [], []
    for rec in sort_records(records):
        start = dt.datetime.combine(rec.target_date, dt.time())
        values = {key: getattr(rec, key).tolist()
                  for key in ("point", "lower", "upper")}
        days.append({"date": rec.target_date.isoformat(), **values})
        rows += [((start + dt.timedelta(hours=hour)).isoformat(),
                  *(repr(v[hour]) for v in values.values()))
                 for hour in range(24)]

    header = ["timestamp", "point_mw", "lower_mw", "upper_mw"]
    if args.csv:
        with replacing(args.csv) as (tmp,):
            write_csv(tmp, header, rows)
    if args.json:
        payload = {"series": args.series, "model": records[0].model,
                   "days": days}
        with replacing(args.json) as (tmp,):
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
    if not args.csv and not args.json:
        for row in [header, *rows]:
            print(",".join(row))
    print(f"forecast {args.series}: {len(records)} days, {len(rows)} rows",
          file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise LoadcastError("--alpha must lie in (0, 1)")
    store = load_store(args.store)
    if args.test_range:
        lo, hi = _parse_range(args.test_range)
    else:
        last = max(store.get(sid).end for sid in store.series_ids)
        lo, hi = dt.date(last.year, 1, 1), dt.date(last.year, 12, 31)
        print(f"test range defaulting to final calendar year "
              f"{lo.isoformat()}:{hi.isoformat()}")

    models = {}
    for item in args.model:
        # label=path, or a bare path labelled by its cell variant
        label, sep, path = item.partition("=")
        if not sep:
            label, path = None, item
        elif not label:
            raise LoadcastError(f"--model {item!r} has an empty label")
        label, ensemble = _load_model(path, label)
        if label in models:
            raise LoadcastError(f"duplicate model label {label!r}; "
                                "use label=path to disambiguate")
        models[label] = ensemble

    records = {label: forecast_range(ensemble, list(store.series.values()),
                                     lo, hi, label=label)
               for label, ensemble in models.items()}
    report = build_report(records, store.series, args.alpha, (lo, hi))
    write_report(report, args.out_dir)
    for line in report.summary_lines():
        print(line)
    print(f"reports written to {args.out_dir}")
    return 0


def cmd_gradcheck(args) -> int:
    kind, connection = CELL_VARIANTS[args.cell]
    try:
        report = check_cell(
            kind, args.input_size, args.hidden_size,
            out_size=args.out_size, connection=connection,
            dilation=args.dilation, steps=args.steps, seed=args.seed,
            corrupt_block=args.corrupt)
    except KeyError as exc:  # an unknown --corrupt block
        raise LoadcastError(exc.args[0]) from None
    for block in report.blocks:
        flag = "ok" if block.worst_rel_error < report.tolerance else "FAIL"
        print(f"  {block.name:24s} worst {block.worst_rel_error:.3e} "
              f"({block.checked} coords) {flag}")
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{args.cell} dilation={args.dilation} steps={args.steps}: "
          f"max relative error {report.worst:.3e} "
          f"(tolerance {report.tolerance:g}) {verdict}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loadcast",
        description="Recurrent day-ahead load forecasting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic hourly dataset")
    p.add_argument("--series", type=int, default=4)
    p.add_argument("--days", type=int, default=1095)
    p.add_argument("--start", default="2015-01-01")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=120.0)
    p.add_argument("--csv", help="write the dataset as CSV")
    p.add_argument("--store", help="write the dataset as a binary store")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="validate a CSV and build a store")
    p.add_argument("--csv", required=True)
    p.add_argument("--store", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("export", help="write a store back to CSV")
    p.add_argument("--store", required=True)
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("train", help="train an ensemble on a store")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--config", help="run config JSON file")
    p.add_argument("--preset", default="full", choices=("full", "desk"))
    p.add_argument("--cell", choices=sorted(CELL_VARIANTS),
                   help="override the configured cell variant")
    p.add_argument("--train-range", help="first:last target dates")
    p.add_argument("--log", help="also write the progress log to a file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", help="day-ahead forecasts for one series")
    p.add_argument("--model", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--dates", required=True, help="date or first:last range")
    p.add_argument("--csv", help="write hourly rows to this CSV")
    p.add_argument("--json", help="write per-day arrays to this JSON")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", help="score models over a test range")
    p.add_argument("--store", required=True)
    p.add_argument("--model", action="append", required=True,
                   metavar="LABEL=PATH",
                   help="model file, repeatable; bare path labels itself")
    p.add_argument("--test-range",
                   help="first:last dates; default: final calendar year")
    p.add_argument("--alpha", type=float, default=0.1,
                   help="nominal PI miss rate")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of one cell variant")
    p.add_argument("--cell", required=True, choices=sorted(CELL_VARIANTS))
    p.add_argument("--input-size", type=int, default=6)
    p.add_argument("--hidden-size", type=int, default=5)
    p.add_argument("--out-size", type=int, default=None)
    p.add_argument("--dilation", type=int, default=2)
    p.add_argument("--steps", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corrupt", metavar="BLOCK",
                   help="corrupt one gradient block as a negative control")
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LoadcastError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
