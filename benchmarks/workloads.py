"""The three benchmark workloads: generated inputs, set-up, timed passes and
the checks on every output.

Every workload runs the program's public entry points in this process.  Its
inputs come from ``synthetic_store`` seeded with the run's seed; the seed only
changes the noise, so every seed gives the same amount of work.  Model seeds
are fixed at 0, 1, 2, ... so the same store always trains the same weights.

A *pass* is one execution of the timed region.  A run repeats passes for the
requested number of seconds and reports medians over them.  Every pass must
reproduce the first pass's quality numbers bit for bit; a pass that does not,
or whose outputs fail a check, counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

# the timed region calls the program through its modules' attributes, so
# that the traced run's rebound names are the ones called
from loadcast import cli, preprocess
from loadcast.dataset import (DatasetStore, export_csv, ingest_csv, load_store,
                              save_store, synthetic_store)
from loadcast.evaluation import evaluate_forecasts
from loadcast.network import CELL_VARIANTS, ModelConfig
from loadcast.preprocess import HourlySeries
from loadcast.serialize import load_ensemble, save_ensemble
from loadcast.training import EnsembleModel, TrainRecipe, forecast_range, train

START = dt.date(2015, 1, 1)
DAY = dt.timedelta(days=1)
#: the first target day whose preceding week lies inside the store
FIRST_TARGET = START + 7 * DAY


@dataclass
class PassResult:
    """What one timed pass did, and the outputs the checks look at."""

    wall_s: float
    cpu_s: float
    days: int  # training samples x epochs, or forecast days
    quality: dict  # name -> float, must repeat bit for bit
    variant_s: dict = field(default_factory=dict)  # train-*: variant -> s
    samples: int = 0  # train-*: samples trained in the pass
    problems: list = field(default_factory=list)


def write_store(path: str, seed: int, n_series: int, days: int, gaps=None):
    """Generate series, ingest them as a user's CSV would be, write a store.

    ``gaps`` maps a series index to the day indices it is missing.
    """
    store = synthetic_store(n_series=n_series, days=days, start=START, seed=seed)
    out = DatasetStore()
    for i, sid in enumerate(store.series_ids):
        s = store.get(sid)
        missing = np.zeros(len(s), dtype=bool)
        for d in (gaps or {}).get(i, ()):
            missing[24 * d:24 * (d + 1)] = True
        values = np.where(missing, np.nan, s.values)
        out.series[sid] = HourlySeries(sid, s.start, values, missing)
    csv_path = path + ".csv"
    export_csv(out, csv_path)
    save_store(path, ingest_csv(csv_path))
    os.remove(csv_path)
    return load_store(path)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _timed(fn, *args):
    """Seconds that ``fn(*args)`` took."""
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


class TrainWorkload:
    """One epoch of ``build_training_set`` + ``train`` per cell variant."""

    setup_repeats = 5  # ``setup_s`` is their median

    def __init__(self, name, *, variants, n_series, train_days, hidden,
                 embed, batch, window=56, store_days=365):
        self.name = name
        self.variants = tuple(variants)
        self.n_series, self.train_days = n_series, train_days
        self.configs = {v: ModelConfig(cell_variant=v, hidden_size=hidden,
                                       embed_size=embed)
                        for v in self.variants}
        self.recipe = TrainRecipe(epochs=1, learning_rates={1: 3e-3},
                                  batch_sizes={1: batch}, window_days=window,
                                  seeds=(0,))
        self.train_range = (FIRST_TARGET,
                            FIRST_TARGET + (train_days - 1) * DAY)
        # one held-out week after the training range scores the models
        self.held_out = (self.train_range[1] + DAY, self.train_range[1] + 7 * DAY)
        # a year of history, of which the first weeks are trained on
        self.store_days = max(store_days, 7 + train_days + 7)
        self.series = None
        self.models = None

    # expected counts, from the generated data's shape alone
    def expected_samples(self) -> int:
        return self.n_series * self.train_days

    def expected_updates(self) -> int:
        batch = self.recipe.batch_at(1)
        return (math.ceil(self.n_series / batch)
                * math.ceil(self.train_days / self.recipe.window_days))

    def setup(self, seed: int, workdir: str):
        """Ingest the generated series and write the store.
        Returns (seconds, problems)."""
        t0 = time.perf_counter()
        store = write_store(os.path.join(workdir, "train.store"), seed,
                            self.n_series, self.store_days)
        self.series = [store.get(sid) for sid in store.series_ids]
        return time.perf_counter() - t0, []

    def run_pass(self, workdir: str) -> PassResult:
        wall = cpu = 0.0
        variant_s, losses, problems, models = {}, [], [], {}
        samples = 0
        for v in self.variants:
            w0, c0 = time.perf_counter(), time.process_time()
            data = preprocess.build_training_set(self.series,
                                                 self.train_range)
            result = train(data, self.configs[v], self.recipe, seed=0)
            dw, dc = time.perf_counter() - w0, time.process_time() - c0
            wall += dw
            cpu += dc
            variant_s[v] = dw
            samples += len(data)
            loss = result.epoch_losses[-1]
            losses.append(loss)
            models[v] = result.model
            if not all(math.isfinite(x) for x in result.epoch_losses):
                problems.append(f"{v}: non-finite training loss")
            if len(data) != self.expected_samples():
                problems.append(f"{v}: {len(data)} samples, expected "
                                f"{self.expected_samples()}")
            if result.update_count != self.expected_updates():
                problems.append(f"{v}: {result.update_count} updates, "
                                f"expected {self.expected_updates()}")
        if self.models is None:
            self.models = models
        # per-variant losses and weight digests must repeat bit for bit in
        # every pass, traced or not; the held-out scores of the first pass's
        # models then hold for every pass
        quality = {"train_loss": float(np.mean(losses))}
        quality.update({f"loss.{v}": x for v, x in zip(self.variants, losses)})
        quality.update({f"weights.{v}": hashlib.sha256(b"".join(
            a.tobytes() for _, a in m.named_arrays())).hexdigest()
            for v, m in models.items()})
        return PassResult(wall, cpu, samples * self.recipe.epochs, quality,
                          variant_s, samples, problems)

    def round_trip(self, workdir: str):
        """Every trained model survives save/load byte for byte.
        Returns (problems, seconds spent in save_ensemble)."""
        problems, save_s = [], 0.0
        for v, model in self.models.items():
            a, b = (os.path.join(workdir, f"{v}.{k}.model") for k in "ab")
            save_s += _timed(save_ensemble, a, EnsembleModel((model,)),
                             self.recipe)
            loaded, _ = load_ensemble(a)
            save_s += _timed(save_ensemble, b, loaded, self.recipe)
            with open(a, "rb") as fa, open(b, "rb") as fb:
                if fa.read() != fb.read():
                    problems.append(f"{v}: model bytes changed on round trip")
        return problems, save_s

    def held_out_quality(self):
        """MAPE and normalized Winkler of each model on the week after its
        training range, averaged over series and then over variants."""
        mapes, winklers, problems = [], [], []
        by_id = {s.series_id: s for s in self.series}
        for v, model in self.models.items():
            ensemble = EnsembleModel((model,))
            reports = []
            for s in self.series:
                records = forecast_range(ensemble, s, *self.held_out)
                if len(records) != 7:
                    problems.append(f"{v}/{s.series_id}: {len(records)} "
                                    "held-out forecasts, expected 7")
                    continue
                reports.append(evaluate_forecasts(records, by_id))
            mapes.append(np.mean([r.mape for r in reports]))
            winklers.append(np.mean([r.winkler_normalized for r in reports]))
        quality = {"mape_pct": float(np.mean(mapes)),
                   "winkler": float(np.mean(winklers))}
        problems += [f"held-out {k} is not finite" for k, x in quality.items()
                     if not _finite(x)]
        return quality, problems

    def finish(self, workdir: str):
        """Checks made once per run, outside the timed region."""
        problems, save_s = self.round_trip(workdir)
        quality, more = self.held_out_quality()
        return quality, problems + more, save_s


class EvaluateWorkload:
    """In-process ``loadcast evaluate`` of two trained desk ensembles."""

    name = "evaluate"
    labels = ("adrnn", "gru1")
    setup_repeats = 3  # ``setup_s`` is their median

    n_series = 4

    def __init__(self, *, test_days=92, members=3):
        # set-up trains one epoch on 4 weeks; the test range starts after
        self.train_range = (FIRST_TARGET, FIRST_TARGET + 27 * DAY)
        first = dt.date(2015, 3, 1)
        self.test_range = (first, first + (test_days - 1) * DAY)
        self.store_days = (self.test_range[1] - START).days + 1
        # one missing day every 4 weeks, staggered by a week per series;
        # the first falls inside the training range
        self.gaps = {i: list(range(10 + 7 * i, self.store_days, 28))
                     for i in range(self.n_series)}
        self.configs = {label: ModelConfig(cell_variant=label, hidden_size=16,
                                           embed_size=8)
                        for label in self.labels}
        self.recipe = TrainRecipe(epochs=1, learning_rates={1: 3e-3},
                                  batch_sizes={1: 2},
                                  seeds=tuple(range(members)))
        self.paths = None
        self.train_loss = None
        self.model_bytes = None
        self.save_s = 0.0

    def _present(self, i: int, day: dt.date) -> bool:
        d = (day - START).days
        return 0 <= d < self.store_days and d not in self.gaps[i]

    def expected_days(self):
        """Per series: (days with a forecast, days also scored).  A day has a
        forecast when its preceding week is complete, and is scored when
        the day itself is complete too."""
        out = []
        for i in range(self.n_series):
            made = scored = 0
            day = self.test_range[0]
            while day <= self.test_range[1]:
                if all(self._present(i, day - k * DAY) for k in range(1, 8)):
                    made += 1
                    scored += self._present(i, day)
                day += DAY
            out.append((made, scored))
        return out

    def setup(self, seed: int, workdir: str):
        """Write the gappy store, train both ensembles, write the models.
        Returns (seconds, problems)."""
        t0 = time.perf_counter()
        store_path = os.path.join(workdir, "eval.store")
        store = write_store(store_path, seed, self.n_series, self.store_days,
                            self.gaps)
        series = [store.get(sid) for sid in store.series_ids]
        data = preprocess.build_training_set(series, self.train_range)
        paths, losses, blobs = {"store": store_path}, [], {}
        save_s = 0.0
        for label, config in self.configs.items():
            results = [train(data, config, self.recipe, seed=s)
                       for s in self.recipe.seeds]
            losses += [r.epoch_losses[-1] for r in results]
            path = os.path.join(workdir, f"{label}.model")
            save_s += _timed(save_ensemble, path,
                             EnsembleModel(tuple(r.model for r in results)),
                             self.recipe)
            paths[label] = path
            with open(path, "rb") as fh:
                blobs[label] = fh.read()
        elapsed = time.perf_counter() - t0
        problems = []
        if self.model_bytes is not None and blobs != self.model_bytes:
            problems.append("set-up retraining changed model bytes")
        self.model_bytes, self.paths, self.save_s = blobs, paths, save_s
        self.train_loss = float(np.mean(losses))
        if not math.isfinite(self.train_loss):
            problems.append("set-up training loss is not finite")
        return elapsed, problems

    def argv(self, out_dir: str) -> list:
        lo, hi = self.test_range
        argv = ["evaluate", "--store", self.paths["store"],
                "--test-range", f"{lo.isoformat()}:{hi.isoformat()}",
                "--out-dir", out_dir]
        for label in self.labels:
            argv += ["--model", f"{label}={self.paths[label]}"]
        return argv

    def run_pass(self, workdir: str) -> PassResult:
        out_dir = os.path.join(workdir, "reports")
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = self.argv(out_dir)
        sink = io.StringIO()
        w0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        problems = [] if code == 0 else [f"evaluate exited {code}: "
                                         f"{sink.getvalue().strip()}"]
        expected = self.expected_days()
        days = len(self.labels) * sum(made for made, _ in expected)
        quality = {"train_loss": self.train_loss}
        if code == 0:
            with open(os.path.join(out_dir, "report.json"),
                      encoding="utf-8") as fh:
                report = json.load(fh)
            problems += self._check_report(report, expected)
            summaries = [report["models"][m]["summary"] for m in self.labels]
            quality["mape_pct"] = float(np.mean([s["mape"] for s in summaries]))
            quality["winkler"] = float(np.mean(
                [s["winkler_normalized"] for s in summaries]))
        return PassResult(wall, cpu, days, quality, problems=problems)

    def _check_report(self, report, expected):
        problems = []
        for label in self.labels:
            model = report["models"].get(label)
            if model is None:
                problems.append(f"report.json lacks model {label}")
                continue
            for i, (_, scored) in enumerate(expected):
                sid = f"synth{i + 1}"
                got = model["per_series"].get(sid, {}).get("n_days")
                if got != scored:
                    problems.append(f"{label}/{sid}: n_days {got}, "
                                    f"expected {scored}")
            for scope in [model["summary"]] + list(model["per_series"].values()):
                bad = [k for k, x in scope.items() if not _finite(x)]
                if bad:
                    problems.append(f"{label}: non-finite {bad}")
        matrix = report["gw"]["matrix"]
        if not all(_finite(x) for row in matrix.values() for x in row.values()):
            problems.append("GW matrix holds a non-finite p-value")
        return problems

    def finish(self, workdir: str):
        """Nothing left to check: set-up and every pass were checked."""
        return {}, [], self.save_s


def make_workloads(tiny: bool = False) -> dict:
    """The benchmark's workloads; ``tiny`` shrinks each for the self-check.

    Why each one (BENCHMARK.json holds the one-line form):

    train-desk
        All 7 cell variants at desk size (hidden 16, embed 8), batch 2.  The
        hot path is interpreter-bound in the per-op tape (record and backward
        are about 60%) and BLAS does little.  It runs every cell code path
        and the small-batch regime.  A fused or batched training engine
        shows its largest gain here.
    train-full
        adrnn at full size (hidden 125, embed 16), all 5 series in one batch.
        Matvec and outer-product work dominates, so an interpreter-only trick
        should show almost no gain here, and a fused engine a smaller one.
    evaluate
        The forward-only serve path, ``loadcast evaluate`` on two 3-member
        desk ensembles over a store with a missing day every 4 weeks.  It
        has no backward pass, loss or Adam, but warm-up plus per-day steps,
        a fresh tape per step, store and model loading, metrics, the GW test
        and report writing.  Batching across members and series shows its
        gain only here; the training workloads predict no change from it.
    """
    desk = dict(variants=sorted(CELL_VARIANTS), n_series=4, train_days=63,
                hidden=16, embed=8, batch=2)
    full = dict(variants=("adrnn",), n_series=5, train_days=35, hidden=125,
                embed=16, batch=5)
    evaluate = dict()
    if tiny:
        desk.update(train_days=14, hidden=4, embed=2, store_days=28)
        full.update(train_days=7, hidden=8, embed=4, store_days=21)
        evaluate.update(test_days=40, members=1)
    return {w.name: w for w in (TrainWorkload("train-desk", **desk),
                                TrainWorkload("train-full", **full),
                                EvaluateWorkload(**evaluate))}
