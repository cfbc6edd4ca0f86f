"""Print one ``name sha256`` line per artefact of the program, so that two
checkouts can be compared byte for byte.

The artefacts:

- the model files of the 7 cell variants at desk size and of adrnn at
  hidden 125 (two members), with their epoch losses;
- their ``forecast_range`` outputs on the week after training;
- ``check_model`` reports of the 7 variants and ``check_cell`` reports of
  every variant at dilations 1, 2, 3 and 7 over 1, 5 and 9 steps;
- the files of one CLI ``synth``, ``train``, ``forecast`` and ``evaluate``
  run, written under a temporary directory.

The digests hold at one BLAS thread, which this script asks for unless
``OPENBLAS_NUM_THREADS`` is set.  It imports the program from the ``src/``
of its own checkout, whatever ``PYTHONPATH`` or an installed package holds,
and exits 1 if it cannot.  Run it in each checkout and diff::

    python tools/digests.py > a.txt
    diff a.txt b.txt

``--tiny`` makes the same artefacts at toy sizes, in about a second.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime as dt
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

# set before numpy loads, with the package
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import loadcast

if Path(loadcast.__file__).resolve().parent != (SRC / "loadcast").resolve():
    sys.exit(f"digests: imported loadcast from {loadcast.__file__}, "
             f"not from {SRC}")

from loadcast import cli
from loadcast.config import desk_preset, save_run_config
from loadcast.dataset import synthetic_store
from loadcast.gradcheck import check_cell, check_model
from loadcast.network import CELL_VARIANTS, ModelConfig
from loadcast.preprocess import build_training_set
from loadcast.serialize import save_ensemble
from loadcast.training import EnsembleModel, forecast_range, train

START = dt.date(2015, 1, 1)
DAY = dt.timedelta(days=1)

#: sizes of the full and the ``--tiny`` run
SIZES = {
    False: dict(variants=sorted(CELL_VARIANTS), series=3, train_days=60,
                epochs=2, seeds=(0, 1), big_hidden=125, big_epochs=1,
                model_steps=6, coords=6, dilations=(1, 2, 3, 7),
                steps=(1, 5, 9), cli_days=120),
    True: dict(variants=("adrnn", "lstm2"), series=2, train_days=8,
               epochs=1, seeds=(0,), big_hidden=6, big_epochs=1,
               model_steps=2, coords=2, dilations=(1, 2), steps=(3,),
               cli_days=30),
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def forecast_bytes(records) -> bytes:
    return b"".join(f"{r.series_id} {r.target_date}".encode()
                    + r.point.tobytes() + r.lower.tobytes()
                    + r.upper.tobytes() for r in records)


def model_digests(size: dict, workdir: Path):
    """Train each ensemble, save it and forecast the following week."""
    store = synthetic_store(n_series=size["series"],
                            days=7 + size["train_days"] + 8, seed=0)
    series = [store.get(sid) for sid in store.series_ids]
    first = START + 7 * DAY
    last = first + (size["train_days"] - 1) * DAY
    data = build_training_set(series, (first, last))
    desk = desk_preset()
    recipe = dataclasses.replace(desk.recipe, epochs=size["epochs"],
                                 seeds=size["seeds"])
    runs = [(v, dataclasses.replace(desk.model, cell_variant=v), recipe)
            for v in size["variants"]]
    runs.append((f"adrnn-h{size['big_hidden']}",
                 ModelConfig(hidden_size=size["big_hidden"], embed_size=8),
                 dataclasses.replace(recipe, epochs=size["big_epochs"])))
    for name, config, recipe in runs:
        results = [train(data, config, recipe, seed=s) for s in recipe.seeds]
        yield f"losses.{name}", sha(repr(
            [r.epoch_losses for r in results]).encode())
        ensemble = EnsembleModel(tuple(r.model for r in results))
        path = workdir / f"{name}.model"
        save_ensemble(path, ensemble, recipe=recipe)
        yield f"model.{name}", sha(path.read_bytes())
        records = forecast_range(ensemble, series, last + DAY, last + 7 * DAY)
        yield f"forecast.{name}", sha(forecast_bytes(records))


def check_digests(size: dict):
    for variant in size["variants"]:
        kind, connection = CELL_VARIANTS[variant]
        split = variant in ("dlstm", "drnn", "adrnn")
        config = ModelConfig(cell_variant=variant, hidden_size=3,
                             out_size=2 if split else None, embed_size=4)
        yield f"check_model.{variant}", sha(repr(check_model(
            config, steps=size["model_steps"],
            max_coords_per_block=size["coords"])).encode())
        for dilation in size["dilations"]:
            for steps in size["steps"]:
                report = check_cell(kind, 3, 2, out_size=2 if split else None,
                                    connection=connection, dilation=dilation,
                                    steps=steps)
                yield (f"check_cell.{variant}.d{dilation}.t{steps}",
                       sha(repr(report).encode()))


def cli_digests(size: dict, workdir: Path):
    """One synth, train, forecast and evaluate run; its printed lines hold
    timings, so only its files are digested."""
    days = size["cli_days"]
    last = START + (days - 1) * DAY
    test = f"{last - 13 * DAY}:{last}"
    desk = desk_preset()
    config = dataclasses.replace(
        desk, model=dataclasses.replace(desk.model, cell_variant="drnn"),
        recipe=dataclasses.replace(desk.recipe, epochs=size["epochs"],
                                   seeds=size["seeds"]))
    save_run_config(workdir / "run.json", config)
    store, model = str(workdir / "s.store"), str(workdir / "m.model")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for argv in (
                ["synth", "--series", "2", "--days", str(days), "--seed", "3",
                 "--store", store, "--csv", str(workdir / "s.csv")],
                ["train", "--store", store, "--out", model,
                 "--config", str(workdir / "run.json"),
                 "--train-range", f"{START + 7 * DAY}:{last - 14 * DAY}"],
                ["forecast", "--model", model, "--store", store,
                 "--series", "synth1", "--dates", test,
                 "--csv", str(workdir / "f.csv"),
                 "--json", str(workdir / "f.json")],
                ["evaluate", "--store", store, "--model", model,
                 "--test-range", test, "--out-dir", str(workdir / "report")]):
            if cli.main(argv) != 0:
                raise SystemExit(f"loadcast {argv[0]} failed")
    for path in sorted(workdir.rglob("*")):
        if path.is_file():
            yield f"cli.{path.relative_to(workdir)}", sha(path.read_bytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true",
                        help="toy sizes, for a smoke test")
    size = SIZES[parser.parse_args(argv).tiny]
    with tempfile.TemporaryDirectory() as tmp:
        models, run = Path(tmp, "models"), Path(tmp, "cli")
        models.mkdir()
        run.mkdir()
        for name, digest in (*model_digests(size, models),
                             *check_digests(size), *cli_digests(size, run)):
            print(name, digest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
