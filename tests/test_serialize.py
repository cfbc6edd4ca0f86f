"""Model file layout and the container shared with stores: round trips,
byte stability, corruption detection, atomic saves."""

import datetime as dt
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from loadcast import serialize
from loadcast.config import RunConfig, save_run_config
from loadcast.dataset import (
    export_csv,
    load_store,
    save_store,
    synthetic_store,
)
from loadcast.errors import ModelFileError
from loadcast.loss import LossConfig
from loadcast.network import ModelConfig, model_build
from loadcast.preprocess import build_training_set
from loadcast.serialize import load_ensemble, save_ensemble
from loadcast.training import EnsembleModel, TrainRecipe, forecast, train


def small_ensemble(members=2, variant="adrnn"):
    config = ModelConfig(cell_variant=variant, hidden_size=4, embed_size=4)
    return EnsembleModel(tuple(model_build(config, seed=s)
                               for s in range(members)))


def assert_members_equal(a, b):
    assert len(a.members) == len(b.members)
    for ma, mb in zip(a.members, b.members):
        assert ma.config == mb.config
        for (name_a, arr_a), (name_b, arr_b) in zip(ma.named_arrays(),
                                                    mb.named_arrays()):
            assert name_a == name_b
            np.testing.assert_array_equal(arr_a, arr_b)


def test_round_trip_bitwise(tmp_path):
    ens = small_ensemble()
    path = tmp_path / "m.model"
    save_ensemble(path, ens)
    loaded, meta = load_ensemble(path)
    assert_members_equal(ens, loaded)
    assert meta["cell_variant"] == "adrnn"
    assert meta["recipe"] is None and meta["loss"] is None


def test_metadata_round_trip(tmp_path):
    ens = small_ensemble(members=1, variant="gru1")
    recipe = TrainRecipe(epochs=2, learning_rates={1: 1e-3},
                         batch_sizes={1: 1}, seeds=(7,))
    loss = LossConfig(central_quantile=0.485)
    path = tmp_path / "m.model"
    save_ensemble(path, ens, recipe=recipe, loss_config=loss)
    _, meta = load_ensemble(path)
    assert meta["recipe"] == recipe
    assert meta["loss"] == loss
    assert meta["cell_variant"] == "gru1"


def test_save_is_byte_stable(tmp_path):
    ens = small_ensemble()
    p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
    save_ensemble(p1, ens)
    save_ensemble(p2, ens)
    assert p1.read_bytes() == p2.read_bytes()


def test_retrain_with_same_seed_is_byte_identical(tmp_path):
    store = synthetic_store(n_series=2, days=21)
    data = build_training_set([store.get(sid) for sid in store.series_ids])
    config = ModelConfig(cell_variant="gru1", hidden_size=4, embed_size=4)
    recipe = TrainRecipe(epochs=1, learning_rates={1: 1e-3},
                         batch_sizes={1: 2}, window_days=7, seeds=(0, 1))
    paths = []
    for tag in ("x", "y"):
        members = tuple(train(data, config, recipe, seed=s).model
                        for s in recipe.seeds)
        path = tmp_path / f"{tag}.model"
        save_ensemble(path, EnsembleModel(members), recipe=recipe)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_loaded_model_forecasts_identically(tmp_path):
    store = synthetic_store(n_series=1, days=30)
    series = store.get("synth1")
    ens = small_ensemble(members=2)
    path = tmp_path / "m.model"
    save_ensemble(path, ens)
    loaded, _ = load_ensemble(path)
    day = dt.date(2015, 1, 25)
    a = forecast(ens, series, day)
    b = forecast(loaded, series, day)
    np.testing.assert_array_equal(a.point, b.point)
    np.testing.assert_array_equal(a.lower, b.lower)
    np.testing.assert_array_equal(a.upper, b.upper)


def test_corruption_detected(tmp_path):
    ens = small_ensemble(members=1)
    path = tmp_path / "m.model"
    save_ensemble(path, ens)
    raw = path.read_bytes()

    (tmp_path / "bad1").write_bytes(b"who knows\n" + raw[15:])
    with pytest.raises(ModelFileError, match="magic"):
        load_ensemble(tmp_path / "bad1")
    (tmp_path / "bad2").write_bytes(raw[:-16])
    with pytest.raises(ModelFileError, match="truncated"):
        load_ensemble(tmp_path / "bad2")
    (tmp_path / "bad3").write_bytes(raw + b"\x00" * 8)
    with pytest.raises(ModelFileError, match="trailing"):
        load_ensemble(tmp_path / "bad3")

    bumped = raw.replace(b'"format_version":1', b'"format_version":9', 1)
    (tmp_path / "bad4").write_bytes(bumped)
    with pytest.raises(ModelFileError, match="version"):
        load_ensemble(tmp_path / "bad4")


def edit_member(key, value):
    def edit(header):
        header["members"][0][key] = value
        return header
    return edit


def edit_config(key, value):
    def edit(header):
        header["members"][0]["config"][key] = value
        return header
    return edit


@pytest.mark.parametrize("edit", [
    lambda h: [h],
    lambda h: {k: v for k, v in h.items() if k != "members"},
    lambda h: {**h, "members": []},
    lambda h: {**h, "members": "x"},
    lambda h: {**h, "cell_variant": 3},
    lambda h: {**h, "recipe": {"epochs": 2.5}},
    lambda h: {**h, "loss": {"gamma": "x"}},
    lambda h: {**h, "recipe": {"epsilon": float("nan")}},
    edit_member("config", "adrnn"),
    edit_member("arrays", None),
    edit_member("arrays", [["embed.W"]]),
    edit_config("hidden_size", "x"),
    edit_config("hidden_size", -1),
    edit_config("dilations", 7),
    edit_config("dilations", [2, 4, 10**20]),
    lambda h: {**h, "cell_variant": "gru1"},  # the members are adrnn
], ids=[
    "not-object", "no-members", "empty-members", "members-not-list",
    "int-variant", "fractional-epochs", "string-gamma", "nan-epsilon",
    "config-not-object", "arrays-null", "array-not-pair",
    "string-hidden", "negative-hidden", "int-dilations", "huge-dilation",
    "tag-mismatch"
])
def test_malformed_model_header_rejected(tmp_path, edit):
    path = tmp_path / "m.model"
    save_ensemble(path, small_ensemble(members=1))
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    header = json.dumps(edit(json.loads(header))).encode()
    path.write_bytes(b"\n".join([magic, header, payload]))
    with pytest.raises(ModelFileError):
        load_ensemble(path)


def test_members_of_different_configs_rejected(tmp_path):
    # each member's arrays match its own config, so only the ensemble's one
    # config rule catches a file mixing gru1 and lstm1 members
    members = [small_ensemble(members=1, variant=v).members[0]
               for v in ("gru1", "lstm1")]
    header = {"format_version": serialize.FORMAT_VERSION,
              "cell_variant": "gru1",
              "members": [serialize._member_header(m) for m in members],
              "recipe": None, "loss": None}
    path = tmp_path / "mixed.model"
    serialize.write_file(path, serialize.MAGIC, header,
                         [arr for m in members for _, arr in m.named_arrays()])
    with pytest.raises(ModelFileError, match="one model config"):
        load_ensemble(path)


def test_oversized_header_rejected_before_any_allocation(tmp_path,
                                                         monkeypatch):
    path = tmp_path / "m.model"
    save_ensemble(path, small_ensemble(members=1))
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    header = edit_config("hidden_size", 10**9)(json.loads(header))
    oversized = tmp_path / "oversized.model"
    oversized.write_bytes(
        b"\n".join([magic, json.dumps(header).encode(), payload]))

    def refuse(*args, **kwargs):
        raise AssertionError("model_allocate ran before the size check")

    monkeypatch.setattr(serialize, "model_allocate", refuse)
    with pytest.raises(AssertionError, match="model_allocate ran"):
        load_ensemble(path)  # the stand-in sits on the allocation path
    with pytest.raises(ModelFileError, match="truncated"):
        load_ensemble(oversized)


class FailOnThirdWrite:
    """Stand-in for ``open`` whose file fails on its third write: after the
    header line and the first array of write_file, which writes each in one
    call, or after two CSV rows or two JSON chunks."""

    def __init__(self, path, mode, **kwargs):
        self.fh = open(path, mode, **kwargs)
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 2:
            raise OSError("injected write failure")
        return self.fh.write(data)


@pytest.mark.parametrize("module, save, make", [
    ("serialize", save_ensemble, lambda n: small_ensemble(members=n)),
    ("serialize", save_store, lambda n: synthetic_store(n_series=n, days=2)),
    ("dataset", lambda path, store: export_csv(store, path),
     lambda n: synthetic_store(n_series=n, days=2)),
    ("config", save_run_config,
     lambda n: RunConfig(recipe=TrainRecipe(epochs=n))),
], ids=["model", "store", "export-csv", "run-config"])
def test_failed_save_leaves_previous_file(tmp_path, monkeypatch, module, save,
                                          make):
    path = tmp_path / "saved"
    save(path, make(1))
    before = path.read_bytes()
    monkeypatch.setattr(f"loadcast.{module}.open", FailOnThirdWrite,
                        raising=False)
    with pytest.raises(OSError, match="injected"):
        save(path, make(2))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["saved"]


def model_content(ensemble):
    return [arr.tobytes() for member in ensemble.members
            for _, arr in member.named_arrays()]


def store_content(store):
    return [(s.values.tobytes(), s.missing.tobytes())
            for s in store.series.values()]


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """Bytes, loader and content of one saved model and one saved store."""
    root = tmp_path_factory.mktemp("saved")
    save_ensemble(root / "m.model", small_ensemble(members=2),
                  recipe=TrainRecipe(), loss_config=LossConfig())
    store = synthetic_store(n_series=2, days=2)
    store.series["synth2"].missing[5] = True
    save_store(root / "d.store", store)
    return {
        "model": ((root / "m.model").read_bytes(),
                  lambda p: model_content(load_ensemble(p)[0])),
        "store": ((root / "d.store").read_bytes(),
                  lambda p: store_content(load_store(p))),
    }


@pytest.mark.parametrize("kind", ["model", "store"])
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_damaged_file_raises_or_loads_unchanged(saved_files, tmp_path, kind,
                                                data):
    raw, content = saved_files[kind]
    path = tmp_path / kind
    path.write_bytes(raw)
    original = content(path)
    if data.draw(st.booleans(), label="truncate"):
        path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        with pytest.raises(ModelFileError):
            content(path)
        return
    header_end = raw.index(b"\n", raw.index(b"\n") + 1)
    at = data.draw(st.integers(0, header_end), label="at")
    byte = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]))
    path.write_bytes(raw[:at] + bytes([byte]) + raw[at + 1:])
    try:
        loaded = content(path)
    except ModelFileError:
        return
    assert loaded == original
