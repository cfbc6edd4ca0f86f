"""Run config schema: presets, strict keys, file round trips."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loadcast.config import (
    RunConfig,
    desk_preset,
    from_json,
    full_preset,
    load_run_config,
    preset,
    save_run_config,
    to_json,
)
from loadcast.errors import ConfigError
from loadcast.loss import LossConfig
from loadcast.network import CELL_VARIANTS, ModelConfig
from loadcast.training import TrainRecipe


def parse(raw):
    return from_json(RunConfig, raw, "run config")


def test_full_preset_carries_reference_settings():
    rc = full_preset()
    assert rc.model.hidden_size == 125
    assert rc.model.embed_size == 16
    assert rc.model.cell_variant == "adrnn"
    assert rc.recipe.epochs == 10
    assert rc.recipe.learning_rates == {1: 3e-3, 6: 1e-3, 7: 3e-4, 8: 1e-4}
    assert rc.recipe.batch_sizes == {1: 2, 4: 5}
    assert len(rc.recipe.seeds) == 5
    assert rc.loss.central_quantile == 0.5
    assert rc.loss.interval_weight == 0.3


def test_desk_preset_is_small():
    rc = desk_preset()
    assert rc.model.hidden_size == 16
    assert len(rc.recipe.seeds) == 3
    assert rc.recipe.epochs < full_preset().recipe.epochs


def test_preset_lookup():
    assert preset("desk") == desk_preset()
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("mainframe")


def test_dict_round_trip():
    rc = desk_preset()
    assert parse(to_json(rc)) == rc


def test_empty_dict_gives_full_defaults():
    assert parse({}) == full_preset()


def test_file_round_trip(tmp_path):
    rc = desk_preset()
    path = tmp_path / "run.json"
    save_run_config(path, rc)
    assert load_run_config(path) == rc


def test_loss_section_uses_external_key_names():
    rc = parse({"loss": {"q_star": 0.485, "gamma": 0.2}})
    assert rc.loss.central_quantile == 0.485
    assert rc.loss.interval_weight == 0.2
    assert rc.loss.lower_quantile == 0.05  # untouched default


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown run config keys: extra"):
        parse({"extra": 1})
    with pytest.raises(ConfigError, match="unknown model keys"):
        parse({"model": {"hidden": 8}})
    with pytest.raises(ConfigError, match="unknown loss keys"):
        parse({"loss": {"quantile": 0.5}})
    with pytest.raises(ConfigError, match="unknown recipe keys"):
        parse({"recipe": {"lr": 0.1}})


def test_schedule_keys_parse_from_strings():
    rc = parse({"recipe": {"learning_rates": {"1": 0.01, "3": 0.001}}})
    assert rc.recipe.learning_rates == {1: 0.01, 3: 0.001}
    with pytest.raises(ConfigError, match="integer epochs"):
        parse({"recipe": {"learning_rates": {"one": 0.01}}})
    with pytest.raises(ConfigError, match="map"):
        parse({"recipe": {"learning_rates": [0.01]}})


def test_alpha_is_an_unknown_key():
    # evaluate takes its interval level from --alpha, not from a run config
    with pytest.raises(ConfigError, match="unknown run config keys: alpha"):
        parse({"alpha": 0.1})


def test_malformed_files_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_run_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON object"):
        load_run_config(arr)
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b'\xff\xfe{"model": {}}')
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_run_config(utf16)


@pytest.mark.parametrize("raw", [
    {"recipe": {"epochs": 2.5}},
    {"recipe": {"epochs": True}},
    {"recipe": {"window_days": 2.5}},
    {"recipe": {"batch_sizes": {"1": True}}},
    {"recipe": {"learning_rates": {"1": "0.1"}}},
    {"recipe": {"seeds": "abc"}},
    {"recipe": {"seeds": [0, 1.5]}},
    {"recipe": {"seeds": [-1]}},
    {"recipe": {"clip_norm": "10"}},
    {"recipe": []},
    {"model": []},
    {"model": {"hidden_size": "8"}},
    {"model": {"hidden_size": True}},
    {"model": {"out_size": 2.0}},
    {"model": {"dilations": 7}},
    {"model": {"dilations": [2, 4, "7"]}},
    {"model": {"cell_variant": ["adrnn"]}},
    {"loss": "x"},
    {"loss": {"gamma": "0.3"}},
    {"loss": {"gamma": True}},
    {"recipe": {"beta1": "0.9"}},
    {"recipe": {"epsilon": float("nan"), "clip_norm": float("inf")},
     "loss": {"gamma": float("nan")}},
    {"recipe": {"epsilon": float("nan")}},
    {"recipe": {"clip_norm": float("inf")}},
    {"recipe": {"learning_rates": {"1": float("-inf")}}},
    {"loss": {"gamma": float("nan")}},
    {"model": {"hidden_size": float("inf")}},
])
def test_ill_typed_config_rejected(raw):
    with pytest.raises(ConfigError):
        parse(raw)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text() | st.integers().map(str),
                                     inner, max_size=4)),
    max_leaves=8)


def section_values(section):
    """Arbitrary JSON, or an object of the section's keys holding it."""
    keys = sorted(to_json(RunConfig())[section])
    return json_values | st.dictionaries(st.sampled_from(keys), json_values,
                                         max_size=3)


@settings(max_examples=50, deadline=None)
@given(raw=st.fixed_dictionaries({}, optional={
    "model": section_values("model"), "loss": section_values("loss"),
    "recipe": section_values("recipe")}))
@example(raw={"recipe": {"batch_sizes": {"1": 10**30}}})  # past float range
@example(raw={"model": {"dilations": [2, 4, 10**20]}})  # past a ring's length
def test_arbitrary_json_gives_run_config_or_config_error(raw):
    try:
        rc = parse(raw)
    except ConfigError:
        return
    assert isinstance(rc, RunConfig)


valid_run_configs = st.builds(
    RunConfig,
    model=st.sampled_from(sorted(CELL_VARIANTS)).flatmap(
        lambda variant: st.builds(
            ModelConfig, cell_variant=st.just(variant),
            hidden_size=st.integers(1, 500), embed_size=st.integers(1, 50),
            # only the attentive cell has an upper stage to size
            upper_hidden_size=(st.none() | st.integers(1, 50)
                               if variant == "adrnn" else st.none()),
            dilations=st.tuples(*[st.integers(1, 30)] * 3))),
    loss=st.builds(
        LossConfig, central_quantile=st.floats(0.01, 0.99),
        lower_quantile=st.floats(0.01, 0.49),
        upper_quantile=st.floats(0.51, 0.99),
        interval_weight=st.floats(0.0, 10.0)),
    recipe=st.builds(
        TrainRecipe, epochs=st.integers(0, 20),
        learning_rates=st.fixed_dictionaries(
            {1: st.floats(1e-6, 1.0)},
            optional={e: st.floats(1e-6, 1.0) for e in range(2, 12)}),
        batch_sizes=st.fixed_dictionaries(
            {1: st.integers(1, 8)},
            optional={e: st.integers(1, 8) for e in range(2, 12)}),
        window_days=st.integers(1, 100),
        clip_norm=st.none() | st.floats(0.1, 100.0),
        beta1=st.floats(0.0, 0.99), beta2=st.floats(0.0, 0.999),
        epsilon=st.floats(1e-12, 1e-3),
        seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=5).map(
            tuple)))


@settings(max_examples=50, deadline=None)
@given(rc=valid_run_configs)
def test_valid_run_config_round_trips_through_json_text(rc):
    assert parse(json.loads(json.dumps(to_json(rc)))) == rc
