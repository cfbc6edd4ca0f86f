"""Run config schema: presets, strict keys, file round trips."""

import pytest

from loadcast.config import (
    desk_preset,
    full_preset,
    load_run_config,
    preset,
    run_config_from_dict,
    run_config_to_dict,
    save_run_config,
)
from loadcast.errors import ConfigError


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
    assert rc.alpha == 0.1


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
    assert run_config_from_dict(run_config_to_dict(rc)) == rc


def test_empty_dict_gives_full_defaults():
    assert run_config_from_dict({}) == full_preset()


def test_file_round_trip(tmp_path):
    rc = desk_preset()
    path = tmp_path / "run.json"
    save_run_config(path, rc)
    assert load_run_config(path) == rc


def test_loss_section_uses_external_key_names():
    rc = run_config_from_dict({"loss": {"q_star": 0.485, "gamma": 0.2}})
    assert rc.loss.central_quantile == 0.485
    assert rc.loss.interval_weight == 0.2
    assert rc.loss.lower_quantile == 0.05  # untouched default


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown run config keys: extra"):
        run_config_from_dict({"extra": 1})
    with pytest.raises(ConfigError, match="unknown model keys"):
        run_config_from_dict({"model": {"hidden": 8}})
    with pytest.raises(ConfigError, match="unknown loss keys"):
        run_config_from_dict({"loss": {"quantile": 0.5}})
    with pytest.raises(ConfigError, match="unknown recipe keys"):
        run_config_from_dict({"recipe": {"lr": 0.1}})


def test_schedule_keys_parse_from_strings():
    rc = run_config_from_dict(
        {"recipe": {"learning_rates": {"1": 0.01, "3": 0.001}}})
    assert rc.recipe.learning_rates == {1: 0.01, 3: 0.001}
    with pytest.raises(ConfigError, match="integer epochs"):
        run_config_from_dict({"recipe": {"learning_rates": {"one": 0.01}}})
    with pytest.raises(ConfigError, match="map"):
        run_config_from_dict({"recipe": {"learning_rates": [0.01]}})


def test_alpha_validated():
    with pytest.raises(ConfigError, match="alpha"):
        run_config_from_dict({"alpha": 1.5})


def test_malformed_files_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_run_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="JSON object"):
        load_run_config(arr)


@pytest.mark.parametrize("raw", [
    {"recipe": {"epochs": 2.5}},
    {"recipe": {"epochs": True}},
    {"recipe": {"window_days": 2.5}},
    {"recipe": {"batch_sizes": {"1": True}}},
    {"recipe": {"learning_rates": {"1": "0.1"}}},
    {"recipe": {"seeds": "abc"}},
    {"recipe": {"seeds": [0, 1.5]}},
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
    {"alpha": "0.1"},
    {"alpha": True},
])
def test_ill_typed_config_rejected(raw):
    with pytest.raises(ConfigError):
        run_config_from_dict(raw)
