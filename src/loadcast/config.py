"""Run-level configuration with a strict documented key schema.

A run config file is JSON with four sections, all optional, unknown keys
rejected everywhere:

    {
      "model":  {"cell_variant": "adrnn", "hidden_size": 125,
                 "out_size": null, "upper_hidden_size": null,
                 "embed_size": 16, "dilations": [2, 4, 7]},
      "loss":   {"q_star": 0.5, "q_lower": 0.05, "q_upper": 0.95,
                 "gamma": 0.3},
      "recipe": {"epochs": 10,
                 "learning_rates": {"1": 3e-3, "6": 1e-3, "7": 3e-4,
                                    "8": 1e-4},
                 "batch_sizes": {"1": 2, "4": 5},
                 "window_days": 56, "clip_norm": 10.0,
                 "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-8,
                 "seeds": [0, 1, 2, 3, 4]},
      "alpha": 0.1
    }

Schedule maps are change-point maps keyed by first applicable epoch.
``alpha`` is the nominal interval miss rate used by evaluation.  The
``full`` preset carries the reference sizes and schedules; the ``desk``
preset shrinks the network and shortens training for laptop-scale runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ConfigError
from .loss import LossConfig
from .network import ModelConfig
from .training import TrainRecipe

#: external file keys for the loss section mapped to LossConfig fields
_LOSS_KEYS = {
    "q_star": "central_quantile",
    "q_lower": "lower_quantile",
    "q_upper": "upper_quantile",
    "gamma": "interval_weight",
}

_MODEL_KEYS = ("cell_variant", "hidden_size", "out_size",
               "upper_hidden_size", "embed_size", "dilations")
_RECIPE_KEYS = ("epochs", "learning_rates", "batch_sizes", "window_days",
                "clip_norm", "beta1", "beta2", "epsilon", "seeds")
_TOP_KEYS = ("model", "loss", "recipe", "alpha")


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig
    loss: LossConfig
    recipe: TrainRecipe
    alpha: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_INT = (_is_int, "an integer")
_INT_OR_NULL = (lambda v: v is None or _is_int(v), "an integer or null")
_INT_LIST = (lambda v: isinstance(v, list) and all(map(_is_int, v)),
             "a list of integers")
_NUMBER = (_is_number, "a number")
_NUMBER_OR_NULL = (lambda v: v is None or _is_number(v), "a number or null")


def _checked_section(raw, section, allowed, kinds):
    """A section's key/value map: a JSON object with known keys, each
    present value of the JSON type its key requires."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} section must be a JSON object")
    _reject_unknown(raw, allowed, section)
    for key, (ok, kind) in kinds.items():
        if key in raw and not ok(raw[key]):
            raise ConfigError(f"{key} in {section} must be {kind}")
    return dict(raw)


def _reject_unknown(mapping, allowed, section):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {section} keys: {', '.join(unknown)}")


def model_config_to_dict(config: ModelConfig) -> dict:
    return {
        "cell_variant": config.cell_variant,
        "hidden_size": config.hidden_size,
        "out_size": config.out_size,
        "upper_hidden_size": config.upper_hidden_size,
        "embed_size": config.embed_size,
        "dilations": list(config.dilations),
    }


def model_config_from_dict(d: dict) -> ModelConfig:
    kwargs = _checked_section(d, "model", _MODEL_KEYS, {
        "cell_variant": (lambda v: isinstance(v, str), "a string"),
        "hidden_size": _INT, "out_size": _INT_OR_NULL,
        "upper_hidden_size": _INT_OR_NULL, "embed_size": _INT,
        "dilations": _INT_LIST})
    if "dilations" in kwargs:
        kwargs["dilations"] = tuple(kwargs["dilations"])
    return ModelConfig(**kwargs)


def loss_config_to_dict(config: LossConfig) -> dict:
    return {key: getattr(config, attr) for key, attr in _LOSS_KEYS.items()}


def loss_config_from_dict(d: dict) -> LossConfig:
    d = _checked_section(d, "loss", _LOSS_KEYS,
                         dict.fromkeys(_LOSS_KEYS, _NUMBER))
    return LossConfig(**{_LOSS_KEYS[k]: v for k, v in d.items()})


def _schedule_to_json(schedule: dict) -> dict:
    return {str(epoch): value for epoch, value in schedule.items()}


def _schedule_from_json(raw, name, kind) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a map of epoch to value")
    ok, what = kind
    out = {}
    for key, value in raw.items():
        try:
            epoch = int(key)
        except (TypeError, ValueError):
            raise ConfigError(f"{name} keys must be integer epochs") from None
        if not ok(value):
            raise ConfigError(f"each {name} value must be {what}")
        out[epoch] = value
    return out


def recipe_to_dict(recipe: TrainRecipe) -> dict:
    return {
        "epochs": recipe.epochs,
        "learning_rates": _schedule_to_json(recipe.learning_rates),
        "batch_sizes": _schedule_to_json(recipe.batch_sizes),
        "window_days": recipe.window_days,
        "clip_norm": recipe.clip_norm,
        "beta1": recipe.beta1,
        "beta2": recipe.beta2,
        "epsilon": recipe.epsilon,
        "seeds": list(recipe.seeds),
    }


def recipe_from_dict(d: dict) -> TrainRecipe:
    kwargs = _checked_section(d, "recipe", _RECIPE_KEYS, {
        "epochs": _INT, "window_days": _INT, "clip_norm": _NUMBER_OR_NULL,
        "beta1": _NUMBER, "beta2": _NUMBER, "epsilon": _NUMBER,
        "seeds": _INT_LIST})
    if "learning_rates" in kwargs:
        kwargs["learning_rates"] = _schedule_from_json(
            kwargs["learning_rates"], "learning_rates", _NUMBER)
    if "batch_sizes" in kwargs:
        kwargs["batch_sizes"] = _schedule_from_json(
            kwargs["batch_sizes"], "batch_sizes", _INT)
    if "seeds" in kwargs:
        kwargs["seeds"] = tuple(kwargs["seeds"])
    return TrainRecipe(**kwargs)


def run_config_to_dict(config: RunConfig) -> dict:
    return {
        "model": model_config_to_dict(config.model),
        "loss": loss_config_to_dict(config.loss),
        "recipe": recipe_to_dict(config.recipe),
        "alpha": config.alpha,
    }


def run_config_from_dict(d: dict) -> RunConfig:
    d = _checked_section(d, "run config", _TOP_KEYS, {"alpha": _NUMBER})
    return RunConfig(
        model=model_config_from_dict(d.get("model", {})),
        loss=loss_config_from_dict(d.get("loss", {})),
        recipe=recipe_from_dict(d.get("recipe", {})),
        alpha=d.get("alpha", 0.1),
    )


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    return run_config_from_dict(raw)


def save_run_config(path, config: RunConfig):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(run_config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def full_preset() -> RunConfig:
    """Reference-scale sizes and the staged 10-epoch schedule."""
    return RunConfig(model=ModelConfig(), loss=LossConfig(),
                     recipe=TrainRecipe())


def desk_preset() -> RunConfig:
    """Laptop-scale: small network, three members, short schedule."""
    return RunConfig(
        model=ModelConfig(hidden_size=16, embed_size=8),
        loss=LossConfig(),
        recipe=TrainRecipe(
            epochs=8,
            learning_rates={1: 3e-3, 5: 1e-3, 7: 3e-4},
            batch_sizes={1: 2, 4: 5},
            seeds=(0, 1, 2),
        ),
    )


PRESETS = {"full": full_preset, "desk": desk_preset}


def preset(name: str) -> RunConfig:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
