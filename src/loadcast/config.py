"""Run-level configuration and the one JSON codec for config sections.

A run config file is a JSON object with four optional sections, ``model``
(:class:`ModelConfig`), ``loss`` (:class:`LossConfig`), ``recipe``
(:class:`TrainRecipe`) and ``alpha``, the nominal interval miss rate used
by evaluation; the README shows a complete file.  Absent keys take the
dataclass defaults.  :func:`to_json` and :func:`from_json` derive each
section's keys and types from the dataclass fields, so model-file headers
and run-config files share one schema: unknown keys are rejected, integers
reject bools and fractions, numbers reject strings, bools, NaN and the
infinities (Python's json parses them), ``null`` is allowed only where a
field is ``X | None``, tuples are JSON lists, and schedule maps are
change-point maps keyed by the first applicable epoch written as a string.
The ``full`` preset carries the reference sizes and schedules; the ``desk``
preset shrinks the network and shortens training for laptop-scale runs.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import Field, dataclass, field, fields, is_dataclass

from .errors import ConfigError
from .loss import LossConfig
from .network import ModelConfig
from .training import TrainRecipe


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    recipe: TrainRecipe = field(default_factory=TrainRecipe)
    alpha: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")


#: JSON types each scalar annotation accepts; a bool is never a number
_SCALARS = {int: ((int,), "an integer"),
            float: ((int, float), "a finite number"),
            str: ((str,), "a string")}

_type_hints = functools.cache(typing.get_type_hints)


def _key(f: Field) -> str:
    return f.metadata.get("key", f.name)


def to_json(config):
    """A config dataclass as JSON-ready values: external key names, lists
    for tuples, string epoch keys for schedule maps."""
    if is_dataclass(config):
        return {_key(f): to_json(getattr(config, f.name))
                for f in fields(config)}
    if isinstance(config, (tuple, list)):
        return [to_json(v) for v in config]
    if isinstance(config, dict):
        return {str(k): to_json(v) for k, v in config.items()}
    return config


def from_json(cls, raw, section: str):
    """The config dataclass ``cls`` from the JSON object ``raw``, each
    value checked against its field's annotation; absent keys take the
    field defaults.  Unknown keys and ill-typed values raise ConfigError
    naming ``section``."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{section} section must be a JSON object")
    names = {_key(f): f.name for f in fields(cls)}
    unknown = sorted(set(raw) - set(names))
    if unknown:
        raise ConfigError(f"unknown {section} keys: {', '.join(unknown)}")
    hints = _type_hints(cls)
    return cls(**{names[key]: _decode(hints[names[key]], value, key, section)
                  for key, value in raw.items()})


def _decode(tp, value, key: str, section: str):
    """``value`` of ``key`` in ``section`` checked against annotation ``tp``:
    a scalar, ``X | None``, a homogeneous tuple (a JSON list), a schedule
    map ``dict[int, X]`` with string epoch keys, or a nested config."""
    if is_dataclass(tp):
        return from_json(tp, value, key)
    args = typing.get_args(tp)
    if type(None) in args:
        return None if value is None else _decode(args[0], value, key, section)
    origin = typing.get_origin(tp)
    if origin is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{key} in {section} must be a list")
        return tuple(_decode(args[0], v, f"each {key} entry", section)
                     for v in value)
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be a map of epoch to value")
        try:
            epochs = [int(k) for k in value]
        except (TypeError, ValueError):
            raise ConfigError(f"{key} keys must be integer epochs") from None
        return {epoch: _decode(args[1], v, f"each {key} value", section)
                for epoch, v in zip(epochs, value.values())}
    accepted, what = _SCALARS[tp]
    if type(value) not in accepted or (type(value) is float
                                       and not math.isfinite(value)):
        raise ConfigError(f"{key} in {section} must be {what}")
    return value


def load_run_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
    return from_json(RunConfig, raw, "run config")


def save_run_config(path, config: RunConfig):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def full_preset() -> RunConfig:
    """Reference-scale sizes and the staged 10-epoch schedule."""
    return RunConfig()


def desk_preset() -> RunConfig:
    """Laptop-scale: small network, three members, short schedule."""
    return RunConfig(
        model=ModelConfig(hidden_size=16, embed_size=8),
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
