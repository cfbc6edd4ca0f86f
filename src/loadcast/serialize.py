"""Versioned binary model files with byte-reproducible layout.

A model file is three parts: a magic line, one line of canonical JSON
(sorted keys, no extra whitespace) describing the format version, member
configs, array names and shapes, and the recipe and loss settings used,
then the raw float64 C-order bytes of every member's arrays in header
order.  Identical ensembles serialize to identical bytes, which is what
makes retrain-determinism checkable at the file level.
"""

from __future__ import annotations

import json

import numpy as np

from .config import (
    loss_config_from_dict,
    loss_config_to_dict,
    model_config_from_dict,
    model_config_to_dict,
    recipe_from_dict,
    recipe_to_dict,
)
from .errors import ConfigError, ModelFileError
from .network import model_build
from .training import EnsembleModel

MAGIC = b"loadcast-model\n"
FORMAT_VERSION = 1


def _member_header(model) -> dict:
    return {
        "config": model_config_to_dict(model.config),
        "arrays": [[name, list(arr.shape)]
                   for name, arr in model.named_arrays()],
    }


def save_ensemble(path, ensemble: EnsembleModel, recipe=None,
                  loss_config=None):
    header = {
        "format_version": FORMAT_VERSION,
        "cell_variant": ensemble.config.cell_variant,
        "members": [_member_header(m) for m in ensemble.members],
        "recipe": None if recipe is None else recipe_to_dict(recipe),
        "loss": None if loss_config is None else loss_config_to_dict(loss_config),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(blob.encode("utf-8"))
        fh.write(b"\n")
        for member in ensemble.members:
            for _, arr in member.named_arrays():
                fh.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def _is_member_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("config"), dict)
            and isinstance(entry.get("arrays"), list)
            and all(isinstance(a, list) and len(a) == 2
                    for a in entry["arrays"]))


def load_ensemble(path):
    """Rebuild the ensemble; returns (EnsembleModel, metadata dict).

    Metadata holds the decoded 'recipe' and 'loss' sections (either may
    be None) plus the 'cell_variant' tag.
    """
    with open(path, "rb") as fh:
        magic = fh.readline()
        if magic != MAGIC:
            raise ModelFileError("not a model file (bad magic)")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelFileError(f"unreadable model header: {exc}") from None
        payload = fh.read()

    if not isinstance(header, dict):
        raise ModelFileError("model header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise ModelFileError(
            f"unsupported model format version {header.get('format_version')}")
    entries = header.get("members")
    if not isinstance(entries, list) or not entries or not all(
            map(_is_member_entry, entries)):
        raise ModelFileError(
            "model header needs a non-empty list of members, each with a "
            "config object and a list of [name, shape] arrays")
    if not isinstance(header.get("cell_variant"), (str, type(None))):
        raise ModelFileError("model header cell_variant must be a string")
    try:
        configs = [model_config_from_dict(entry["config"]) for entry in entries]
        metadata = {
            "cell_variant": header.get("cell_variant"),
            "recipe": (None if header.get("recipe") is None
                       else recipe_from_dict(header["recipe"])),
            "loss": (None if header.get("loss") is None
                     else loss_config_from_dict(header["loss"])),
        }
    except ConfigError as exc:
        raise ModelFileError(f"bad settings in model header: {exc}") from None
    members = []
    offset = 0
    for entry, config in zip(entries, configs):
        model = model_build(config, seed=0)
        named = model.named_arrays()
        stored = entry["arrays"]
        if [name for name, _ in named] != [name for name, _ in stored]:
            raise ModelFileError("model file arrays do not match its config")
        for (name, arr), (_, shape) in zip(named, stored):
            if list(arr.shape) != shape:
                raise ModelFileError(
                    f"shape mismatch for {name}: file has {shape}, "
                    f"config implies {list(arr.shape)}")
            nbytes = arr.size * 8
            chunk = payload[offset:offset + nbytes]
            if len(chunk) < nbytes:
                raise ModelFileError("model file truncated")
            arr[...] = np.frombuffer(chunk, dtype=np.float64).reshape(arr.shape)
            offset += nbytes
        members.append(model)
    if offset != len(payload):
        raise ModelFileError("model file has trailing bytes")
    return EnsembleModel(tuple(members)), metadata
