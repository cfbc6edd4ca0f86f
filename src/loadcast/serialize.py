"""Versioned binary model files with byte-reproducible layout.

A model file is three parts: a magic line, one line of canonical JSON
(sorted keys, no extra whitespace) describing the format version, member
configs, array names and shapes, and the recipe and loss settings used,
then the raw float64 C-order bytes of every member's arrays in header
order.  Identical ensembles serialize to identical bytes, which is what
makes retrain-determinism checkable at the file level.  The series store
of :mod:`loadcast.dataset` shares this container through
:func:`write_file` and :func:`read_file`.
"""

from __future__ import annotations

import json

import numpy as np

from .config import from_json, to_json
from .errors import ConfigError, ModelFileError
from .files import replacing
from .loss import LossConfig
from .network import ModelConfig, model_allocate, model_param_count
from .training import EnsembleModel, TrainRecipe

MAGIC = b"loadcast-model\n"
FORMAT_VERSION = 1


def write_file(path, magic: bytes, header: dict, arrays):
    """Write ``magic``, ``header`` as one line of canonical JSON, then the
    raw bytes of each array in turn.

    The file is replaced atomically (:func:`~loadcast.files.replacing`),
    so readers see the old file or the new one.
    """
    blob = json.dumps(header, sort_keys=True, separators=(",", ":"))
    with replacing(path) as (tmp,), open(tmp, "wb") as fh:
        fh.write(magic + blob.encode("utf-8") + b"\n")
        for arr in arrays:
            fh.write(arr.tobytes())


def read_file(path, magic: bytes, version: int, what: str):
    """(header, payload) of a file that :func:`write_file` wrote with
    ``magic`` and a ``format_version`` of ``version`` in its header;
    ``what`` names the kind of file in the ModelFileError raised otherwise.
    """
    with open(path, "rb") as fh:
        if fh.readline() != magic:
            raise ModelFileError(f"not a {what} file (bad magic)")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelFileError(f"unreadable {what} header: {exc}") from None
        payload = fh.read()
    if not isinstance(header, dict):
        raise ModelFileError(f"{what} header is not a JSON object")
    if header.get("format_version") != version:
        raise ModelFileError(
            f"unsupported {what} format version {header.get('format_version')}")
    return header, payload


def _member_header(model) -> dict:
    return {
        "config": to_json(model.config),
        "arrays": [[name, list(arr.shape)]
                   for name, arr in model.named_arrays()],
    }


def save_ensemble(path, ensemble: EnsembleModel, recipe=None,
                  loss_config=None):
    header = {
        "format_version": FORMAT_VERSION,
        "cell_variant": ensemble.config.cell_variant,
        "members": [_member_header(m) for m in ensemble.members],
        "recipe": to_json(recipe),
        "loss": to_json(loss_config),
    }
    write_file(path, MAGIC, header,
               (np.asarray(arr, dtype=np.float64)
                for member in ensemble.members
                for _, arr in member.named_arrays()))


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
    header, payload = read_file(path, MAGIC, FORMAT_VERSION, "model")
    entries = header.get("members")
    if not isinstance(entries, list) or not entries or not all(
            map(_is_member_entry, entries)):
        raise ModelFileError(
            "model header needs a non-empty list of members, each with a "
            "config object and a list of [name, shape] arrays")
    try:
        configs = [from_json(ModelConfig, entry["config"], "model")
                   for entry in entries]
        metadata = {"cell_variant": header.get("cell_variant")}
        for key, cls in (("recipe", TrainRecipe), ("loss", LossConfig)):
            raw = header.get(key)
            metadata[key] = None if raw is None else from_json(cls, raw, key)
    except ConfigError as exc:
        raise ModelFileError(f"bad settings in model header: {exc}") from None
    if metadata["cell_variant"] not in (None, configs[0].cell_variant):
        raise ModelFileError("model header cell_variant must be null or its "
                             "members' cell variant")
    # sizes first: a header may declare a model too large to allocate
    expected = 8 * sum(map(model_param_count, configs))
    if len(payload) < expected:
        raise ModelFileError("model file truncated")
    if len(payload) > expected:
        raise ModelFileError("model file has trailing bytes")
    if not np.isfinite(np.frombuffer(payload, np.float64)).all():
        raise ModelFileError("model file holds non-finite weights")
    members = []
    offset = 0
    for entry, config in zip(entries, configs):
        model = model_allocate(config)
        named = model.named_arrays()
        if entry["arrays"] != [[name, list(a.shape)] for name, a in named]:
            raise ModelFileError("model file arrays do not match its config")
        for _, arr in named:
            arr[...] = np.frombuffer(payload, np.float64, arr.size,
                                     offset).reshape(arr.shape)
            offset += arr.size * 8
        members.append(model)
    try:
        return EnsembleModel(tuple(members)), metadata
    except ConfigError as exc:
        raise ModelFileError(f"bad members in model header: {exc}") from None
