"""JSON checkpoint format: config echo, label manifest, and every named tensor.

Scalars are serialized through Python's shortest-exact float repr, so a
save/load round trip reproduces float64 tensors bit for bit. Desk-scale models
keep the files small enough that human-inspectable text storage is worth it.
The tensors and their order come from the schema walk `iter_named_tensors`;
loading builds a blank model from the config echo and fills it, so a file
that disagrees with the schema is a DataError, never a half-loaded model.
Non-finite values are refused both ways: saving raises NumericalError before
the file is opened, and loading treats NaN/Infinity as a DataError.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .backbone import BackboneConfig, Model, empty_model, iter_named_tensors, plugin_kind
from .data import DataError
from .training import NumericalError

FORMAT_VERSION = 1


def plugin_config_dict(model: Model) -> dict:
    stack = model.plugin.layers[0]
    return {"kind": model.plugin.kind, **(asdict(stack[0].cfg) if stack else {})}


def save_checkpoint(path, model: Model, seed: int, label_manifest: dict | None = None,
                    extra_config: dict | None = None) -> None:
    tensors = {}
    for name, arr, trainable in iter_named_tensors(model):
        if not np.isfinite(arr).all():
            raise NumericalError(f"tensor {name} has non-finite values; {path} not written")
        tensors[name] = {
            "shape": list(arr.shape),
            "dtype": str(arr.dtype),
            "trainable": trainable,
            "values": [float(v) for v in arr.ravel()],
        }
    payload = {
        "format_version": FORMAT_VERSION,
        "seed": seed,
        "label_manifest": label_manifest or {},
        "config": {
            "backbone": asdict(model.cfg),
            "plugin": plugin_config_dict(model),
            "num_labels": model.params.num_labels,
            **(extra_config or {}),
        },
        "tensors": tensors,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _reject_constant(token: str):
    """json's hook for NaN, Infinity and -Infinity, which JSON does not allow."""
    raise ValueError(f"non-finite token {token}")


def _blank_model(config: dict) -> Model:
    """Zero-filled model of a checkpoint's config echo; a malformed echo raises
    KeyError, TypeError or ValueError (ParameterError is one)."""
    plugin = dict(config["plugin"])
    kind = plugin.pop("kind")
    config_type = plugin_kind(kind).config
    plugin_cfg = config_type(**plugin) if config_type else None
    return empty_model(BackboneConfig(**config["backbone"]), config["num_labels"], kind, plugin_cfg)


def load_checkpoint(path):
    """Rebuilds the model; returns (model, metadata dict with seed/config/labels).

    Any file that does not match the format, or whose tensors disagree with
    the schema in name, shape, dtype or trainable flag, raises DataError.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise DataError(f"checkpoint {path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise DataError(f"checkpoint {path}: not a JSON object")
    if payload.get("format_version") != FORMAT_VERSION:
        raise DataError(f"unsupported checkpoint format version {payload.get('format_version')}")
    try:
        model = _blank_model(payload["config"])
        stored = payload["tensors"]
        meta = {key: payload[key] for key in ("seed", "label_manifest", "config")}
    except KeyError as exc:
        raise DataError(f"checkpoint {path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"checkpoint {path}: bad config ({exc})") from exc
    if not isinstance(stored, dict):
        raise DataError(f"checkpoint {path}: tensors is not a JSON object")

    for name, arr, trainable in iter_named_tensors(model):
        if name not in stored:
            raise DataError(f"checkpoint missing tensor {name}")
        try:
            entry = stored[name]
            declared = (entry["trainable"], entry["dtype"])
            values = np.asarray(entry["values"], dtype=arr.dtype).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"checkpoint {path}: tensor {name} is malformed ({exc})") from exc
        if declared != (trainable, str(arr.dtype)):
            raise DataError(f"tensor {name}: stored trainable/dtype {declared} "
                            f"!= expected {(trainable, str(arr.dtype))}")
        if values.shape != arr.shape:
            raise DataError(f"tensor {name}: shape {values.shape} != expected {arr.shape}")
        if not np.isfinite(values).all():
            raise DataError(f"tensor {name}: non-finite values")
        arr[...] = values
    return model, meta
