"""Checkpoint format: one JSON header line, then every tensor's raw bytes.

The header holds the format version, seed, label manifest and config echo,
and `tensors`: the [name, shape] of every tensor in `iter_named_tensors`
order. The body is those tensors' values in the same order as little-endian
float64, a float32 tensor widened exactly, so save/load is bitwise lossless.
The format fixes the dtype and the schema says which tensors train, so the
file stores neither. `checkpoint_bytes` counts a file through the same header
encoder `save_checkpoint` writes through; `spartan params` reports its figures.

Loading decodes the config echo as a run config is decoded (`decode_config`),
builds its shape-only model (`empty_model`), checks the header's tensor list
against that model's schema walk and the body's length against the bytes the
schema needs, and only then reads each tensor into an array of its own. A
refused echo, a tensor list that disagrees, a short body or bytes after the
last tensor is a DataError; nothing is allocated before the header and the
file size agree with the schema. Non-finite values are refused both ways:
saving raises NumericalError before the file is opened, and loading treats a
NaN/Infinity token in the header or a non-finite value in the body as a DataError.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .backbone import LayerWeights, Model, decode_config, empty_model, iter_named_tensors, tensor_slots
from .data import DataError
from .training import NumericalError

FORMAT_VERSION = 2
BODY_DTYPE = np.dtype("<f8")


def _tensor_list(model: Model) -> list:
    """[name, shape] of every tensor, in schema order: the header's check."""
    return [[name, list(arr.shape)] for name, arr, _ in iter_named_tensors(model)]


def _header_line(model: Model, seed: int, label_manifest, extra_config) -> bytes:
    """The file's first line: the JSON header and its newline."""
    stack = model.plugin.layers[0]
    return json.dumps({
        "format_version": FORMAT_VERSION,
        "seed": seed,
        "label_manifest": label_manifest or {},
        "config": {
            "backbone": asdict(model.cfg),
            "plugin": {"kind": model.plugin.kind, **(asdict(stack[0].cfg) if stack else {})},
            "num_labels": model.params.num_labels,
            **(extra_config or {}),
        },
        "tensors": _tensor_list(model),
    }).encode("utf-8") + b"\n"


def checkpoint_bytes(model: Model) -> tuple[int, int]:
    """(header, body) bytes of save_checkpoint(path, model, seed=0)'s file; run
    metadata lengthens the header only. Shapes suffice: zero-stride models work."""
    scalars = sum(arr.size for _, arr, _ in iter_named_tensors(model))
    return len(_header_line(model, 0, None, None)), BODY_DTYPE.itemsize * scalars


def save_checkpoint(path, model: Model, seed: int, label_manifest: dict | None = None,
                    extra_config: dict | None = None) -> None:
    for name, arr, _ in iter_named_tensors(model):
        if not np.isfinite(arr).all():
            raise NumericalError(f"tensor {name} has non-finite values; {path} not written")
    with open(path, "wb") as fh:
        fh.write(_header_line(model, seed, label_manifest, extra_config))
        for _, arr, _ in iter_named_tensors(model):
            fh.write(np.ascontiguousarray(arr, dtype=BODY_DTYPE).data)


def _reject_constant(token: str):
    """json's hook for NaN, Infinity and -Infinity, which JSON does not allow."""
    raise ValueError(f"non-finite token {token}")


def load_checkpoint(path):
    """Rebuilds the model; returns (model, metadata dict with seed/config/labels).

    Any file that does not match the format or its config echo's schema
    raises DataError, before any tensor is allocated.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"), parse_constant=_reject_constant)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise DataError(f"checkpoint {path}: header is not valid JSON ({exc})") from exc
        if not isinstance(header, dict):
            raise DataError(f"checkpoint {path}: header is not a JSON object")
        if header.get("format_version") != FORMAT_VERSION:
            raise DataError(f"unsupported checkpoint format version {header.get('format_version')}")
        try:
            backbone_cfg, kind, plugin_cfg, num_labels = decode_config(header["config"])
            got = header["tensors"] if isinstance(header["tensors"], list) else []
            layers = backbone_cfg.layers  # the one count that multiplies the shape model's views
            if len(got) < len(LayerWeights.shapes(backbone_cfg)) * layers:
                raise ValueError(f"{layers} layers need more tensors than the header's {len(got)}")
            model = empty_model(backbone_cfg, num_labels, kind, plugin_cfg)
            meta = {key: header[key] for key in ("seed", "label_manifest", "config")}
        except KeyError as exc:
            raise DataError(f"checkpoint {path}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DataError(f"checkpoint {path}: bad config ({exc})") from exc
        expected = _tensor_list(model)
        if got != expected:
            at = next((f"{name} {shape}" for i, (name, shape) in enumerate(expected)
                       if got[i:i + 1] != [[name, shape]]), "its end")
            raise DataError(f"checkpoint {path}: header tensors disagree with the schema at {at}")
        body, end = path.stat().st_size - fh.tell(), 0
        for name, arr, _ in iter_named_tensors(model):
            end += BODY_DTYPE.itemsize * arr.size
            if end > body:
                raise DataError(f"checkpoint {path}: body ends inside tensor {name}")
        if end < body:
            raise DataError(f"checkpoint {path}: bytes after the last tensor")
        for name, owner, field, _ in tensor_slots(model):
            arr = np.empty(getattr(owner, field).shape, BODY_DTYPE)
            fh.readinto(arr)
            arr = arr.astype(np.float64, copy=False)
            if not np.isfinite(arr).all():
                raise DataError(f"tensor {name}: non-finite values")
            setattr(owner, field, arr)
    return model, meta
