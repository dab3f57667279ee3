"""Versioned JSON files for fitted models.

A model file is ``{"format": "treatpolicy-model", "version": 1, "model": ...}``.
A model is written as its dataclass fields, each under the field's name, plus
``type``, the name its class is registered under.  Registered models nested in
a field nest with their own ``type``; other dataclasses (the trees of a boosted
model) nest as their fields alone; arrays and tuples become lists.

Decoding rebuilds the registered class from its fields, so each class turns
the JSON values back into its own types (arrays, tuples) in ``__post_init__``;
a boosted model rebuilds its trees there with ``from_fields``.  A key that is
not a field is ignored, so files written with a field since removed still
load; a missing field is refused.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass

from ..errors import SchemaError

__all__ = ["register_codec", "encode_model", "decode_model", "save_model", "load_model"]

FORMAT_NAME = "treatpolicy-model"
FORMAT_VERSION = 1

_NAMES: dict[type, str] = {}
_CLASSES: dict[str, type] = {}
_PLAIN = {int, float, str, bool, type(None)}


def register_codec(type_name: str, cls) -> None:
    _NAMES[cls] = type_name
    _CLASSES[type_name] = cls


def _fields(obj) -> dict:
    return {f.name: _encode(getattr(obj, f.name)) for f in fields(obj)}


def _encode(value):
    if type(value) in _PLAIN:
        return value
    if is_dataclass(value):
        return encode_model(value) if type(value) in _NAMES else _fields(value)
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        # a list of plain numbers (a tree's nodes) is copied without a walk
        return list(value) if _PLAIN.issuperset(map(type, value)) else [_encode(v) for v in value]
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return value.tolist()
    raise TypeError(f"no codec registered for {type(value).__name__}")


def encode_model(obj) -> dict:
    type_name = _NAMES.get(type(obj))
    if type_name is None:
        raise TypeError(f"no codec registered for {type(obj).__name__}")
    payload = _fields(obj)
    payload["type"] = type_name
    return payload


def _decode(value):
    if isinstance(value, dict):
        if "type" in value:
            return decode_model(value)
        return {k: _decode(v) for k, v in value.items()}
    return value


def from_fields(cls, payload: dict, what: str | None = None):
    """Build the dataclass ``cls`` from its fields in ``payload``, ignoring other keys."""
    missing = [f.name for f in fields(cls) if f.name not in payload]
    if missing:
        raise SchemaError(f"{what or cls.__name__} lacks field(s) {missing}")
    return cls(**{f.name: _decode(payload[f.name]) for f in fields(cls)})


def decode_model(payload: dict):
    type_name = payload.get("type")
    cls = _CLASSES.get(type_name)
    if cls is None:
        raise SchemaError(f"unknown model type {type_name!r}")
    return from_fields(cls, payload, f"{type_name!r} model")


def save_model(obj, path) -> None:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "model": encode_model(obj),
    }
    with open(path, "w") as fh:
        # dumps runs the C encoder; dump streams through the pure-Python one
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


def load_model(path):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise SchemaError(f"{path}: not a {FORMAT_NAME} document")
    if doc.get("version") != FORMAT_VERSION:
        raise SchemaError(f"{path}: unsupported version {doc.get('version')!r}")
    model = doc.get("model")
    if not isinstance(model, dict):
        raise SchemaError(f"{path}: no model in the document")
    try:
        return decode_model(model)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
