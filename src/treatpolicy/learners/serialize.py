"""Versioned JSON (de)serialization for fitted models.

Modules register encoders/decoders for their model classes; nested models
(calibration wrappers, per-arm components) encode recursively.
"""

from __future__ import annotations

import json

from ..errors import SchemaError

__all__ = ["register_codec", "encode_model", "decode_model", "save_model", "load_model"]

FORMAT_NAME = "treatpolicy-model"
FORMAT_VERSION = 1

_ENCODERS: dict[type, tuple[str, callable]] = {}
_DECODERS: dict[str, callable] = {}


def register_codec(type_name: str, cls, encoder, decoder) -> None:
    _ENCODERS[cls] = (type_name, encoder)
    _DECODERS[type_name] = decoder


def encode_model(obj) -> dict:
    entry = _ENCODERS.get(type(obj))
    if entry is None:
        raise TypeError(f"no codec registered for {type(obj).__name__}")
    type_name, encoder = entry
    payload = encoder(obj)
    payload["type"] = type_name
    return payload


def decode_model(payload: dict):
    type_name = payload.get("type")
    decoder = _DECODERS.get(type_name)
    if decoder is None:
        raise SchemaError(f"unknown model type {type_name!r}")
    return decoder(payload)


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
        doc = json.load(fh)
    if doc.get("format") != FORMAT_NAME:
        raise SchemaError(f"{path}: not a {FORMAT_NAME} document")
    if doc.get("version") != FORMAT_VERSION:
        raise SchemaError(f"{path}: unsupported version {doc.get('version')!r}")
    return decode_model(doc["model"])
