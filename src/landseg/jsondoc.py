"""One JSON codec for the dataclass documents the pipeline saves.

Fields are written in declaration order, arrays and tuples as lists and
nested documents as objects. Reading types a field through the decoder in
its `doc_field` metadata. A document must hold every field, unless its
class sets `partial`: then a field left out keeps its default.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, field, fields
from pathlib import Path

import numpy as np

_DECODE = "jsondoc.decode"


def doc_field(decode, **kwargs):
    """A dataclass field whose JSON value is read through decode(value);
    a null value stays None."""
    return field(metadata={_DECODE: decode}, **kwargs)


def as_array(dtype):
    """Decoder to a numpy array of dtype."""
    return lambda value: np.asarray(value, dtype=dtype)


def list_of(decode):
    """Decoder of a JSON list, item by item."""
    return lambda value: [decode(v) for v in value]


def _encode(value):
    if isinstance(value, JsonDoc):
        return value.to_json()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def check_object(doc, name, known):
    """Raise ValueError unless doc is a JSON object with keys among known."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name} document must be a JSON object, "
                         f"got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValueError(f"{name} document has unknown key {unknown[0]!r} "
                         f"(accepted: {', '.join(sorted(known))})")


class JsonDoc:
    """to_json, from_json, save and load of a dataclass, over its fields."""

    partial = False  # whether a document may leave out defaulted fields

    def to_json(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json(cls, doc):
        name = cls.__name__
        known = fields(cls)
        check_object(doc, name, [f.name for f in known])
        kwargs = {}
        for f in known:
            if f.name not in doc:
                if not cls.partial or (f.default is MISSING
                                       and f.default_factory is MISSING):
                    raise ValueError(f"{name} document has no {f.name!r}")
                continue
            value = doc[f.name]
            decode = f.metadata.get(_DECODE)
            if decode is not None and value is not None:
                try:
                    value = decode(value)
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{name} {f.name!r}: {exc}") from None
            kwargs[f.name] = value
        return cls(**kwargs)

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path):
        return cls.from_json(json.loads(Path(path).read_text()))
