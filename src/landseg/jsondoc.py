"""One JSON codec for the dataclass documents the pipeline saves, and the
rules of their fields and of the pipeline's keyword settings.

Fields are written in declaration order, arrays and tuples as lists and
nested documents as objects. Reading types a field through the decoder in
its `doc_field` metadata. A field may be null only if its annotation
allows None or its default is None. A field annotated int, float, bool or
str must hold a JSON value of that type (a bool is not a number, and a
float field accepts an int). A document must hold every
field, unless its class sets `partial`: then a field left out keeps its
default. `read_object` holds a settings object, whose keys are typed by
annotations, to the same rules.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import MISSING, field, fields
from pathlib import Path

import numpy as np

_DECODE = "jsondoc.decode"
_CHECK = "jsondoc.check"
# JSON value types of the scalar annotations, and their names in messages
_SCALARS = {"int": (int, "an integer"), "float": ((int, float), "a number"),
            "bool": (bool, "true or false"), "str": (str, "a string")}


def doc_field(decode=None, check=None, **kwargs):
    """A dataclass field whose JSON value is read through decode(value),
    a null value staying None, and whose value passes the rule check(value)
    whenever an object is built (see Checked)."""
    return field(metadata={_DECODE: decode, _CHECK: check}, **kwargs)


def rule(test, what):
    """A rule that raises ValueError("must be <what>, got <value>") unless
    test(value) holds."""
    def check(value):
        if not test(value):
            raise ValueError(f"must be {what}, got {reprlib.repr(value)}")
    return check


def at_least(n):
    """Rule: an integer, not a bool, of at least n."""
    return rule(lambda v: isinstance(v, (int, np.integer))
                and not isinstance(v, bool) and v >= n,
                f"an integer of at least {n}")


def one_of(*values):
    """Rule: one of values."""
    return rule(values.__contains__, "one of " + ", ".join(map(repr, values)))


# a number, or an array of them, each finite and above 0
positive = rule(lambda v: not isinstance(v, bool) and np.all(
    np.isfinite(v) & (np.asarray(v) > 0)), "finite and positive")


# a stack's band names: a list of distinct strings
band_list = rule(lambda v: isinstance(v, list) and all(
    isinstance(b, str) for b in v) and len(set(v)) == len(v),
    "a list of distinct band names")


def finite(value):
    """Rule: a number, or an array of them, with no NaN or infinity."""
    if not np.isfinite(value).all():
        raise ValueError("holds a value that is not finite")


class ParamError(ValueError):
    """A keyword setting that breaks its rule; key names it."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


# The rules of the trainers', the experiments' and train-net's keyword
# settings; a setting in NULLABLE may also be None.
SETTINGS = {
    **dict.fromkeys(("n_trees", "min_leaf", "max_depth", "mtry", "max_iter",
                     "n_scenes", "svm_per_class", "width"), at_least(1)),
    **dict.fromkeys(("C", "gamma", "tol"), positive),
}
NULLABLE = ("max_depth", "mtry")  # mtry None: ceil(sqrt(features))


def check_params(**params):
    """Raise ParamError naming the first setting that breaks its rule in
    SETTINGS."""
    for key, value in params.items():
        if value is not None or key not in NULLABLE:
            try:
                SETTINGS[key](value)
            except ValueError as exc:
                raise ParamError(key, f"{key!r} {exc}") from None


def as_array(dtype):
    """Decoder to a numpy array of dtype."""
    return lambda value: np.asarray(value, dtype=dtype)


def number(value):
    """Decoder of a JSON number; a bool, a str or null raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {reprlib.repr(value)}")
    return value


def as_numbers(value):
    """Decoder of a JSON number, or of lists of them nested to any depth,
    to a float64 array."""
    items = [value]
    while items:
        item = items.pop()
        if isinstance(item, list):
            items.extend(item)
        else:
            number(item)
    return np.asarray(value, dtype=np.float64)


def list_of(decode=None, into=list):
    """Decoder of a JSON list into `into`, item by item through decode."""
    def read(value):
        if not isinstance(value, list):
            raise ValueError(f"expected a list, got {type(value).__name__}")
        return into(value if decode is None else map(decode, value))
    return read


def _encode(value):
    if isinstance(value, JsonDoc):
        return value.to_json()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value


def read_json(path, decode=None):
    """The JSON value in the file at path, through decode if given; a
    ValueError of either, a syntax error included, names the file."""
    try:
        doc = json.loads(Path(path).read_text())
        return doc if decode is None else decode(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def check_object(doc, name, known):
    """Raise ValueError unless doc is a JSON object with keys among known."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name} document must be a JSON object, "
                         f"got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise ValueError(f"{name} document has unknown key {unknown[0]!r} "
                         f"(accepted: {', '.join(sorted(known))})")


def check_keys(doc, name, rules):
    """Raise ValueError naming the first key of rules whose value in doc,
    None where doc lacks the key, breaks its rule."""
    for key, check in rules.items():
        try:
            check(doc.get(key))
        except ValueError as exc:
            raise ValueError(f"{name} {key!r} {exc}") from None


def read_object(doc, name, types) -> dict:
    """The keys that doc holds, each value held to the field rules above by
    types[key], an (annotation, default) pair; raise ValueError unless doc
    is a JSON object with keys among types."""
    check_object(doc, name, types)
    for key, value in doc.items():
        annotation, default = types[key]
        base, *rest = str(annotation).split(" | ")  # a postponed annotation
        if value is None:
            if rest == ["None"] or default is None:
                continue
            raise ValueError(f"{name} {key!r} may not be null")
        if base in _SCALARS:
            kinds, what = _SCALARS[base]
            if isinstance(value, bool) != (base == "bool") or not isinstance(
                    value, kinds):
                raise ValueError(f"{name} {key!r} must be {what}, "
                                 f"got {reprlib.repr(value)}")
    return dict(doc)


class Checked:
    """A dataclass whose fields' rules run whenever an object is built,
    except on a None that is the field's default. A subclass's own
    __post_init__ calls this one first."""

    def __post_init__(self):
        for f in fields(self):
            check, value = f.metadata.get(_CHECK), getattr(self, f.name)
            if check is None or (value is None and f.default is None):
                continue
            try:
                check(value)
            except ValueError as exc:
                raise ValueError(f"{f.name!r} {exc}") from None


class JsonDoc(Checked):
    """to_json, from_json, save and load of a dataclass, over its fields."""

    partial = False  # whether a document may leave out defaulted fields

    def to_json(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json(cls, doc):
        name = cls.__name__
        known = fields(cls)
        doc = read_object(doc, name, {f.name: (f.type, f.default)
                                      for f in known})
        kwargs = {}
        for f in known:
            if f.name not in doc:
                if not cls.partial or (f.default is MISSING
                                       and f.default_factory is MISSING):
                    kind = "list" if f.type in ("list", "tuple") else "value"
                    raise ValueError(f"{name} document has no {f.name!r} "
                                     f"field (a {f.name!r} {kind} is required)")
                continue
            value = doc[f.name]
            decode = f.metadata.get(_DECODE)
            if decode is not None and value is not None:
                try:
                    value = decode(value)
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{name} {f.name!r}: {exc}") from None
            kwargs[f.name] = value
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from None

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def load(cls, path):
        """from_json of the file at path; an error names the file."""
        return read_json(path, cls.from_json)
