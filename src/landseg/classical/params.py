"""The type and range rules of the pixel trainers' settings, checked by
every trainer before it reads the table."""

from __future__ import annotations

import math

import numpy as np

POSITIVE = ("C", "gamma", "tol")
NULLABLE = ("max_depth", "mtry")  # mtry None: ceil(sqrt(features))


class ParamError(ValueError):
    """A setting of the wrong type or out of range; key names it."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


def _is_number(value, kinds) -> bool:
    return isinstance(value, kinds) and not isinstance(value, bool)


def check_params(**params):
    """Raise ParamError naming the first setting that breaks its rule.

    Counts are integers of at least 1 (not bool), and max_depth and mtry
    may be None; bootstrap is a bool; C, gamma and tol are finite numbers
    greater than 0.
    """
    for key, value in params.items():
        if key == "bootstrap":
            ok, rule = isinstance(value, bool), "true or false"
        elif key in POSITIVE:
            ok = (_is_number(value, (int, float, np.integer, np.floating))
                  and math.isfinite(value) and value > 0)
            rule = "a finite number greater than 0"
        else:  # a count: n_trees, min_leaf, mtry, max_iter or max_depth
            ok = ((value is None and key in NULLABLE)
                  or (_is_number(value, (int, np.integer)) and value >= 1))
            rule = "an integer of at least 1"
            if key in NULLABLE:
                rule += " or null"
        if not ok:
            raise ParamError(key, f"{key!r} must be {rule}, got {value!r}")
