"""The benchmark's tracer (bench/tracer.py) patches landseg functions by
name and reads conv caches by position; a rename or a cache reorder in
src/ should fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from landseg.nn import ops

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(module, dotted):
    obj = module
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_tracer_mapped_names_exist(tracer):
    missing = []
    for modname, table in tracer.LAYERS.items():
        module = importlib.import_module(modname)
        missing += [f"{modname}.{name}" for name in table
                    if name != "*" and not callable(_resolve(module, name))]
    assert not missing


def test_tracer_counter_hooks_name_existing_functions(tracer):
    modules = [importlib.import_module(m) for m in tracer.LAYERS]
    orphans = [name for name in tracer.AFTER
               if not any(callable(_resolve(m, name)) for m in modules)]
    assert not orphans


@pytest.mark.parametrize("k", [1, 3])
def test_conv_cache_holds_weight_in_slot_2(rng, k):
    x = rng.standard_normal((2, 3, 5, 4))
    w = rng.standard_normal((4, 3, k, k))
    _, cache = ops.conv2d_forward(x, w, np.zeros(4))
    assert cache[2] is w
