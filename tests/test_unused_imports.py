"""Every import in a landseg module is used there.

The package __init__ modules are skipped: their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

import landseg

SRC = Path(landseg.__file__).parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as -> "Raster" name their types in strings
    for node in ast.walk(tree):
        ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            expr = ast.parse(ann.value, mode="eval")
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_modules_found():
    names = {p.name for p in MODULES}
    assert {"cli.py", "models.py", "tree.py", "train.py"} <= names


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import numpy as np\n"
        "from dataclasses import dataclass, field\n"
        "from pathlib import Path\n"
        "x = np.zeros(1)\n"
        "def f() -> 'Path':\n"
        "    return dataclass, 'field'\n"
    )
    assert unused_imports(source) == [(2, "json"), (4, "field")]
