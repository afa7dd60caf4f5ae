"""Every import in a landseg module is used there, and every public
function, class and method is named somewhere: in a landseg module, in
the benchmark or in the acceptance tests.

The package __init__ modules are skipped: their imports are re-exports.
Each name that `landseg`, `landseg.nn` or `landseg.classical` re-exports
must be imported from that package somewhere in the sources, the tests,
the demos or the benchmark.
"""

import ast
import re
from pathlib import Path

import pytest

import landseg

SRC = Path(landseg.__file__).parent
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
ROOT = SRC.parents[1]
# where a public name must be used: other tests do not keep it alive
CALLERS = MODULES + sorted((ROOT / "bench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]
# where a package's re-exports must be imported from it
IMPORTERS = sorted(SRC.rglob("*.py")) + [
    p for d in ("tests", "demos", "bench")
    for p in sorted((ROOT / d).glob("*.py"))]


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


def public_defs(source: str) -> list:
    """Public top-level functions and classes, and Class.method names."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{m.name}" for m in node.body
                    if isinstance(m, ast.FunctionDef)]
    return [name for name in out if not name.rpartition(".")[2]
            .startswith("_")]


def names_used(source: str) -> set:
    """Identifiers a module reads, imports or spells in a string (such as
    the tracer's "Class.method" keys); docstrings do not count."""
    tree = ast.parse(source)
    docs = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docs):
            used |= set(re.findall(r"\w+", node.value))
    return used


def test_every_public_name_has_a_caller():
    used = set().union(*(names_used(p.read_text()) for p in CALLERS))
    unused = [f"{p.relative_to(SRC)}: {name}" for p in MODULES
              for name in public_defs(p.read_text())
              if name.rpartition(".")[2] not in used]
    assert unused == []


def test_public_name_detector():
    source = (
        "class A:\n"
        "    def kept(self):\n"
        "        return self.named_in_string()\n"
        "    def dropped(self):\n"
        "        'dropped is only in this docstring'\n"
        "    def _private(self):\n"
        "        pass\n"
        "def helper():\n"
        "    return A().kept(), 'A.named_in_string'\n"
    )
    assert public_defs(source) == ["A", "A.kept", "A.dropped", "helper"]
    used = names_used(source)
    assert {"A", "kept", "named_in_string"} <= used
    assert not {"dropped", "helper", "only"} & used


def imported_from(source: str, package: str) -> set:
    """(module, name) for each `from module import name` in a module of
    the given package, with relative imports resolved against it."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                module = f"{base}.{module}" if module else base
            out |= {(module, alias.name) for alias in node.names}
    return out


def re_exports(source: str) -> list:
    """The names an __init__ module imports from its own submodules."""
    return [alias.asname or alias.name for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names]


def _package_of(path: Path) -> str:
    if SRC not in path.parents:
        return ""
    return ".".join(("landseg",) + path.parent.relative_to(SRC).parts)


@pytest.mark.parametrize("package",
                         ["landseg", "landseg.nn", "landseg.classical"])
def test_every_re_export_is_imported(package):
    init = SRC.joinpath(*package.split(".")[1:], "__init__.py")
    imported = set().union(*(imported_from(p.read_text(), _package_of(p))
                             for p in IMPORTERS if p != init))
    unused = [name for name in re_exports(init.read_text())
              if (package, name) not in imported]
    assert unused == []


def test_import_resolver():
    source = (
        "from .ops import conv\n"
        "from ..nn import train\n"
        "from . import ops\n"
        "from landseg.nn import build\n"
    )
    assert imported_from(source, "landseg.nn") == {
        ("landseg.nn.ops", "conv"), ("landseg.nn", "train"),
        ("landseg.nn", "ops"), ("landseg.nn", "build")}
    assert re_exports(source) == ["conv", "train", "ops"]
