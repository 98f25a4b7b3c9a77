"""Import hygiene of the package modules, checked from their syntax trees.

No module imports a private (``_``-prefixed) name from a sibling module,
and no module other than ``__init__`` imports a name it never uses.  The
module attributes the benchmark's span tracer wraps stay bound.
"""

import ast
import importlib
from pathlib import Path

import pytest

import dynsparse

PACKAGE = Path(dynsparse.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_sibling_imports(tree):
    """Names starting with ``_`` imported from within the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sibling = node.level > 0 or (node.module or "").startswith("dynsparse")
            if sibling:
                found += [a.name for a in node.names if is_private(a.name)]
    return found


def unused_imports(tree):
    """Imported names never read in the module body or listed in ``__all__``."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = a.name
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(name for name in bound if name not in used)


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_sibling_imports(path):
    assert private_sibling_imports(parse(path)) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert unused_imports(parse(path)) == []


def test_checks_flag_offending_source():
    tree = ast.parse(
        "import os\n"
        "import numpy as np\n"
        "from .prior import _helper, used\n"
        "from . import __version__\n"
        "from scipy.linalg import cho_factor\n"
        "__all__ = ['reexported']\n"
        "from .x import reexported\n"
        "np.zeros(used, __version__)\n"
    )
    assert private_sibling_imports(tree) == ["_helper"]
    assert unused_imports(tree) == ["_helper", "cho_factor", "os"]


def tracer_bindings():
    """``BINDINGS`` of ``bench/tracing.py``, read from its syntax tree."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    for node in parse(path).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "BINDINGS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BINDINGS list in {path}")


def test_tracer_bindings_resolve():
    bindings = tracer_bindings()
    assert len(bindings) > 10
    missing = [
        (module, attr)
        for module, attr in bindings
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
