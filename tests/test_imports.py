"""Import hygiene of the package modules.

No module imports a private (``_``-prefixed) name from a sibling module,
no module other than ``__init__`` imports a name it never uses, no module
defines a private module-level function, class or constant that nothing
else in it reads, no module imports scipy at load time, and no module
other than ``special`` names ``kve``; all five are checked from the syntax
trees.  Every name in a module's ``__all__`` is an attribute of the loaded
module, and every function in it is named outside the module: by another
package module (``__init__``'s re-exports do not count), by a test, or as
a ``[project.scripts]`` entry point.  The module attributes the
benchmark's span tracer wraps stay bound.  The CLI imports
and runs every subcommand without loading scipy.integrate, scipy.optimize
or mpmath, and only the subcommands that call scipy.special or
scipy.linalg load them.
"""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import types
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


def unused_private_definitions(tree):
    """Private module-level defs and constants that no other statement reads.

    A read inside a definition's own body (recursion) does not count.
    """
    reads, defined = [], {}
    for node in tree.body:
        names = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        for name in names:
            if is_private(name):
                defined[name] = node
        loads = {
            n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        reads.append((node, loads))
    return sorted(
        name for name, home in defined.items()
        if not any(name in loads for node, loads in reads if node is not home)
    )


def module_level_scipy_imports(tree):
    """scipy modules imported when the module loads, i.e. outside any function."""
    found = []
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".")[0] == "scipy":
                found.append(node.module)
        nodes.extend(ast.iter_child_nodes(node))
    return sorted(found)


def kve_references(tree):
    """Lines that name ``kve``: a name, an attribute, an import or a string."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if any("kve" in (a.name, a.asname) for a in node.names):
                lines.add(node.lineno)
        elif (
            (isinstance(node, ast.Name) and node.id == "kve")
            or (isinstance(node, ast.Attribute) and node.attr == "kve")
            or (isinstance(node, ast.Constant) and node.value == "kve")
        ):
            lines.add(node.lineno)
    return sorted(lines)


def undefined_exports(module):
    """Names in the module's ``__all__`` that it does not define."""
    return sorted(n for n in getattr(module, "__all__", []) if not hasattr(module, n))


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_definitions(path):
    assert unused_private_definitions(parse(path)) == []


def test_unused_private_definitions_flags_dead_helpers():
    tree = ast.parse(
        "_USED = 1\n"
        "_UNUSED = 2\n"
        "_A, (_B, _C) = 3, (4, 5)\n"
        "_ANNOTATED: int = 6\n"
        "__all__ = ['public']\n"
        "def _helper():\n"
        "    return _USED + _B\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1)\n"
        "class _Gone:\n"
        "    pass\n"
        "def public():\n"
        "    _UNUSED = 0  # a local of the same name is not a read\n"
        "    return _helper(), _C\n"
    )
    assert unused_private_definitions(tree) == [
        "_A", "_ANNOTATED", "_Gone", "_UNUSED", "_recursive",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_level_scipy_imports(path):
    assert module_level_scipy_imports(parse(path)) == []


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "special.py"], ids=lambda p: p.name
)
def test_only_special_names_kve(path):
    # log_bessel_k and log_bessel_k_flat are the only routes to kve, so the
    # scalar-fallback rule and the lazy scipy.special import live in one place
    assert kve_references(parse(path)) == []


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
        "try:\n"
        "    import scipy.special as sc\n"
        "except ImportError:\n"
        "    sc = None\n"
        "def f():\n"
        "    from scipy.special import kve\n"
        "    import scipy\n"
        "    return kve, scipy\n"
        "g = sc.kve\n"
        "h = bind_on_first_call(globals(), 'scipy.special', 'kve')\n"
    )
    assert private_sibling_imports(tree) == ["_helper"]
    assert unused_imports(tree) == ["_helper", "cho_factor", "os"]
    assert module_level_scipy_imports(tree) == ["scipy.linalg", "scipy.special"]
    assert kve_references(tree) == [14, 16, 17, 18]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_name_in_all_is_defined(path):
    name = "dynsparse" if path.stem == "__init__" else f"dynsparse.{path.stem}"
    assert undefined_exports(importlib.import_module(name)) == []


def test_undefined_exports_flags_a_name_left_in_all():
    module = types.ModuleType("stale")
    exec("from math import sqrt\n__all__ = ['kept', 'sqrt', 'gone']\ndef kept(): pass\n",
         module.__dict__)
    assert undefined_exports(module) == ["gone"]


def referenced_names(tree):
    """Names a syntax tree reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def script_targets():
    """``(module, function)`` pairs of pyproject.toml's ``[project.scripts]``."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.findall(r'=\s*"([\w.]+):(\w+)"', section)


def unreferenced_functions(module, names_elsewhere, scripts):
    """Functions in the module's ``__all__`` that no other file names."""
    return sorted(
        name for name in getattr(module, "__all__", [])
        if inspect.isfunction(getattr(module, name))
        and name not in names_elsewhere
        and (module.__name__, name) not in scripts
    )


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_public_functions_are_used_outside_their_module(path):
    # a re-export in __init__ is not a use; the tests and the other modules are
    others = [p for p in MODULES if p.name not in (path.name, "__init__.py")]
    others += sorted(Path(__file__).resolve().parent.glob("*.py"))
    names = set().union(*(referenced_names(parse(p)) for p in others))
    module = importlib.import_module(f"dynsparse.{path.stem}")
    assert unreferenced_functions(module, names, script_targets()) == []


def test_unreferenced_functions_flags_an_unused_export():
    module = types.ModuleType("pkg.mod")
    exec(
        "__all__ = ['called', 'read', 'unused', 'main', 'LIMIT', 'Kind']\n"
        "def called(): pass\n"
        "def read(): pass\n"
        "def unused(): pass\n"
        "def main(): pass\n"
        "LIMIT = 1\n"
        "class Kind: pass\n",
        module.__dict__,
    )
    tree = ast.parse("from pkg.mod import called\nimport pkg\ncalled(pkg.mod.read)\n")
    names = referenced_names(tree)
    assert unreferenced_functions(module, names, [("pkg.mod", "main")]) == ["unused"]
    assert ("dynsparse.cli", "main") in script_targets()


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


# The test oracles integrate through scipy.integrate, which pulls in
# scipy.optimize; mpmath serves only the log K overflow corner, which the
# commands below never reach.  Importing them would cost every command
# start-up time and memory.
HEAVY_MODULES = ("scipy.integrate", "scipy.optimize", "mpmath")

# Runs the stages named (comma-separated) in its first argument in order,
# in one interpreter, and prints which of the modules named in the other
# arguments are loaded after each.  The "import" stage runs nothing.
STARTUP_SCRIPT = """
import json, sys
from dynsparse.cli import run_command

stages, watched = sys.argv[1].split(","), sys.argv[2:]
model = ["nu=1.0", "delta=0.5", "gamma=1.0", "alpha=0.5", "sigma=0.7"]
with open("data.csv", "w") as f:
    f.write("t,y,x1\\n" + "".join(f"{t},{0.1 * t - 0.3},1\\n" for t in range(1, 9)))
commands = {
    "simulate": ["simulate", *model, "d=2", "T=40", "seed=1", "out_dir=sim"],
    "simulate-rho": ["simulate", *model, "rho=0.8", "T=40", "seed=1", "out_dir=simr"],
    "acf": ["acf", *model, "d=2", "T=60", "seed=1", "max_lag=5", "out_dir=acf"],
    "fit-map": ["fit-map", *model, "d=2", "max_iter=50", "data_path=data.csv", "out_dir=map"],
    "fit-glasso": [
        "fit-glasso", "nu=2.0", "delta=0.0", "gamma=1.0", "alpha=0.5", "sigma=0.5",
        "d=2", "max_iter=1000", "data_path=data.csv", "out_dir=gl",
    ],
    "fit-smc": [
        "fit-smc", *model, "rho=0.8", "n_particles=8", "n_iters=3", "seed=1",
        "data_path=data.csv", "out_dir=smc",
    ],
}
report = {}
for name in stages:
    code = 0 if name == "import" else run_command(commands[name])
    report[name] = [m for m in watched if m in sys.modules] if code == 0 else f"exit {code}"
print(json.dumps(report))
"""
STAGES = ["import", "simulate", "simulate-rho", "acf", "fit-map", "fit-glasso", "fit-smc"]


def startup_report(cwd, stages, watched):
    src = Path(dynsparse.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, ",".join(stages), *watched],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cli_commands_load_no_integrate_optimize_or_mpmath(tmp_path):
    report = startup_report(tmp_path, STAGES, HEAVY_MODULES)
    assert report == {stage: [] for stage in STAGES}


# scipy.special and scipy.linalg each take ~0.3 s and ~25 MB to import.
# Only fit-map (kve, dposv) calls both; fixed-d simulate and acf
# call scipy.linalg's cholesky once.  Top-level scipy, which the manifest
# reads its version from, is cheap and not watched.  Each stage gets a
# fresh interpreter, so no stage sees what an earlier one loaded.
SCIPY_SUBMODULES = ("scipy.special", "scipy.linalg")
SCIPY_LOADED = {
    "import": [],
    "fit-glasso": [],
    "fit-smc": [],
    "simulate-rho": [],
    "simulate": ["scipy.linalg"],
    "acf": ["scipy.linalg"],
    "fit-map": ["scipy.special", "scipy.linalg"],
}


@pytest.mark.parametrize("stage", list(SCIPY_LOADED))
def test_scipy_submodules_load_only_in_commands_that_call_them(tmp_path, stage):
    report = startup_report(tmp_path, [stage], SCIPY_SUBMODULES)
    assert report == {stage: SCIPY_LOADED[stage]}
