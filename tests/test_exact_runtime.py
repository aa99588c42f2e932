"""The runtime decides every verdict over the rationals: no module of the
package imports numpy or touches a float, no entry point accepts one, and a
full CLI run never loads numpy.  No module imports a name it never uses,
every top-level name is read by some module or exported, no cross-check is a
bare ``assert``, which ``python -O`` strips, and every immutable value is a
record."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tiltkit
from tiltkit import analysis, families, lattice, linalg
from tiltkit.matrix import RationalMatrix
from tiltkit.poly import Polynomial

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted((SRC / "tiltkit").glob("*.py"))


def _float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "numpy"]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] == "numpy":
                found.append(f"from {node.module}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"literal {node.value!r} at line {node.lineno}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"name float at line {node.lineno}")
    return found


def test_modules_found():
    assert {p.name for p in MODULES} >= {"analysis.py", "poly.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_and_no_float(path):
    assert _float_uses(ast.parse(path.read_text(), str(path))) == []


def test_scan_sees_what_it_forbids():
    code = "import numpy as np\nfrom numpy.linalg import eig\nx = 1e-9\ny = float(2)\n"
    assert len(_float_uses(ast.parse(code))) == 4


FORM = RationalMatrix([[5, 4], [4, 5]])


@pytest.mark.parametrize(
    "call",
    [
        lambda: lattice.solutions(FORM, 0.1),
        lambda: lattice.bounded_box(FORM, 0.1, 2),
        lambda: linalg.euler_form(FORM, [0.5, 0], [1, 0]),
        lambda: families.family("bgs", n=3.7),
        lambda: families.family("kronecker", l=True),
        lambda: analysis.NakayamaPermutation(((1.0, 2.0),)),
        lambda: Polynomial([0.1, 1]),
    ],
    ids=["solutions-z", "bounded-box-z", "euler-form-x", "family-float", "family-boolean",
         "nakayama-points", "polynomial"],
)
def test_entry_points_refuse_a_float_or_a_boolean_count(call):
    with pytest.raises(TypeError):
        call()


def _value_mechanisms(tree: ast.AST) -> list[str]:
    """What ``Record`` alone provides, done by hand: a reference to
    ``object.__setattr__``, a ``__slots__`` assignment or a definition of
    ``__setattr__``, ``__delattr__``, ``__eq__`` or ``__hash__``."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name) and node.value.id == "object"):
            found.append(f"object.__setattr__ at line {node.lineno}")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__slots__" for t in targets):
                found.append(f"__slots__ at line {node.lineno}")
        elif isinstance(node, ast.FunctionDef) and node.name in (
                "__setattr__", "__delattr__", "__eq__", "__hash__"):
            found.append(f"def {node.name} at line {node.lineno}")
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "_record.py"], ids=lambda p: p.name
)
def test_one_value_mechanism(path):
    assert _value_mechanisms(ast.parse(path.read_text(), str(path))) == []


def test_value_mechanism_scan_sees_what_it_forbids():
    code = (
        "class M:\n    __slots__ = ('a',)\n"
        "    def __init__(self, a):\n        object.__setattr__(self, 'a', a)\n"
        "    def __setattr__(self, name, value):\n        raise AttributeError(name)\n"
        "    def __delattr__(self, name):\n        raise AttributeError(name)\n"
        "    def __eq__(self, other):\n        return self.a == other.a\n"
        "    def __hash__(self):\n        return hash(self.a)\n"
        "    def __repr__(self):\n        return 'M'\n"
        "setter = object.__setattr__\n"
    )
    assert sorted(_value_mechanisms(ast.parse(code))) == [
        "__slots__ at line 2", "def __delattr__ at line 7", "def __eq__ at line 9",
        "def __hash__ at line 11", "def __setattr__ at line 5",
        "object.__setattr__ at line 15", "object.__setattr__ at line 4"]


def _unused_imports(tree: ast.AST) -> list[str]:
    """Names bound by an import (other than ``from __future__``) that the
    module never reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


# __init__.py imports to re-export
@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_unused_import_scan_sees_what_it_forbids():
    code = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom math import gcd, lcm\n"
        "from .poly import cyclotomic\nx = lcm(2, 3)\n"
    )
    assert _unused_imports(ast.parse(code)) == ["os", "j", "gcd", "cyclotomic"]


def _unread_names(trees: dict[str, ast.AST], exported: set[str]) -> list[str]:
    """``module.name`` for each top-level def, class or assignment of the
    modules that no module reads and ``exported`` does not hold."""
    read = {
        node.id
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [
                f"{module}.{name}"
                for name in names
                if not name.startswith("__") and name not in read | exported
            ]
    return unread


def test_every_top_level_name_is_read_or_exported():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in MODULES}
    assert _unread_names(trees, set(tiltkit.__all__)) == []


def test_api_surface_scan_sees_what_it_forbids():
    trees = {
        "a": ast.parse("X = 1\nY: int = 2\n__version__ = '1'\ndef f():\n    return X\n"),
        "b": ast.parse("from .a import f\nclass C:\n    pass\ndef g():\n    return f()\n"),
    }
    assert _unread_names(trees, {"g"}) == ["a.Y", "b.C"]


def _bare_asserts(tree: ast.AST) -> list[int]:
    """Lines of ``assert`` statements."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    assert _bare_asserts(ast.parse(path.read_text(), str(path))) == []


def test_assert_scan_sees_what_it_forbids():
    code = (
        "def f(x):\n    assert x > 0, 'positive'\n"
        "    if x > 1:\n        raise AssertionError('kept under -O')\n"
        "    assert x\n"
    )
    assert _bare_asserts(ast.parse(code)) == [2, 5]


def test_cli_run_never_imports_numpy(tmp_path):
    cartan = tmp_path / "cartan.json"
    cartan.write_text(json.dumps({"entries": [["3/2", "-1", "0"], ["1/3", "2", "1"],
                                              ["0", "-1/2", "5/4"]]}))
    script = textwrap.dedent(
        f"""
        import sys
        import tiltkit
        from tiltkit.cli import run
        code = run(["analyze", "--cartan", {str(cartan)!r}])
        print(code, "numpy" in sys.modules)
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads("\n".join(lines[:-1]))
    assert report["cyclotomic_type"] == "generalized_cyclotomic_numeric"
    assert lines[-1] == "0 False"


def _heavy_modules_after(imports: str) -> str:
    """Which of dataclasses, inspect and typing a fresh interpreter holds after
    importing tiltkit, every module of it and ``imports``; ``-S`` keeps
    site-packages hooks from loading them first."""
    modules = ", ".join(f"tiltkit.{p.stem}" for p in MODULES if p.stem != "__init__")
    script = (f"import sys, tiltkit, {modules}\n{imports}\n"
              "print([m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules])")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_dataclasses_inspect_or_typing():
    assert _heavy_modules_after("") == "[]"


def test_import_guard_sees_what_it_forbids():
    assert "'dataclasses'" in _heavy_modules_after("import dataclasses")
