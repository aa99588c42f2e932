"""The runtime decides every verdict over the rationals: no module of the
package imports numpy or touches a float, and a full CLI run never loads
numpy.  No module imports a name it never uses, every top-level name is read
by some module or exported, and no cross-check is a bare ``assert``, which
``python -O`` strips."""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import tiltkit

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
