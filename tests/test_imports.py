"""No module of the package imports a name it never uses, and none defines
a top-level function or class that only the tests use.

No linter is installed, so this reads each module's syntax tree with the
standard library's ast.  __init__.py is skipped: its imports are the
package's re-exports, which do not count as a use.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "advlab"
# Unused, but perfbench counts softmax passes by patching these bindings.
ALLOWED = {("objectives", "softmax_rows"), ("trainer", "softmax_rows")}


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported
                  if name not in used and (path.stem, name) not in ALLOWED)


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# Where a use of a library definition counts: the library itself and its non-test callers.
CALLERS = MODULES + sorted(p for d in ("perfbench", "tools", "demos")
                           for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_catches_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os\nimport sys\n"
                      "from .core import ParameterError, ShapeError\n\n"
                      "def f(x: sys.Path):\n    raise ParameterError(x)\n")
    assert unused_imports(module) == ["ShapeError", "os"]


def unreferenced(modules: list, callers: list) -> list:
    """"module.name" of each top-level function and class of modules that no top-level
    statement of callers, other than its own definition, reads as a name or attribute."""
    defined = {}  # name -> the (path, line) of each definition
    for path in modules:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, set()).add((path, node.lineno))
    used = set()
    for path in callers:
        for stmt in ast.parse(path.read_text()).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name in defined and defined[name] != {(path, stmt.lineno)}:
                    used.add(name)
    return sorted(f"{path.stem}.{name}" for name, sites in defined.items() if name not in used
                  for path, _ in sites)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_definition_has_a_non_test_caller(path):
    assert unreferenced([path], CALLERS) == []


def test_catches_a_definition_only_tests_call(tmp_path):
    module, caller = tmp_path / "m.py", tmp_path / "c.py"
    module.write_text("class Used:\n    pass\n\n"
                      "def orphan(n):\n    return orphan(n - 1) if n else Used()\n")
    caller.write_text("import m\nm.Used()\n")
    assert unreferenced([module], [module, caller]) == ["m.orphan"]
