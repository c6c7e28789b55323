"""No module of the package imports a name it never uses.

No linter is installed, so this reads each module's syntax tree with the
standard library's ast.  __init__.py is skipped: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "advlab"
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


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_catches_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os\nimport sys\n"
                      "from .core import ParameterError, ShapeError\n\n"
                      "def f(x: sys.Path):\n    raise ParameterError(x)\n")
    assert unused_imports(module) == ["ShapeError", "os"]
