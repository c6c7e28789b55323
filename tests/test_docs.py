"""The docs point at the code rather than restate it, so the pointers must hold: each
`module.name` reference to an advlab module names an attribute that exists, and the
README's module map names every module of the package."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "advlab"
MODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
README = (ROOT / "README.md").read_text()
# module.name or advlab.module.name, not inside a longer dotted name or a path
REFERENCE = re.compile(r"(?<![\w./])(?:advlab\.)?(\w+)\.([A-Za-z_]\w*)")


def docstrings():
    """(where, text) of every module, class and function docstring of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                text = ast.get_docstring(node, clean=False)
                if text:
                    yield f"{path.name}:{getattr(node, 'name', '<module>')}", text


def references():
    """(where, module, name) of each reference to an advlab module: anywhere in a
    docstring, and at the start of a backticked span in the README (whose prose and
    commands also name files such as sweep.csv)."""
    spans = [("README.md", span) for span in re.findall(r"`([^`\n]+)`", README)]
    for where, text in [*spans, *docstrings()]:
        for match in REFERENCE.finditer(text):
            if match.group(1) in MODULES and (where != "README.md" or match.start() == 0):
                yield where, *match.groups()


def test_references_resolve():
    found = list(references())
    assert len(found) > 30  # the module map alone holds more: none found means a broken pattern
    broken = [f"{where}: {module}.{name}" for where, module, name in found
              if not hasattr(importlib.import_module(f"advlab.{module}"), name)]
    assert broken == []


def test_module_map_names_every_module():
    module_map = README.split("\n## Modules\n")[1].split("\n## ")[0]
    entries = set(re.findall(r"^- `advlab(?:\.(\w+))?`", module_map, re.M))
    assert entries == MODULES | {""}  # "" is the package entry, `advlab`
