#!/usr/bin/env python3
"""Line split of advlab's source, and the definitions that differ from another tree.

    python3 tools/srclines.py [--against SRC]

Prints how the lines of src/advlab/*.py split into code, docstring, comment
and blank lines.  A docstring line is one inside the docstring of a module,
class or function; a comment line holds only a comment; a code line is any
other non-blank line.

With --against SRC (another checkout's src/, as for tools/bitcheck.py) it
prints that tree's split too, then one line per top-level function or class,
and per module body (its top-level statements that are neither), whose AST
with docstrings stripped differs between the two trees or is in one only.
No such line means the trees differ in docstrings, comments and layout alone.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.AST):
    """(owner, docstring expression) of tree and of every module, class and function in it."""
    for owner in ast.walk(tree):
        if isinstance(owner, _OWNERS) and owner.body:
            first = owner.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                yield owner, first


def split(text: str) -> dict:
    """{"code", "docstring", "comment", "blank"} line counts of one module's source."""
    lines = text.splitlines()
    doc = set()
    for _, node in _docstrings(ast.parse(text)):
        doc.update(range(node.lineno, node.end_lineno + 1))
    counts = dict(code=0, docstring=0, comment=0, blank=0)
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        kind = ("docstring" if number in doc else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        counts[kind] += 1
    return counts


def _stripped(node: ast.AST) -> str:
    """ast.dump of node with every docstring removed."""
    for owner, _ in list(_docstrings(node)):
        owner.body = owner.body[1:]
    return ast.dump(node)


def definitions(text: str) -> dict:
    """{name: stripped AST} of a module's top-level functions and classes, and
    "(module body)" for the rest of its top-level statements."""
    tree = ast.parse(text)
    defs, rest = {}, []
    for node in tree.body:
        if isinstance(node, _OWNERS[1:]):
            defs[node.name] = _stripped(node)
        else:
            rest.append(node)
    defs["(module body)"] = _stripped(ast.Module(body=rest, type_ignores=[]))
    return defs


def _modules(src: Path) -> dict:
    return {p.stem: p.read_text() for p in sorted((src / "advlab").glob("*.py"))}


def _print_split(label: str, modules: dict) -> None:
    total = dict(code=0, docstring=0, comment=0, blank=0)
    for text in modules.values():
        for kind, count in split(text).items():
            total[kind] += count
    print(f"{label}: {sum(total.values())} lines = " +
          " + ".join(f"{count} {kind}" for kind, count in total.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="SRC",
                        help="another checkout's src/ directory to compare with")
    args = parser.parse_args(argv)
    here = _modules(SRC)
    _print_split(str(SRC), here)
    if args.against is None:
        return 0
    there = _modules(args.against)
    _print_split(str(args.against), there)
    for module in sorted(here.keys() | there.keys()):
        ours = definitions(here[module]) if module in here else {}
        theirs = definitions(there[module]) if module in there else {}
        for name in sorted(ours.keys() | theirs.keys()):
            if name not in theirs:
                print(f"{module}.{name}: only in {SRC}")
            elif name not in ours:
                print(f"{module}.{name}: only in {args.against}")
            elif ours[name] != theirs[name]:
                print(f"{module}.{name}: differs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
