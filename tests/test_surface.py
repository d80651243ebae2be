"""Guards on what the package exposes.

The ``pireg`` namespace re-exports nothing, and every public top-level
function and class in ``src/pireg`` has a caller outside ``tests/``: it is
named in another part of ``src/pireg`` or in ``scripts/``, ``perfbench/``
or ``README.md``.  Test oracles belong in ``tests/``.
"""

import ast
import re
import types
from pathlib import Path

import pireg

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pireg"


def test_package_namespace_exports_nothing():
    public = [name for name in dir(pireg)
              if not name.startswith("_")
              and not isinstance(getattr(pireg, name), types.ModuleType)]
    assert public == []


def _statement_names():
    # (module path, statement index) -> identifiers read in that top-level
    # statement, as names or attributes; imports and docstrings do not count.
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for i, stmt in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            out[path, i] = {node.id if isinstance(node, ast.Name) else node.attr
                            for node in ast.walk(stmt)
                            if isinstance(node, (ast.Name, ast.Attribute))}
    return out


def _caller_words():
    paths = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
             ROOT / "README.md"]
    return set().union(*(re.findall(r"\w+", p.read_text(encoding="utf-8")) for p in paths))


def test_every_public_definition_has_a_caller_outside_tests():
    statements = _statement_names()
    callers = _caller_words()
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for i, stmt in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    or stmt.name.startswith("_"):
                continue
            if stmt.name in callers or any(
                    stmt.name in names for key, names in statements.items()
                    if key != (path, i)):
                continue
            unused.append(f"{path.name}:{stmt.name}")
    assert unused == [], f"public names only tests use: {unused}"
