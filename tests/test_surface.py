"""Guards on what the package exposes.

The ``pireg`` namespace re-exports nothing, and every public top-level
function and class in ``src/pireg`` has a caller outside ``tests/``: it is
named in another part of ``src/pireg`` or in ``scripts/``, ``perfbench/``
or ``README.md``.  Likewise every dataclass field is read outside
``tests/``, unless its record is written out whole, and every name a
module imports is read.  Test oracles belong in ``tests/``.
"""

import ast
import dataclasses
import importlib
import re
import types
import typing
from pathlib import Path

import pireg
from pireg.config import ExperimentConfig
from pireg.report import RunReport, SweepReport

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


def _caller_texts():
    paths = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
             ROOT / "README.md"]
    return [p.read_text(encoding="utf-8") for p in paths]


def _caller_words():
    return set().union(*(re.findall(r"\w+", text) for text in _caller_texts()))


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


def test_every_import_in_src_is_read():
    # A name a module imports is read in that module, or read through it as
    # pireg.<module>.<name> by scripts/, perfbench/ or README.md.
    outside = set().union(*(re.findall(r"pireg\.\w+\.\w+", text) for text in _caller_texts()))
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and f"pireg.{path.stem}.{name}" not in outside:
                    unread.append(f"{path.name}:{name}")
    assert unread == [], f"imports nothing reads: {unread}"


def _written_whole():
    # The report records that emit_report dumps and the config sections that
    # config_to_dict dumps: every field reaches the file, so all count as read.
    seen, pending = set(), [RunReport, SweepReport, ExperimentConfig]
    while pending:
        hint = pending.pop()
        if dataclasses.is_dataclass(hint) and hint not in seen:
            seen.add(hint)
            pending.extend(typing.get_type_hints(hint).values())
        pending.extend(typing.get_args(hint))
    return seen


def _attribute_reads():
    # Attributes loaded by code outside tests/, plus those README's examples read.
    paths = [*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    reads = {node.attr for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return reads | set(re.findall(r"\.(\w+)", (ROOT / "README.md").read_text(encoding="utf-8")))


def test_every_dataclass_field_is_read_outside_tests():
    whole = _written_whole()
    reads = _attribute_reads()
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"pireg.{path.stem}")
        for cls in vars(module).values():
            if not dataclasses.is_dataclass(cls) or cls.__module__ != module.__name__ \
                    or cls in whole:
                continue
            unread.extend(f"{path.name}:{cls.__name__}.{f.name}"
                          for f in dataclasses.fields(cls) if f.name not in reads)
    assert unread == [], f"dataclass fields only tests read: {unread}"
