"""Every name a module of src/gdlog imports is used in that module, and
every private name a module defines at its top level is read by some module.

Read with ast only: nothing is imported or run.  __init__.py is exempt from
the import check, as its imports are the package's re-exports, and so are
__future__ imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gdlog"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def unused_imports(source: str) -> list[str]:
    """The names bound by an import statement and never read as a name or
    as the root of an attribute chain."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    src = "from __future__ import annotations\nimport os.path\nfrom a import b, c as d\nd()\n"
    assert unused_imports(src) == ["os", "b"]


def test_the_package_has_modules():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def private_names(source: str) -> list[str]:
    """The names with one leading underscore that the top level of source
    binds: functions, classes and assignment targets."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def read_names(source: str) -> set[str]:
    """The names source reads: as a name, as an attribute or by importing
    it from a module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def test_unread_private_names_are_found():
    src = "_a = 1\n_b: int = 2\n__all__ = []\ndef _f(): return _a\nclass _C: pass\nx = m._C\n"
    assert private_names(src) == ["_a", "_b", "_f", "_C"]
    assert {"_a", "_C"} <= read_names(src) and not {"_b", "_f"} & read_names(src)


def test_every_private_name_is_read():
    read = set().union(*map(read_names, SOURCES.values()))
    unread = [f"{name}:{n}" for name, src in SOURCES.items() for n in private_names(src) if n not in read]
    assert unread == []
