"""Every name a library module imports is read in that module.

An import that nothing reads is dead weight, and often the trace of code
that moved elsewhere.  The check walks each module's syntax tree with the
standard `ast`: a name counts as read when it is loaded anywhere in the
module.  `__future__` imports are skipped, and so are the names the package
`__init__` re-exports through `__all__`.
"""

import ast
from pathlib import Path

import pytest

import ultraweight

SOURCES = sorted(Path(ultraweight.__file__).parent.glob("*.py"))


def unread_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(ast.parse(path.read_text())) == []


def test_an_unread_import_is_caught():
    tree = ast.parse("from __future__ import annotations\n"
                     "import math\nfrom os import path, sep\nprint(sep)\n")
    assert unread_imports(tree) == ["math (line 2)", "path (line 3)"]
