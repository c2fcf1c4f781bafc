"""Source hygiene: every name a qendo module imports is used in it."""

import ast
from pathlib import Path

import qendo

MODULES = sorted(Path(qendo.__path__[0]).glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) for each imported name that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "from typing import List, Optional\nimport os.path\n"
              "import json as j\n"
              "def f(x: Optional[int]):\n    return j.dumps(x)\n")
    assert unused_imports(source) == [(2, "List"), (3, "os")]


def test_no_module_has_an_unused_import():
    assert MODULES
    found = [f"{path.name}:{line}: {name}" for path in MODULES
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []
