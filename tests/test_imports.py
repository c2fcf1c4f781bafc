"""Source hygiene: every name a qendo module imports is used in it."""

import ast
import re
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


ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "demos", "perfbench")
                 for p in (ROOT / d).rglob("*.py"))


def definitions(source: str) -> list:
    """(line, name) for each module-level function or class and each method
    that is not a dunder."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(m.lineno, m.name) for m in node.body
                      if isinstance(m, ast.FunctionDef)
                      and not (m.name.startswith("__") and m.name.endswith("__"))]
    return found


def referenced_words(source: str) -> set:
    """Every name a source reads, imports or spells as an attribute, and
    every word of its string constants, where a tracer names its targets."""
    words = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(re.findall(r"\w+", node.value))
    return words


def test_scanner_finds_a_dead_definition():
    lib = ("class Box:\n    def __init__(self):\n        pass\n"
           "    def used(self):\n        pass\n    def spare(self):\n        pass\n"
           "def helper():\n    return Box().used()\n"
           "def traced():\n    pass\n"
           "def orphan():\n    pass\n")
    user = "from lib import helper\nhelper()\nTARGETS = ['lib.traced']\n"
    words = referenced_words(lib) | referenced_words(user)
    assert [(line, name) for line, name in definitions(lib)
            if name not in words] == [(6, "spare"), (12, "orphan")]


def test_every_definition_is_referenced():
    words = set()
    for path in SOURCES:
        words |= referenced_words(path.read_text(encoding="utf-8"))
    found = [f"{path.name}:{line}: {name}" for path in MODULES
             for line, name in definitions(path.read_text(encoding="utf-8"))
             if name not in words]
    assert found == []
