"""Source hygiene: every name a qendo module imports is used in it, and
every definition it makes is referenced."""

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


def unreferenced(modules: dict, readers, exempt=()) -> list:
    """"label:line: name" for each definition in modules (label -> source)
    that no source in readers references and exempt does not name."""
    words = set().union(*map(referenced_words, readers))
    return [f"{label}:{line}: {name}" for label, source in modules.items()
            for line, name in definitions(source)
            if name not in words and name not in exempt]


LIB = ("class Box:\n    def __init__(self):\n        pass\n"
       "    def used(self):\n        pass\n    def spare(self):\n        pass\n"
       "def helper():\n    return Box().used()\n"
       "def traced():\n    pass\n"
       "def orphan():\n    pass\n"
       "def tested():\n    pass\n"
       "def entry():\n    pass\n"
       "__all__ = ['helper']\n")
USER = "from lib import helper\nhelper()\nTARGETS = ['lib.traced']\n"
TEST = "from lib import entry, tested\ntested()\nentry()\n"


def test_scanner_finds_a_dead_definition():
    assert unreferenced({"lib": LIB}, [LIB, USER, TEST]) == [
        "lib:6: spare", "lib:12: orphan"]


def test_scanner_finds_a_definition_only_tests_reach():
    # `helper` counts through __all__; `traced` is named only by USER
    got = unreferenced({"lib": LIB}, [LIB], exempt=("entry",))
    assert got == ["lib:6: spare", "lib:10: traced", "lib:12: orphan",
                   "lib:14: tested"]


def _texts(paths) -> dict:
    return {path.name: path.read_text(encoding="utf-8") for path in paths}


def test_every_definition_is_referenced():
    assert unreferenced(_texts(MODULES), _texts(SOURCES).values()) == []


# definitions that only tests, demos or perfbench reach, and why each stays
TEST_ENTRY_POINTS = (
    ("affine_map", "x -> a*x + b, the simplest injective map the tests build"),
    ("copoint_embedding", "the embedding whose image misses one point, "
                          "tested for its copoint obstruction"),
    ("memo_pairs", "a LazyIso's memo as data, how the tests compare the engine "
                   "with its reference"),
)


def test_every_definition_has_a_caller_in_the_package():
    src = _texts(MODULES)
    exempt = {name for name, _ in TEST_ENTRY_POINTS}
    assert unreferenced(src, src.values(), exempt) == []
    # an exemption that the package itself reaches, or that names no
    # definition, is stale
    assert {found.rsplit(" ", 1)[1]
            for found in unreferenced(src, src.values())} == exempt
