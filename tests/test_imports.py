"""Source hygiene: every name a qendo module, test or demo imports is used
in it, and every definition a qendo module makes is referenced."""

import ast
import re
from pathlib import Path

import qendo

MODULES = sorted(Path(qendo.__path__[0]).glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


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
    # perfbench/ is the benchmark's own code and is left out
    paths = MODULES + sorted(p for d in ("tests", "demos")
                             for p in (ROOT / d).rglob("*.py"))
    assert MODULES
    found = [f"{path.relative_to(ROOT)}:{line}: {name}" for path in paths
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


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


def referenced_names(source: str) -> set:
    """Every name a source reads, imports or spells as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def referenced_words(source: str) -> set:
    """The names a source references and every word of its string
    constants, where a tracer names its targets."""
    return referenced_names(source).union(*(
        re.findall(r"\w+", node.value) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)))


def unreferenced(modules: dict, words: set, exempt=()) -> list:
    """"label:line: name" for each definition in modules (label -> source)
    that words does not hold and exempt does not name."""
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


def _words(sources, of=referenced_words) -> set:
    return set().union(*map(of, sources))


def test_scanner_finds_a_dead_definition():
    # `traced` counts through the string that USER's tracer names it in
    assert unreferenced({"lib": LIB}, _words([LIB, USER, TEST])) == [
        "lib:6: spare", "lib:12: orphan"]


def test_scanner_finds_a_definition_only_tests_reach():
    # a word in __all__ is not a caller, so `helper` counts as unreached
    got = unreferenced({"lib": LIB}, _words([LIB], referenced_names),
                       exempt=("entry",))
    assert got == ["lib:6: spare", "lib:8: helper", "lib:10: traced",
                   "lib:12: orphan", "lib:14: tested"]


def _texts(paths) -> dict:
    return {path.name: path.read_text(encoding="utf-8") for path in paths}


def test_every_definition_is_referenced():
    assert unreferenced(_texts(MODULES), _words(_texts(SOURCES).values())) == []


# definitions that only tests, demos or perfbench reach, and why each stays
TEST_ENTRY_POINTS = (
    ("memo_pairs", "a LazyIso's memo as data, how the tests compare the engine "
                   "with its reference"),
    ("is_cascade_safe", "the forest demo prints it"),
)


def test_every_definition_has_a_caller_in_the_package():
    # only names, attributes and imports count: a word in __all__, a
    # docstring or a message calls nothing
    src = _texts(MODULES)
    names = _words(src.values(), referenced_names)
    exempt = {name for name, _ in TEST_ENTRY_POINTS}
    assert unreferenced(src, names, exempt) == []
    # an exemption that the package itself reaches, or that names no
    # definition, is stale
    assert {found.rsplit(" ", 1)[1]
            for found in unreferenced(src, names)} == exempt
