"""Source hygiene: every name a qendo module, test or demo imports is used
in it, every definition a qendo module makes is referenced, and every
function it defines runs under the CLI's and the demos' traffic."""

import ast
import inspect
import json
import os
import pstats
import re
import subprocess
import sys
import types
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


def package_imports(source: str) -> set:
    """The qendo modules a module imports, relatively or by full name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            # the module path below qendo: `from . import x` has none
            path = node.module.split(".") if node.module else []
            if not node.level:
                if path[0] != "qendo":
                    continue
                path = path[1:]
            found |= {path[0]} if path else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith("qendo.")}
    return found


def test_scanner_finds_package_imports():
    source = ("from __future__ import annotations\nimport os, qendo.clone\n"
              "from . import ratcore\nfrom .lazyiso import build\n"
              "from qendo.generic import absorb\nfrom typing import List\n")
    assert package_imports(source) == {"clone", "ratcore", "lazyiso", "generic"}


def test_endo_imports_only_ratcore():
    # the piecewise layer, its factorization included, stands on the
    # rationals alone: no back-and-forth engine below it
    source = (ROOT / "src" / "qendo" / "endo.py").read_text(encoding="utf-8")
    assert package_imports(source) == {"ratcore"}


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


def functions(source: str, filename: str) -> dict:
    """(first line, name) -> qualified name for each function a module
    defines, nested ones too, keyed as a profiler keys its code object: a
    decorated function's first line is its first decorator's.  Class
    bodies, lambdas and comprehensions are not listed."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                is_function = bool(const.co_flags & inspect.CO_NEWLOCALS)
                name = prefix + const.co_name
                if is_function and not const.co_name.startswith("<"):
                    found[const.co_firstlineno, const.co_name] = name
                walk(const, name + (".<locals>." if is_function else "."))

    walk(compile(source, filename, "exec"), "")
    return found


def test_scanner_keys_functions_as_a_profiler_does():
    source = ("import functools\n"
              "class Box:\n    size = 1\n"
              "    @functools.cache\n    def get(self):\n"
              "        def inner():\n            return [i for i in ()]\n"
              "        return inner\n"
              "f = lambda: None\n")
    assert functions(source, "box.py") == {
        (4, "get"): "Box.get", (6, "inner"): "Box.get.<locals>.inner"}


MAPS = {
    "step": "(-inf,0) : 1*x + 0\n[0,+inf) : 1*x + 1\n",
    "plateau": "(-inf,0) : 1*x\n[0,1] : 0*x\n(1,+inf) : 1*x - 1\n",
    "shift": "(-inf,+inf) : 1*x + 1\n",
    "wide plateau": "(-inf,0) : 1*x\n[0,1000000] : 0*x\n"
                    "(1000000,+inf) : 1*x - 1000000\n",
}
FOREST = "root - 0\nmid root 1\ntop mid 2\n"

# the traffic runs in a fresh interpreter: a cache an earlier test warmed
# (ratcore's _DINV, say) would hide the function that fills it
PROFILE_TRAFFIC = """\
import cProfile, contextlib, io, json, runpy, sys
from qendo.cli import main
commands, demos = json.loads(sys.argv[2]), sys.argv[3:]
profile = cProfile.Profile()
with contextlib.redirect_stdout(io.StringIO()):
    profile.enable()
    codes = [main(argv) for argv in commands]
    for demo in demos:
        runpy.run_path(demo, run_name="__main__")
    profile.disable()
assert codes == [0] * len(commands), codes
profile.dump_stats(sys.argv[1])
"""


def traffic(tmp: Path) -> list:
    """qendo command lines: every suite at the default seed, each generic
    variant, classify and factorize on each of MAPS, and two actions."""
    paths = {}
    for name, text in {**MAPS, "forest": FOREST}.items():
        paths[name] = tmp / f"{name.replace(' ', '_')}.txt"
        paths[name].write_text(text, encoding="utf-8")
    return ([["suite", "all"]]
            + [["generic", variant, "--points", "3"]
               for variant in ("core", "plus", "minus", "pm")]
            + [[command, str(paths[name])] for name in MAPS
               for command in ("classify", "factorize")]
            + [["act", str(paths["forest"]), str(paths[name]), "top", "0,1"]
               for name in ("step", "plateau")])


def unrun_functions(tmp: Path) -> list:
    """(module, first line, qualified name) for each function in src/qendo
    that the traffic and the demos leave unrun."""
    stats = tmp / "traffic.prof"
    package = Path(qendo.__path__[0])
    done = subprocess.run(
        [sys.executable, "-c", PROFILE_TRAFFIC, str(stats),
         json.dumps(traffic(tmp)),
         *map(str, sorted((ROOT / "demos").glob("*.py")))],
        cwd=tmp, env=dict(os.environ, PYTHONPATH=str(package.parent)),
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    ran = {(Path(filename).name, line, name)
           for filename, line, name in pstats.Stats(str(stats)).stats
           if Path(filename).parent == package}
    return [(path.stem, line, qualname) for path in MODULES
            for (line, name), qualname in functions(
                path.read_text(encoding="utf-8"), str(path)).items()
            if (path.name, line, name) not in ran]


# functions the traffic leaves unrun, as "module.qualname", and why each stays
UNRUN = (
    *((f"lazyiso.{name}", "the LexSum gap stream: only a forward step into "
                          "a sum runs it, and no command takes one")
      for name in ("_cantor", "ColouredQ.index_of", "LexSum._least",
                   "LexSum.enum_in_gap")),
    *((f"generic.{name}", "the recovery half of a composite certificate: "
                          "tests run it, and no command recovers through a "
                          "composite yet")
      for name in ("ComposedCert.inverse_image",
                   "absorb.<locals>.inner_preimage")),
    ("lazyiso.LazyIso.memo_pairs", "tests compare the engine's memo with "
                                   "their reference through it"),
    ("generic.CoordinateIso.eval_bwd", "tests show through it that α is "
                                       "onto"),
    ("generic.PPairError.__init__", "raised only for an incompatible pair, "
                                    "and no command builds one"),
    ("ratcore.SearchExhausted.__init__", "raised only when a search reaches "
                                         "its cap"),
    ("ratcore._interval_from_positions", "merge_intervals joins two "
                                         "intervals with it, and the suites "
                                         "merge only disjoint, non-touching "
                                         "ones"),
    *((f"ratcore.Rat.{name}", "keeps a Rat a Rat with an int or a Fraction "
                              "on its left, and under abs(); no command "
                              "computes one")
      for name in ("__radd__", "__rsub__", "__rmul__", "__abs__")),
    ("ratcore.Rat.__repr__", "prints a Rat as a Fraction, as the class "
                             "promises; no command prints a repr"),
    ("lazyiso.Marker.__str__", "an endpoint class as a message or a memo "
                               "dump prints it; no command's output holds "
                               "one"),
    ("partialmap.FinitePartialMap.__str__", "a partial map as a message "
                                            "prints it"),
)


def test_every_function_runs_under_traffic(tmp_path):
    found = unrun_functions(tmp_path)
    exempt = {name for name, _ in UNRUN}
    stray = [f"{module}:{line}: {qualname}" for module, line, qualname in found
             if f"{module}.{qualname}" not in exempt]
    assert not stray, "functions no traffic runs:\n" + "\n".join(stray)
    # an exemption that runs, or that names no function, is stale
    stale = exempt - {f"{module}.{qualname}" for module, _, qualname in found}
    assert not stale, "exempt, but run or not found: " + ", ".join(sorted(stale))
