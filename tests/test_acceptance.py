"""Acceptance gate: twelve criteria, one pass/fail line each.

Each criterion drives the seeded suites (or the CLI itself) at the stated
sampling depths with the default configuration and asserts zero failures.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import hashlib
import json
import sys
from pathlib import Path

from qendo.cli import main
from qendo.suites import RunConfig, run_suite

_CFG = RunConfig()
_DIGESTS = Path(__file__).parents[1] / "perfbench" / "digests.json"
_CACHE = {}


def _suite(name):
    if name not in _CACHE:
        _CACHE[name] = run_suite(name, _CFG)
    return _CACHE[name]


def _props(name):
    return {p.name: p for p in _suite(name).properties}


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:>2} ({label}): {status}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_colour_density():
    p = _props("ratcore")["colour-density"]
    _report(1, "colour density between first 200 rationals", p.ok, p.detail)


def test_criterion_02_gap_equivalence():
    ps = _props("sim")
    ok = ps["equivalence-laws"].ok and ps["classes-convex"].ok
    _report(2, "gap-equivalence laws on 20 specs x 200 triples", ok,
            ps["equivalence-laws"].detail)


def test_criterion_03_generic_certificates():
    ps = _props("generic")
    names = [f"certificate-{v}" for v in ("core", "plus", "minus", "pm")]
    ok = all(ps[n].ok for n in names)
    _report(3, "certified generic embeddings, all variants", ok,
            "; ".join(ps[n].detail for n in names if not ps[n].ok))


def test_criterion_04_commuting_extension():
    p = _props("recover")["commuting-extension"]
    _report(4, "50 valid seed pairs extend to exact commuting pairs",
            p.ok, p.detail)


def test_criterion_05_recovery():
    ps = _props("recover")
    ok = ps["recovery-witnesses"].ok and \
        ps["alpha-fixes-image-of-fixed-points"].ok
    _report(5, "recovery witnesses, both directions", ok,
            ps["recovery-witnesses"].detail)


def test_criterion_06_composed_and_absorbed():
    ps = _props("generic")
    ok = ps["absorbed-certificates"].ok and \
        ps["composed-bounded-certificates"].ok
    _report(6, "20 absorbed + 10 bounded composed certificates", ok,
            ps["absorbed-certificates"].detail)


def test_criterion_07_inverses_and_factorization():
    ps = _props("factor")
    names = ("right-inverse", "epi-mono-exact", "mono-strictly-monotone",
             "preimage-constructor")
    ok = all(ps[n].ok for n in names)
    _report(7, "right inverses and exact epi-mono factorization", ok,
            "; ".join(ps[n].detail for n in names if not ps[n].ok))


def test_criterion_08_witness_equivalences():
    ps = _props("factor")
    ok = ps["cancellability-witnesses"].ok and ps["left-zero-test"].ok
    _report(8, "classification flags match witnesses on 100 maps", ok,
            ps["cancellability-witnesses"].detail)


def test_criterion_09_forest_actions():
    ps = _props("actions")
    laws = ps["action-laws"]
    enough = int(laws.detail.split()[0]) >= 10_000
    ok = all(p.ok for p in ps.values()) and enough
    _report(9, "action laws on >= 10^4 combinations + fixpoints", ok,
            laws.detail)


def test_criterion_10_grid_characterization():
    p = _props("clone")["either-equal-characterization"]
    _report(10, "preserves either-equal iff essentially unary", p.ok, p.detail)


def test_criterion_11_topology():
    ps = _props("topology")
    ok = all(p.ok for p in ps.values())
    _report(11, "ultrametric, lifted convergence, density witnesses", ok,
            "; ".join(p.detail for p in ps.values() if not p.ok))


def test_criterion_12_determinism(capsys):
    code_a = main(["suite", "all"])
    first = capsys.readouterr().out
    code_b = main(["suite", "all"])
    second = capsys.readouterr().out
    digests = json.loads(_DIGESTS.read_text())
    golden = hashlib.sha256(first.encode("utf-8")).hexdigest() == \
        digests["suite_all"][str(_CFG.seed)]
    ok = (code_a == 0 and code_b == 0 and first == second and len(first) > 0
          and golden)
    _report(12, "suite all twice: byte-identical, exit 0, recorded digest", ok,
            f"exit codes {code_a}/{code_b}, equal={first == second}, "
            f"digest matches={golden}")
