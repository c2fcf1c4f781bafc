"""Suite plumbing: generator flags, determinism, dispatch errors, the
property counter, and a golden report."""

import hashlib
import random

import pytest

from qendo import suites
from qendo.cli import main
from qendo.endo import classify
from qendo.ratcore import union_contains
from qendo.suites import (
    PropertyResult,
    RunConfig,
    SuiteResult,
    _Check,
    random_interval_union,
    random_monotone_endo,
    run_suite,
)


def test_generator_flags_hold():
    rng = random.Random("flags")
    for _ in range(60):
        f = random_monotone_endo(rng, injective=True)
        assert classify(f).kind.injective
    for _ in range(60):
        f = random_monotone_endo(rng, surjective=True)
        assert classify(f).kind.surjective


def test_generator_unrestricted_hits_every_kind():
    rng = random.Random("kinds")
    kinds = set()
    for _ in range(300):
        k = classify(random_monotone_endo(rng)).kind
        kinds.add((k.constant, k.injective, k.surjective))
    assert (True, False, False) in kinds     # constants occur
    assert any(inj for _, inj, _ in kinds)   # injective maps occur
    assert any(not inj and not const for const, inj, _ in kinds)


def test_interval_union_is_merged_and_usable():
    rng = random.Random("unions")
    for _ in range(40):
        ivs = random_interval_union(rng)
        assert len(ivs) >= 1
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi is not None and b.lo is not None
            assert a.hi <= b.lo
        # membership never raises
        union_contains(ivs, 0)


def test_run_suite_deterministic_dataclass():
    cfg = RunConfig()
    assert run_suite("sim", cfg) == run_suite("sim", cfg)


def test_run_suite_seed_flows_into_rng():
    a = run_suite("generic", RunConfig(seed=1))
    b = run_suite("generic", RunConfig(seed=2))
    # sample sizes depend on the seed, so the details differ
    assert a.properties[0].detail != b.properties[0].detail


def test_run_suite_seeds_each_suite_by_seed_and_name(monkeypatch):
    draws = []

    def spy(rng, cfg):
        draws.append(rng.random())
        return [PropertyResult("spy", True, "drew once")]

    monkeypatch.setitem(suites._SUITES, "sim", spy)
    assert run_suite("sim", RunConfig(seed=5)) == SuiteResult(
        "sim", (PropertyResult("spy", True, "drew once"),))
    assert draws == [random.Random("5:sim").random()]


def test_run_suite_unknown_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope")


def test_check_with_no_checks_fails():
    assert _Check("empty").result("nothing sampled") == PropertyResult(
        "empty", False, "nothing sampled; 0 failures")


def test_check_failure_count_and_ok_agree():
    check = _Check("p")
    assert all(check(True) for _ in range(3))
    assert check.result("three checks") == PropertyResult(
        "p", True, "three checks; 0 failures")
    assert check(False) is False
    check.count(5, 2)
    assert (check.checks, check.failures) == (9, 3)
    assert check.result("nine checks") == PropertyResult(
        "p", False, "nine checks; 3 failures")


def test_check_all_stops_after_the_first_failure():
    check = _Check("p")
    assert check.all([True, False, True]) is False
    assert (check.checks, check.failures) == (2, 1)


def test_check_all_over_nothing_records_nothing():
    check = _Check("p")
    assert check.all([]) is True
    assert (check.checks, check.failures) == (0, 0)
    assert not check.result("no samples").ok


def test_check_custom_noun_and_no_count():
    check = _Check("classes-convex")
    check(True)
    assert check.result("4000 triples", noun="convexity failures").detail == \
        "4000 triples; 0 convexity failures"
    assert check.result("no count", noun=None).detail == "no count"


def test_certificate_bound_failure_is_counted(monkeypatch):
    monkeypatch.setattr(suites, "_marker_bounds_ok", lambda cert, imgs: False)
    props = {p.name: p for p in run_suite("generic").properties}
    for variant in ("plus", "minus", "pm"):
        p = props[f"certificate-{variant}"]
        assert not p.ok
        assert p.detail.endswith("; 1 failures"), p.detail
    assert props["certificate-core"].ok


def test_rows_report_is_golden(capsys):
    assert main(["--seed", "7", "--format", "rows", "suite", "all"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == \
        "113c7d2716a942c8d76c8e800068044a5f404c0dcd59d421624b9837ae5b2500"
