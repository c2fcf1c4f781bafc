"""Whole-process checks: reports that must not depend on the hash seed, and
the demos' output frozen byte for byte in tests/golden/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(args, hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode(errors="replace")
    return done.stdout


@pytest.mark.parametrize("argv", [
    ["--format", "rows", "suite", "generic"],
    ["generic", "pm", "--points", "40"],
], ids=["suite-generic-rows", "generic-pm"])
def test_report_does_not_depend_on_hash_seed(argv):
    # Marker hashes by its name string, so a set or dict of class indices
    # that held markers could iterate differently from one process to the
    # next
    first = _run(["-m", "qendo.cli", *argv], hashseed="0")
    assert first
    assert _run(["-m", "qendo.cli", *argv], hashseed="1") == first


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo):
    golden = ROOT / "tests" / "golden" / f"{demo.stem}.txt"
    assert _run([str(demo)]) == golden.read_bytes()
