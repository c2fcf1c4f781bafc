"""Whole-process checks: reports that must not depend on the hash seed, the
demos' output frozen byte for byte in tests/golden/, and the exit status
when stdout is closed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _run(args, hashseed="0"):
    done = subprocess.run([sys.executable, *args], cwd=ROOT,
                          env=_env(PYTHONHASHSEED=hashseed),
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


def test_closed_stdout_exits_141_quietly():
    # The reader is gone before the report is written, as when `| head -1`
    # exits before the last write, so the write fails every time
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "qendo.cli", "suite", "all"],
                              cwd=ROOT, env=_env(), stdout=write_end,
                              stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")
