"""Command-line harness: frozen reports, exit codes, error surfacing."""

import random
from pathlib import Path

import pytest

from qendo import ratcore, suites
from qendo.actions import LabelledForest
from qendo.cli import main
from qendo.endo import PiecewiseEndo

STEP_MAP = "(-inf,0) : 1*x + 0\n[0,+inf) : 1*x + 1\n"
IDENTITY_MAP = "(-inf,+inf) : 1*x\n"
PLATEAU_MAP = "(-inf,0) : 1*x\n[0,1] : 0*x\n(1,+inf) : 1*x - 1\n"
CONSTANT_MAP = "(-inf,+inf) : 0*x + 2\n"
BAD_MAP = "(-inf,0) : 1*x\nwhat is this\n"
BARE_CONSTANT_MAP = "(-inf,+inf) : 5\n"
CHAIN_FOREST = "root - 0\nmid root 1\ntop mid 2\n"
BAD_ROOT_FOREST = "root - 1\nmid root 2\n"


def readme_block(heading):
    """The first fenced block after a heading in README's File formats."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    after = text[text.index(heading):]
    return after.split("```\n")[1]


README_MAP = readme_block("**Map files**")
README_FOREST = readme_block("**Forest files**")


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return write


def test_classify_step_map(files, capsys):
    # image misses exactly [0,1): the two sloped pieces cover (-inf,0) and
    # [1,+inf), nothing else
    code = main(["classify", files("step.map", STEP_MAP)])
    out = capsys.readouterr().out
    assert code == 0
    assert "classification: injective, not surjective; missing [0,1)" in out
    assert "image: (-inf,0) u [1,+inf)" in out
    assert "value never attained: 1/2" in out
    assert "left-cancellation witness: none (map is injective)" in out
    assert "differing at 1/2" in out


def test_classify_identity(files, capsys):
    code = main(["classify", files("id.map", IDENTITY_MAP)])
    out = capsys.readouterr().out
    assert code == 0
    assert "classification: automorphism" in out
    assert "image: (-inf,+inf)" in out
    assert "none (map is injective)" in out
    assert "none (map is surjective)" in out


def test_classify_plateau(files, capsys):
    # continuous with a flat step: surjective but collapses [0,1]
    code = main(["classify", files("plateau.map", PLATEAU_MAP)])
    out = capsys.readouterr().out
    assert code == 0
    assert "classification: surjective, not injective" in out
    assert "collapsing pair:" in out
    assert "left-cancellation witness: constants at" in out
    assert "right-cancellation witness: none (map is surjective)" in out


def test_classify_constant(files, capsys):
    code = main(["classify", files("c.map", CONSTANT_MAP)])
    out = capsys.readouterr().out
    assert code == 0
    assert "classification: constant at 2; missing (-inf,2) u (2,+inf)" in out


def test_classify_parse_error_names_line(files, capsys):
    code = main(["classify", files("bad.map", BAD_MAP)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_classify_rejects_a_bare_constant(files, capsys):
    code = main(["classify", files("c.map", BARE_CONSTANT_MAP)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "line 1: cannot parse piece formula" in captured.err


def test_readme_examples_parse_with_trailing_comments():
    assert "# a plateau" in README_MAP
    f = PiecewiseEndo.parse(README_MAP)
    assert [str(p.interval) for p in f.pieces] == ["(-inf,0)", "[0,1]", "(1,+inf)"]
    forest = LabelledForest.parse(README_FOREST + "leaf top 3   # a comment\n")
    assert forest.label["leaf"] == 3


def test_classify_readme_map(files, capsys):
    code = main(["classify", files("readme.map", README_MAP)])
    out = capsys.readouterr().out
    assert code == 0
    assert "classification: neither injective nor surjective; missing [0,1)" in out


def test_factorize_plateau(files, capsys):
    code = main(["factorize", files("plateau.map", PLATEAU_MAP)])
    out = capsys.readouterr().out
    assert code == 0
    assert "spread part strictly monotone: yes" in out
    assert "composite verified on 300 points" in out
    assert "memo snapshot:" in out


def test_factorize_identity_and_constant(files, capsys):
    assert main(["factorize", files("id.map", IDENTITY_MAP)]) == 0
    out = capsys.readouterr().out
    assert "composite verified on 300 points" in out
    assert main(["factorize", files("c.map", CONSTANT_MAP)]) == 0
    out = capsys.readouterr().out
    # even a constant factors through a strictly monotone spread part
    assert "spread part strictly monotone: yes" in out
    assert "composite verified on 300 points" in out


def test_factorize_respects_budget(files, capsys):
    code = main(["--budget", "50", "factorize", files("id.map", IDENTITY_MAP)])
    out = capsys.readouterr().out
    assert code == 0
    assert "composite verified on 50 points" in out


def test_factorize_reports_real_sample_count(files, capsys):
    code = main(["--budget", "10", "factorize", files("id.map", IDENTITY_MAP)])
    out = capsys.readouterr().out
    assert code == 0
    assert "spread part strictly monotone: yes (10 sorted samples)" in out
    assert "composite verified on 10 points" in out


def test_factorize_zero_budget_is_not_verified(files, capsys):
    code = main(["--budget", "0", "factorize", files("id.map", IDENTITY_MAP)])
    out = capsys.readouterr().out
    assert code == 1
    assert "spread part strictly monotone: not checked (needs 2 samples, has 0)" in out
    assert "composite not verified (0 points)" in out
    assert "verified on 0" not in out


@pytest.mark.parametrize("argv", [
    ["--budget", "-5", "factorize", "id.map"],
    ["--budget", "-1", "suite", "sim"],
    ["generic", "core", "--points", "-3"],
])
def test_negative_counts_rejected_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_depth_flag_is_rejected(capsys):
    # the probe depth is fixed at topology.N_MAX; no flag sets it
    with pytest.raises(SystemExit) as exc:
        main(["--depth", "0", "suite", "topology"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "qendo: error:" in captured.err


def test_suite_pass_and_exit_zero(capsys):
    code = main(["suite", "sim"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 2
    assert "result: PASS" in out
    assert "[FAIL]" not in out


def test_suite_header_reflects_config(capsys):
    code = main(["--seed", "7", "--budget", "10", "suite", "sim"])
    out = capsys.readouterr().out
    assert code == 0
    assert "suite sim (seed=7, budget=10, depth=2048)" in out


def test_suite_rows_format(capsys):
    code = main(["--format", "rows", "suite", "sim"])
    out = capsys.readouterr().out
    assert code == 0
    line = out.splitlines()[0]
    assert line.split("\t")[:3] == ["sim", "equivalence-laws", "pass"]


def test_suite_deterministic_report(capsys):
    main(["suite", "sim"])
    first = capsys.readouterr().out
    main(["suite", "sim"])
    second = capsys.readouterr().out
    assert first == second


def test_suite_unknown_name(capsys):
    code = main(["suite", "nosuch"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown suite" in err


def test_suite_actions_rejects_bad_forest(files, capsys):
    code = main(["suite", "actions",
                 "--forest", files("bad.forest", BAD_ROOT_FOREST)])
    err = capsys.readouterr().err
    assert code == 2
    assert "root 'root' must carry label 0" in err


def test_suite_rejects_a_label_above_the_orbit_draw(files, capsys):
    # an orbit point at a node labelled n holds n distinct draws, and the
    # draw takes ORBIT_RANK_LIMIT values: a larger label is refused before
    # any suite runs, and a label at the limit runs
    limit = suites.ORBIT_RANK_LIMIT
    rng = random.Random(0)
    drawn = {suites.random_fraction(rng, *suites.ORBIT_DRAW) for _ in range(5000)}
    assert len(drawn) == limit == 73
    code = main(["suite", "all",
                 "--forest", files("big.forest", "r - 0\nbig r 200\n")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "node 'big' has label 200" in err and f"at most {limit}" in err
    code = main(["suite", "actions",
                 "--forest", files("edge.forest", f"r - 0\nedge r {limit}\n")])
    assert code == 0
    assert "across 4 forests" in capsys.readouterr().out


def test_suite_actions_takes_extra_forest(files, capsys):
    code = main(["suite", "actions",
                 "--forest", files("chain.forest", CHAIN_FOREST)])
    out = capsys.readouterr().out
    assert code == 0
    assert "across 4 forests" in out


def test_suite_forest_keeps_the_global_flags(files, capsys):
    code = main(["--seed", "7", "--budget", "10", "suite", "actions",
                 "--forest", files("chain.forest", CHAIN_FOREST)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("suite actions (seed=7, budget=10, depth=2048)\n")
    assert "across 4 forests" in out


def test_act_same_size_image(files, capsys):
    code = main(["act", files("chain.forest", CHAIN_FOREST),
                 files("step.map", STEP_MAP), "top", "0,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "(top; {0, 1}) -> (top; {1, 2})"


def test_act_collapse_descends(files, capsys):
    code = main(["act", files("chain.forest", CHAIN_FOREST),
                 files("c.map", CONSTANT_MAP), "top", "0,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "(top; {0, 1}) -> (mid; {2})"


def test_act_wrong_point_size(files, capsys):
    code = main(["act", files("chain.forest", CHAIN_FOREST),
                 files("id.map", IDENTITY_MAP), "top", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "needs 2 elements" in err


@pytest.mark.parametrize("values, repeated", [
    ("0,0", "0"), ("0,0/5", "0"), ("1/2, 2/4", "1/2"), ("3,1,3", "3")])
def test_act_rejects_a_repeated_value(files, capsys, values, repeated):
    code = main(["act", files("chain.forest", CHAIN_FOREST),
                 files("id.map", IDENTITY_MAP), "top", values])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: value {repeated} is repeated in the set {values!r}\n")

def test_generic_report(capsys):
    code = main(["generic", "core", "--points", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "certified generic embedding, variant core" in out
    assert out.count("(red)") == 4
    assert "memo snapshot:" in out


def test_generic_deterministic(capsys):
    main(["generic", "pm", "--points", "6"])
    first = capsys.readouterr().out
    main(["generic", "pm", "--points", "6"])
    second = capsys.readouterr().out
    assert first == second
    assert out_count_red(first) == 6


def out_count_red(text: str) -> int:
    return text.count("(red)")


def test_exhausted_search_exits_3(monkeypatch, capsys):
    # with a negative cap the back-and-forth may scan no candidate at all
    monkeypatch.setattr(ratcore, "SEARCH_CAP", -1)
    code = main(["generic", "core", "--points", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: back-and-forth search for a partner of ")
    assert "SEARCH_CAP=-1 in the gap" in captured.err
