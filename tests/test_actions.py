"""Forest-action tests."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qendo import actions
from qendo.actions import (
    MAX_FAILURE_MESSAGES,
    ActionReport,
    ForestError,
    LabelledForest,
    OrbitPoint,
    act,
    fixpoint_check,
    verify_action,
)
from qendo.endo import (
    ComposedEndo,
    LazyEndo,
    Piece,
    PiecewiseEndo,
    compose,
    constant_map,
    idempotent_with_image,
    identity_map,
)
from qendo.ratcore import Rat, RatInterval
from qendo.suites import _forest_corpus
from qendo.topology import automorphism_near

from util import affine_map, fractions_between, monotone_endos

CHAIN = LabelledForest.from_rows(
    [("root", None, 0), ("mid", "root", 1), ("top", "mid", 2)])

BRANCHED = LabelledForest.from_rows(
    [("r", None, 0), ("a", "r", 1), ("b", "r", 2)])

SKIPPY = LabelledForest.from_rows(
    [("r", None, 0), ("m", "r", 2), ("t", "m", 4)])

TOP_01 = OrbitPoint("top", (F(0), F(1)))


def staircase(*cut_values):
    """Weakly monotone map collapsing onto the given values via cuts."""
    return idempotent_with_image([F(v) for v in cut_values])


# -- forest validation --------------------------------------------------------

def test_forest_rejects_duplicate_node():
    with pytest.raises(ForestError, match="twice"):
        LabelledForest.from_rows([("a", None, 0), ("a", None, 0)])


def test_forest_rejects_unknown_parent():
    with pytest.raises(ForestError, match="not a node"):
        LabelledForest.from_rows([("a", "ghost", 0)])


def test_forest_rejects_cycle():
    with pytest.raises(ForestError, match="cycle"):
        LabelledForest.from_rows([("a", "b", 1), ("b", "a", 2)])


def test_forest_rejects_nonincreasing_labels():
    with pytest.raises(ForestError, match="exceed"):
        LabelledForest.from_rows([("r", None, 0), ("c", "r", 0)])


def test_forest_rejects_root_without_label_zero():
    with pytest.raises(ForestError, match="label 0"):
        LabelledForest.from_rows([("r", None, 1)])


def test_forest_rejects_negative_label():
    with pytest.raises(ForestError, match="natural"):
        LabelledForest.from_rows([("r", None, -1)])


def test_forest_text_roundtrip():
    text = "root - 0\nmid root 1\ntop mid 2"
    forest = LabelledForest.parse(text)
    assert str(forest) == text
    assert forest.ancestry("top") == ["top", "mid", "root"]


def test_forest_parse_errors_name_line():
    with pytest.raises(ForestError, match="line 2"):
        LabelledForest.parse("r - 0\nbad line")


def test_cascade_safety_predicate():
    assert CHAIN.is_cascade_safe()
    assert BRANCHED.is_cascade_safe()
    assert not SKIPPY.is_cascade_safe()


# -- acting --------------------------------------------------------------------

def test_act_identity_fixes_point():
    assert act(CHAIN, identity_map(), TOP_01) == TOP_01


def test_act_constant_descends_to_rank_one():
    q = act(CHAIN, constant_map(F(5)), TOP_01)
    assert q == OrbitPoint("mid", (F(5),))


def test_act_injective_stays_at_node():
    q = act(CHAIN, affine_map(F(1), F(1)), TOP_01)
    assert q == OrbitPoint("top", (F(1), F(2)))


def test_act_rejects_invalid_point():
    with pytest.raises(ForestError, match="needs 2 elements"):
        act(CHAIN, identity_map(), OrbitPoint("top", (F(0),)))
    with pytest.raises(ForestError, match="unknown node"):
        act(CHAIN, identity_map(), OrbitPoint("nowhere", ()))


def test_orbit_point_canonicalizes():
    p = OrbitPoint("top", (F(1), F(0)))
    assert p.B == (F(0), F(1))
    assert str(p) == "(top; {0, 1})"
    with pytest.raises(ValueError, match=r"^value 1 is repeated$"):
        OrbitPoint("top", (F(1), F(0), F(1)))


@pytest.mark.parametrize("values, stored", [
    pytest.param((), (), id="empty"),
    pytest.param((F(0), F(1), F(5, 2)), (F(0), F(1), F(5, 2)), id="increasing"),
    pytest.param((F(5, 2), F(0), F(1)), (F(0), F(1), F(5, 2)), id="unsorted"),
    pytest.param([F(1), 0], (F(0), F(1)), id="list"),
    pytest.param({F(1), F(-2), F(1, 3)}, (F(-2), F(1, 3), F(1)), id="set"),
    pytest.param(range(3, 0, -1), (F(1), F(2), F(3)), id="range"),
])
def test_orbit_point_takes_any_iterable_and_stores_rats(values, stored):
    p = OrbitPoint("n", values)
    assert type(p.B) is tuple and p.B == stored
    assert all(type(v) is Rat for v in p.B)


@pytest.mark.parametrize("values, dup", [
    pytest.param((F(0), F(1), F(1)), "1", id="neighbours-sorted"),
    pytest.param((F(1), F(1), F(0)), "1", id="neighbours-unsorted"),
    pytest.param((F(1), F(0), F(1)), "1", id="apart"),
    pytest.param([F(1), F(2), F(0), 1], "1", id="apart-list-int"),
    pytest.param((F(3), F(1), F(1), F(3)), "1", id="first-in-order-given"),
    pytest.param((F(3), F(1), F(3), F(1)), "3", id="not-the-least-repeat"),
])
def test_orbit_point_names_the_first_repeated_value(values, dup):
    # the first value, in the order given, that equals an earlier one
    with pytest.raises(ValueError, match=rf"^value {dup} is repeated$"):
        OrbitPoint("n", values)


def _act_by_set_and_sort(forest, f, p):
    # the reference: hash every image, then sort the distinct ones
    actions._validate_point(forest, p)
    image = sorted({f.eval(b) for b in p.B})
    for node in forest.ancestry(p.node):
        if forest.label[node] <= len(image):
            return OrbitPoint(node, tuple(image[: forest.label[node]]))
    raise AssertionError("unreachable: roots have rank 0")


_ACT_MAPS = st.one_of(
    monotone_endos(),
    st.tuples(monotone_endos(), monotone_endos()).map(ComposedEndo),
    monotone_endos().map(lambda g: LazyEndo(g.eval)),
    st.just(LazyEndo(lambda x: Rat(x.numerator // x.denominator))),
)


@st.composite
def _corpus_points(draw):
    forest = draw(st.sampled_from(_forest_corpus()))
    node = draw(st.sampled_from(forest.nodes()))
    rank = forest.label[node]
    B = draw(st.sets(fractions_between(-4, 4, 3), min_size=rank, max_size=rank))
    return forest, OrbitPoint(node, B)


@settings(max_examples=150, deadline=None)
@given(_ACT_MAPS, _corpus_points())
def test_act_matches_the_set_and_sort_reference(f, case):
    forest, p = case
    q = act(forest, f, p)
    assert q == _act_by_set_and_sort(forest, f, p)
    assert all(type(v) is Rat for v in q.B)


@pytest.mark.parametrize("f, where", [
    pytest.param(LazyEndo(lambda x: -x), "1", id="negation"),
    pytest.param(LazyEndo(lambda x: x if x < 1 else x - 5), "1", id="drop"),
])
def test_act_raises_where_the_map_decreases(f, where):
    with pytest.raises(ValueError, match=rf"^the map decreases at {where}: "):
        act(CHAIN, f, TOP_01)


@settings(max_examples=60, deadline=None)
@given(monotone_endos(),
       st.sets(fractions_between(-8, 8, 6), min_size=2, max_size=2))
def test_same_size_image_stays_at_node(f, bset):
    p = OrbitPoint("top", tuple(bset))
    imgs = {f.eval(b) for b in p.B}
    q = act(CHAIN, f, p)
    if len(imgs) == len(p.B):
        assert q.node == "top" and set(q.B) == imgs
    assert q.node in CHAIN.ancestry("top")
    assert set(q.B) <= imgs


@settings(max_examples=40, deadline=None)
@given(monotone_endos(),
       st.sets(fractions_between(-3, 3, 4), min_size=2, max_size=2))
def test_maps_agreeing_on_b_act_equally(f, bset):
    p = OrbitPoint("top", tuple(bset))
    pinned = compose(f, idempotent_with_image(p.B))
    for b in p.B:
        assert pinned.eval(b) == f.eval(b)
    assert act(CHAIN, pinned, p) == act(CHAIN, f, p)


def test_containment_examples():
    assert set(act(CHAIN, constant_map(F(5)), TOP_01).B) <= {F(5)}
    trio = LabelledForest.from_rows(
        [("r", None, 0), ("m", "r", 2), ("t", "m", 3)])
    p = OrbitPoint("t", (F(0), F(1), F(2)))
    collapse = staircase(0, 1)  # sends 2 onto 1
    q = act(trio, collapse, p)
    assert q == OrbitPoint("m", (F(0), F(1)))
    assert set(q.B) <= {collapse.eval(b) for b in p.B}


# -- the action laws -----------------------------------------------------------

SMALL_CORPUS = [
    identity_map(),
    constant_map(F(5)),
    affine_map(F(1), F(1)),
    affine_map(F(2), F(-3)),
    staircase(0, 1),
    staircase(-2, 0, 2),
]

POINTS = [
    OrbitPoint("root", ()),
    OrbitPoint("mid", (F(7),)),
    TOP_01,
    OrbitPoint("top", (F(-1), F(1, 2))),
]


def test_verify_action_on_safe_chain():
    report = verify_action(CHAIN, SMALL_CORPUS, POINTS)
    assert report.ok
    assert report.checks == len(POINTS) + len(SMALL_CORPUS) ** 2 * len(POINTS)
    assert "all hold" in str(report)


def test_verify_action_on_branching_forest():
    points = [OrbitPoint("r", ()), OrbitPoint("a", (F(3),)),
              OrbitPoint("b", (F(0), F(4)))]
    assert verify_action(BRANCHED, SMALL_CORPUS, points).ok


def _rank_skip_counterexample():
    # rank-4 point; g collapses four points to three, f then merges the
    # bottom two.  Stepwise the intermediate truncation to rank 2 loses the
    # third point, so the two routes land on different nodes.
    p = OrbitPoint("t", (F(0), F(1), F(2), F(3)))
    g = staircase(0, 1, 2)      # {0,1,2,3} -> {0,1,2}
    f = PiecewiseEndo((
        Piece(RatInterval(None, F(1), False, True), F(0), F(0)),
        Piece(RatInterval(F(1), None, False, False), F(1), F(0)),
    ))                          # {0,1,2} -> {0,2}, {0,1} -> {0}
    return f, g, p


def test_composition_fails_on_rank_skipping_forest():
    f, g, p = _rank_skip_counterexample()
    stepwise = act(SKIPPY, f, act(SKIPPY, g, p))
    composite = act(SKIPPY, ComposedEndo((f, g)), p)
    assert act(SKIPPY, g, p) == OrbitPoint("m", (F(0), F(1)))
    assert stepwise == OrbitPoint("r", ())
    assert composite == OrbitPoint("m", (F(0), F(2)))
    report = verify_action(SKIPPY, [f, g], [p])
    assert not report.ok
    assert any("composition law" in msg for msg in report.failures)


def test_verify_action_counts_failures_beyond_the_kept_messages():
    f, g, p = _rank_skip_counterexample()
    report = verify_action(SKIPPY, [f, g] * 7, [p])
    # f after g fails at every pair of positions (7 x 7); nothing else does
    assert str(report).splitlines()[0] == "197 action-law checks: 49 failures"
    assert report.failed == 49
    assert len(report.failures) == MAX_FAILURE_MESSAGES



def _verify_action_recomputing(forest, fs, points):
    # verify_action as it was before it kept act(g, p) between passes:
    # every pass recomputes act(forest, g, p).  It calls actions.act, so a
    # patched act sees its calls too.
    act = actions.act
    ident = identity_map()
    checks = failed = 0
    failures = []

    def note(msg):
        nonlocal failed
        failed += 1
        if len(failures) < MAX_FAILURE_MESSAGES:
            failures.append(msg)

    for p in points:
        checks += 1
        q = act(forest, ident, p)
        if q != p:
            note(f"identity law: {p} became {q}")
    for i, f in enumerate(fs):
        for j, g in enumerate(fs):
            fg = ComposedEndo((f, g))
            for p in points:
                checks += 1
                two_step = act(forest, f, act(forest, g, p))
                one_step = act(forest, fg, p)
                if two_step != one_step:
                    note(
                        f"composition law at {p} with maps #{i} after #{j}: "
                        f"stepwise {two_step}, composite {one_step}")
    return ActionReport(checks, failed, tuple(failures))


def lazy_corpus():
    """Fresh maps, two of them lazily built: their values depend on the
    order in which they are asked for."""
    return [automorphism_near(affine_map(F(1, 2), F(3)), 3), staircase(0, 1),
            constant_map(F(5)), automorphism_near(affine_map(F(2), F(-1)), 4),
            affine_map(F(1), F(1))]


def action_cases():
    f, g, p = _rank_skip_counterexample()
    return [
        (CHAIN, lambda: SMALL_CORPUS, POINTS),
        (SKIPPY, lambda: [f, g], [p]),
        (SKIPPY, lambda: [f, g] * 7, [p]),
        (CHAIN, lazy_corpus, POINTS),
    ]


class Recording:
    """Wraps a map, logging (map number, argument, value) per evaluation."""

    def __init__(self, n, inner, log):
        self.n, self.inner, self.log = n, inner, log

    def eval(self, x):
        y = self.inner.eval(x)
        self.log.append((self.n, x, y))
        return y


def _first_evaluations(log):
    # the order in which each (map, argument) is first asked for: what a
    # lazily built map's values depend on
    seen = set()
    out = []
    for n, x, y in log:
        if (n, x) not in seen:
            seen.add((n, x))
            out.append((n, x, y))
    return out


@pytest.mark.parametrize("case", range(4))
def test_verify_action_matches_recomputing_every_pass(case):
    forest, corpus, points = action_cases()[case]
    assert verify_action(forest, corpus(), points) == \
        _verify_action_recomputing(forest, corpus(), points)


@pytest.mark.parametrize("case", range(4))
def test_verify_action_evaluates_each_map_in_the_recomputing_order(case):
    forest, corpus, points = action_cases()[case]
    logs = []
    for run in (verify_action, _verify_action_recomputing):
        log = []
        run(forest, [Recording(n, m, log) for n, m in enumerate(corpus())], points)
        logs.append(log)
    kept, recomputed = logs
    assert _first_evaluations(kept) == _first_evaluations(recomputed)
    assert set(kept) == set(recomputed)
    assert len(kept) < len(recomputed)  # the repeats are what was dropped


def test_verify_action_acts_once_per_map_and_point(monkeypatch):
    calls = []

    def counting_act(forest, f, p):
        calls.append(f)
        return act(forest, f, p)

    monkeypatch.setattr(actions, "act", counting_act)
    nf, np_ = len(SMALL_CORPUS), len(POINTS)
    verify_action(CHAIN, SMALL_CORPUS, POINTS)
    assert len(calls) == np_ + nf * np_ + 2 * nf * nf * np_
    calls.clear()
    _verify_action_recomputing(CHAIN, SMALL_CORPUS, POINTS)
    assert len(calls) == np_ + 3 * nf * nf * np_

# -- fixpoints ------------------------------------------------------------------

def test_fixpoint_for_rank_two_point():
    h = fixpoint_check(CHAIN, TOP_01)
    assert act(CHAIN, h, TOP_01) == TOP_01
    assert compose(h, h).canonical() == h.canonical()
    assert classify_image_is(h, (F(0), F(1)))


def classify_image_is(h, points):
    from qendo.endo import classify
    image = classify(h).image
    return all(iv.is_degenerate() for iv in image) and \
        tuple(iv.lo for iv in image) == points


def test_fixpoint_for_rank_one_point():
    p = OrbitPoint("mid", (F(7),))
    h = fixpoint_check(CHAIN, p)
    assert h.eval(F(123)) == F(7)
    assert act(CHAIN, h, p) == p


def test_fixpoint_for_rank_zero_point():
    p = OrbitPoint("root", ())
    h = fixpoint_check(CHAIN, p)
    assert act(CHAIN, h, p) == p
    assert classify_image_is(h, (F(0),))
