"""Piecewise map tests."""

import gc
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qendo import lazyiso
from qendo.endo import (
    Piece,
    PiecewiseEndo,
    _cut_cmp,
    _run_image,
    _tidy_pieces,
    cancellability_witness,
    classify,
    compose,
    constant_map,
    epi_mono_factorize,
    idempotent_with_image,
    identity_map,
    pseudo_section,
    right_inverse,
)
from qendo.lazyiso import FactorOrder
from qendo.ratcore import (
    Rat,
    RatInterval,
    intersect_intervals,
    merge_intervals,
    nth_rational,
    point_interval,
)

from util import affine_map, fractions_between, monotone_endos, wide_endos

SAMPLE = [nth_rational(i) for i in range(60)]

ONE_JUMP = PiecewiseEndo((
    Piece(RatInterval(None, F(0)), F(1), F(0)),
    Piece(RatInterval(F(0), None, True, False), F(1), F(1)),
))

STEP_FLAT = PiecewiseEndo((
    Piece(RatInterval(None, F(0)), F(1), F(0)),
    Piece(RatInterval(F(0), F(1), True, True), F(0), F(0)),
    Piece(RatInterval(F(1), None, False, False), F(1), F(-1)),
))


def test_eval_and_boundaries():
    assert ONE_JUMP.eval(F(-3)) == F(-3)
    assert ONE_JUMP.eval(F(0)) == F(1)
    assert ONE_JUMP.eval(F(1, 2)) == F(3, 2)
    assert STEP_FLAT.eval(F(1, 2)) == F(0)
    assert STEP_FLAT.eval(F(2)) == F(1)


def test_validation_rejects_bad_partitions():
    with pytest.raises(ValueError, match="unbounded below"):
        PiecewiseEndo((Piece(RatInterval(F(0), None, True, False), F(1), F(0)),))
    with pytest.raises(ValueError, match="exactly one"):
        PiecewiseEndo((
            Piece(RatInterval(None, F(0)), F(1), F(0)),
            Piece(RatInterval(F(0), None, False, False), F(1), F(0)),
        ))
    with pytest.raises(ValueError, match="decrease"):
        PiecewiseEndo((
            Piece(RatInterval(None, F(0)), F(1), F(0)),
            Piece(RatInterval(F(0), None, True, False), F(1), F(-5)),
        ))
    # a Rat slope skips conversion, so its sign is tested on its own
    for slope in (Rat(-1, 2), F(-1, 2), -1):
        with pytest.raises(ValueError, match="nonnegative"):
            Piece(RatInterval(None, None), slope, F(0))


def test_piece_keeps_its_coefficients_as_rat():
    for slope, intercept in ((F(1, 2), F(-3)), (2, -3), (Rat(2), Rat(-3, 4))):
        p = Piece(RatInterval(None, None), slope, intercept)
        assert type(p.slope) is Rat and type(p.intercept) is Rat
        assert (p.slope, p.intercept) == (slope, intercept)
    same = Rat(3, 4)
    assert Piece(RatInterval(None, None), same, same).slope is same


def test_canonical_absorbs_matching_point_piece():
    three = PiecewiseEndo((
        Piece(RatInterval(None, F(0)), F(1), F(0)),
        Piece(point_interval(F(0)), F(0), F(1)),
        Piece(RatInterval(F(0), None, False, False), F(1), F(1)),
    ))
    can = three.canonical()
    assert can == ONE_JUMP
    assert can.eval(F(0)) == F(1)


def test_canonical_merges_identical_formulas():
    split = PiecewiseEndo((
        Piece(RatInterval(None, F(3)), F(2), F(1)),
        Piece(RatInterval(F(3), None, True, False), F(2), F(1)),
    ))
    assert split.canonical() == affine_map(F(2), F(1))


@pytest.mark.parametrize("left_held, right_held, want", [
    # a flat neighbour takes the cut point
    ("(-inf,-1) : 0*x - 1\n[-1,0) : 2*x + 1\n[0,+inf) : 0*x + 4",
     "(-inf,-1] : 0*x - 1\n(-1,0) : 2*x + 1\n[0,+inf) : 0*x + 4",
     "(-inf,-1] : 0*x - 1\n(-1,0) : 2*x + 1\n[0,+inf) : 0*x + 4"),
    ("(-inf,0] : 1*x + 0\n(0,+inf) : 0*x + 0",
     "(-inf,0) : 1*x + 0\n[0,+inf) : 0*x + 0",
     "(-inf,0) : 1*x + 0\n[0,+inf) : 0*x + 0"),
    # between two sloped pieces the left one takes it
    ("(-inf,0] : 1*x + 0\n(0,+inf) : 2*x + 0",
     "(-inf,0) : 1*x + 0\n[0,+inf) : 2*x + 0",
     "(-inf,0] : 1*x + 0\n(0,+inf) : 2*x + 0"),
], ids=["flat-left", "flat-right", "sloped"])
def test_canonical_settles_cut_points_both_formulas_reach(left_held, right_held, want):
    f, g = PiecewiseEndo.parse(left_held), PiecewiseEndo.parse(right_held)
    assert f != g
    assert str(f.canonical()) == str(g.canonical()) == want


def test_text_roundtrip():
    text = str(ONE_JUMP)
    assert text == "(-inf,0) : 1*x + 0\n[0,+inf) : 1*x + 1"
    assert PiecewiseEndo.parse(text) == ONE_JUMP
    neg = affine_map(F(3, 2), F(-1, 4))
    assert "3/2*x - 1/4" in str(neg)
    assert PiecewiseEndo.parse(str(neg)) == neg


def test_parse_error_reports_line():
    with pytest.raises(ValueError, match="line 2"):
        PiecewiseEndo.parse("(-inf,+inf) : 1*x + 0\nnot a piece")


@pytest.mark.parametrize("formula", ["5", "-1/2", "2 + 1"])
def test_parse_rejects_a_formula_without_x(formula):
    # a bare constant is not read as a slope
    with pytest.raises(ValueError, match="line 1: cannot parse piece formula"):
        PiecewiseEndo.parse(f"(-inf,+inf) : {formula}")


def test_compose_exact():
    h = compose(ONE_JUMP, STEP_FLAT)
    for x in SAMPLE:
        assert h.eval(x) == ONE_JUMP.eval(STEP_FLAT.eval(x))


def test_compose_with_constants():
    c = constant_map(F(7, 3))
    assert compose(ONE_JUMP, c) == constant_map(ONE_JUMP.eval(F(7, 3)))
    assert compose(c, ONE_JUMP) == c


def test_classify_one_jump():
    report = classify(ONE_JUMP)
    assert report.kind.injective and not report.kind.surjective
    assert not report.kind.constant
    assert report.missing == (RatInterval(F(0), F(1), True, False),)
    assert report.non_surjective_value == F(1, 2)


def test_classify_plateau():
    report = classify(STEP_FLAT)
    assert not report.kind.injective and report.kind.surjective
    x1, x2 = report.non_injective_pair
    assert x1 != x2 and STEP_FLAT.eval(x1) == STEP_FLAT.eval(x2)


def test_classify_constant():
    report = classify(constant_map(F(5)))
    assert report.kind == type(report.kind)(constant=True, injective=False,
                                            surjective=False)
    assert report.constant_value == F(5)


def test_point_preimage():
    assert STEP_FLAT.point_preimage(F(0)) == RatInterval(F(0), F(1), True, True)
    assert STEP_FLAT.point_preimage(F(-2)) == point_interval(F(-2))
    assert ONE_JUMP.point_preimage(F(1, 2)) is None
    assert constant_map(F(1)).point_preimage(F(1)) == RatInterval(None, None)


def test_image_union():
    assert ONE_JUMP.image_union() == (
        RatInterval(None, F(0)), RatInterval(F(1), None, True, False))
    assert STEP_FLAT.image_union() == (RatInterval(None, None),)


def test_image_union_of_non_canonical_maps():
    # two equal plateaus side by side: one point of image
    twin = PiecewiseEndo.parse("(-inf,0) : 0*x + 2\n[0,+inf) : 0*x + 2")
    assert twin.image_union() == (point_interval(F(2)),)
    # a one-point piece at a jump, valued between the two sides: the
    # image is the lower ray, the point and the upper ray, apart
    jump = PiecewiseEndo.parse(
        "(-inf,0) : 1*x + 0\n[0,0] : 0*x + 1\n(0,+inf) : 1*x + 3")
    assert jump.image_union() == (RatInterval(None, F(0)), point_interval(F(1)),
                                  RatInterval(F(3), None))
    # the one-point piece valued at the upper side's open end joins it
    joined = PiecewiseEndo.parse(
        "(-inf,0) : 1*x + 0\n[0,0] : 0*x + 3\n(0,+inf) : 1*x + 3")
    assert joined.image_union() == (RatInterval(None, F(0)),
                                    RatInterval(F(3), None, True, False))
    for f in (twin, jump, joined):
        assert f.image_union() == merge_intervals([_run_image(p, p) for p in f.pieces])


def test_cancellability_witnesses():
    w = cancellability_witness(STEP_FLAT)
    assert w.right is None
    u, v = w.left
    assert u != v
    assert compose(STEP_FLAT, u) == compose(STEP_FLAT, v)

    w2 = cancellability_witness(ONE_JUMP)
    assert w2.left is None
    u2, v2 = w2.right
    assert u2 != v2
    assert compose(u2, ONE_JUMP) == compose(v2, ONE_JUMP)

    w3 = cancellability_witness(identity_map())
    assert w3.left is None and w3.right is None


def test_right_inverse_flat_step():
    h = right_inverse(STEP_FLAT)
    for y in SAMPLE:
        assert STEP_FLAT.eval(h.eval(y)) == y
    # the plateau [0,1] sections through its closed right end
    assert h.eval(F(0)) == F(1)


def test_right_inverse_requires_surjective():
    with pytest.raises(ValueError, match="1/2"):
        right_inverse(ONE_JUMP)


def test_pseudo_section_fills_gaps():
    s = pseudo_section(ONE_JUMP)
    # total even though the image has a gap ...
    for y in SAMPLE:
        s.eval(y)
    # ... and an exact section on the image itself
    for x in SAMPLE:
        y = ONE_JUMP.eval(x)
        assert ONE_JUMP.eval(s.eval(y)) == y


def test_idempotent_with_image():
    e = idempotent_with_image([F(-1), F(2), F(7, 2)])
    assert compose(e, e) == e.canonical()
    report = classify(e)
    assert [str(iv) for iv in report.image] == ["[-1,-1]", "[2,2]", "[7/2,7/2]"]
    for b in (F(-1), F(2), F(7, 2)):
        assert e.eval(b) == b
    with pytest.raises(ValueError, match="distinct"):
        idempotent_with_image([F(1), F(1)])


def test_epi_mono_factorization():
    fact = epi_mono_factorize(STEP_FLAT)
    for x in SAMPLE:
        assert fact.epi.eval(fact.mono.eval(x)) == STEP_FLAT.eval(x)
    # mono is strictly monotone, hence injective
    pts = sorted(SAMPLE)[:30]
    imgs = [fact.mono.eval(x) for x in pts]
    assert all(a < b for a, b in zip(imgs, imgs[1:]))
    # preimage really hits epi's fibres, including never-attained values
    for r in SAMPLE[:30]:
        assert fact.epi.eval(fact.preimage(r)) == r


def test_epi_mono_on_injective_map():
    fact = epi_mono_factorize(ONE_JUMP)
    for x in SAMPLE[:30]:
        assert fact.epi.eval(fact.mono.eval(x)) == ONE_JUMP.eval(x)
    for r in SAMPLE[:30]:
        assert fact.epi.eval(fact.preimage(r)) == r


def test_factor_order_memo_dump_golden():
    # plateau at 0 (fibre [0,1]), gap (0,2] never attained (pt fibres)
    h = PiecewiseEndo.parse("(-inf,0) : 1*x\n[0,1] : 0*x\n(1,+inf) : 1*x + 1\n")
    fact = epi_mono_factorize(h)
    for r in (F(0), F(1), F(5), F(-1, 2), F(2)):
        fact.preimage(r)
    for x in (F(7), F(-1, 3), F(5, 4)):
        fact.epi.eval(x)
    for x in (F(1, 2), F(3), F(-2)):
        fact.mono.eval(x)
    assert fact.theta.memo_dump() == (
        "-2 -> im:-2@-2, -1 -> im:-1/2@-1/2, -1/3 -> im:-1/3@-1/3, "
        "0 -> im:0@0, 1/2 -> im:0@1/2, 1 -> pt:1, 5/4 -> pt:3/2, "
        "3/2 -> pt:2, 5/3 -> im:4@3, 2 -> im:5@4, 7 -> im:6@5")


DRAW_LIMIT = 1000


@pytest.fixture
def limited_draws(monkeypatch):
    # lazyiso's rational streams, failing once they have yielded
    # DRAW_LIMIT rationals in all: an unbounded scan fails fast
    whole = lazyiso.enumerated_in_interval
    drawn = [0]

    def counted(*args):
        for x in whole(*args):
            drawn[0] += 1
            if drawn[0] > DRAW_LIMIT:
                raise AssertionError(f"drew more than {DRAW_LIMIT} rationals")
            yield x

    monkeypatch.setattr(lazyiso, "enumerated_in_interval", counted)


def test_forward_search_beside_a_deep_fibre_point_draws_few(limited_draws):
    # mono pins 60/61, deep in the plateau's fibre over 1/2, and 1; epi's
    # search at 1/2 then opens a gap whose lower end lies in that fibre
    h = PiecewiseEndo.parse("(-inf,0] : 1*x\n(0,1) : 0*x + 1/2\n[1,+inf) : 1*x\n")
    fact = epi_mono_factorize(h)
    x1, x2 = fact.mono.eval(F(60, 61)), fact.mono.eval(F(1))
    assert x1 < F(1, 2) < x2
    assert F(1, 2) <= fact.epi.eval(F(1, 2)) <= F(1)


def test_gap_inside_one_fibre_draws_few(limited_draws):
    # both ends deep in STEP_FLAT's fibre [0, 1] over 0
    order = FactorOrder(STEP_FLAT)
    lo, hi = (F(0), F(1, 41)), (F(0), F(1, 40))
    first = next(iter(order.enum_in_gap(lo, hi)))
    assert lo < first < hi and order.contains(first)


def test_factor_order_is_freed_without_the_cyclic_collector():
    # a FactorOrder holds no reference to itself, so dropping the
    # factorization frees the order and its fibre cache at once
    enabled = gc.isenabled()
    gc.disable()
    try:
        fac = epi_mono_factorize(STEP_FLAT)
        for x in SAMPLE[:10]:
            assert fac.epi.eval(fac.mono.eval(x)) == STEP_FLAT.eval(x)
        order = weakref.ref(fac.order)
        del fac
        assert order() is None
    finally:
        if enabled:
            gc.enable()


def test_self_canonical_map_is_freed_without_the_cyclic_collector():
    # a canonical form marks itself without a reference to itself, so
    # dropping a map and its canonical form frees both at once
    enabled = gc.isenabled()
    gc.disable()
    try:
        f = PiecewiseEndo.parse("(-inf,0) : 1*x\n[0,0] : 0*x\n(0,+inf) : 1*x\n")
        can = f.canonical()
        assert can is not f and can.canonical() is can
        refs = weakref.ref(f), weakref.ref(can)
        del f, can
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


def test_classified_map_is_freed_without_the_cyclic_collector():
    # the report stored on the canonical form holds no map, so it outlives
    # both maps and does not keep them alive
    enabled = gc.isenabled()
    gc.disable()
    try:
        f = PiecewiseEndo.parse("(-inf,0) : 1*x\n[0,0] : 0*x\n(0,+inf) : 1*x\n")
        report = classify(f)
        can = f.canonical()
        assert can is not f and classify(can) is report
        refs = weakref.ref(f), weakref.ref(can)
        del f, can
        assert [r() for r in refs] == [None, None]
        assert report.kind.injective and report.kind.surjective
    finally:
        if enabled:
            gc.enable()


# -- randomized structure ----------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(monotone_endos(), monotone_endos(),
       fractions_between(-10, 10, 12))
def test_compose_pointwise(f, g, x):
    assert compose(f, g).eval(x) == f.eval(g.eval(x))


@settings(max_examples=60, deadline=None)
@given(monotone_endos(),
       fractions_between(-10, 10, 12),
       fractions_between(-10, 10, 12))
def test_random_maps_weakly_monotone(f, x, y):
    if x <= y:
        assert f.eval(x) <= f.eval(y)


@settings(max_examples=60, deadline=None)
@given(monotone_endos(), fractions_between(-10, 10, 12))
def test_canonical_preserves_values(f, x):
    assert f.canonical().eval(x) == f.eval(x)


@settings(max_examples=40, deadline=None)
@given(monotone_endos(), fractions_between(-10, 10, 12))
def test_section_inverts_on_image(g, x):
    s = pseudo_section(g)
    y = g.eval(x)
    assert g.eval(s.eval(y)) == y


@settings(max_examples=40, deadline=None)
@given(monotone_endos())
def test_classification_consistent(f):
    report = classify(f)
    if report.non_injective_pair is not None:
        a, b = report.non_injective_pair
        assert a != b and f.eval(a) == f.eval(b)
    if report.non_surjective_value is not None:
        assert f.point_preimage(report.non_surjective_value) is None
    if report.kind.surjective:
        assert report.missing == ()


@settings(max_examples=60, deadline=None)
@given(st.one_of(wide_endos(), monotone_endos()))
def test_classify_is_computed_once_per_canonical_form(f):
    report = classify(f)
    assert classify(f.canonical()) is report
    assert classify(f) is report
    # a separately built copy computes its own report, and it is equal
    copy = PiecewiseEndo(f.pieces)
    assert copy is not f and classify(copy) == report
    # cancellability_witness gives the same witnesses on a map classified
    # first as on one it classifies itself
    fresh, classified = PiecewiseEndo(f.pieces), PiecewiseEndo(f.pieces)
    classify(classified)
    assert cancellability_witness(fresh) == cancellability_witness(classified)


def _compose_oracle(outer, inner):
    # every outer piece pulled back through every inner piece, then sorted:
    # quadratic, kept as the reference for compose's one-pass sweep
    pieces = []
    for pi in inner.pieces:
        if pi.slope == 0 or pi.interval.is_degenerate():
            v = pi.value_at(pi.interval.lo) if pi.interval.is_degenerate() else pi.intercept
            po = next(p for p in outer.pieces if p.interval.contains(v))
            pieces.append(Piece(pi.interval, Rat(0), po.value_at(v)))
            continue
        for po in outer.pieces:
            J = po.interval
            lo = None if J.lo is None else (J.lo - pi.intercept) / pi.slope
            hi = None if J.hi is None else (J.hi - pi.intercept) / pi.slope
            back = RatInterval(lo, hi, J.lo_closed, J.hi_closed)
            region = intersect_intervals(pi.interval, back)
            if region is None:
                continue
            pieces.append(Piece(region, po.slope * pi.slope,
                                po.slope * pi.intercept + po.intercept))
    pieces.sort(key=lambda p: (p.interval.lo is not None,
                               p.interval.lo if p.interval.lo is not None else 0,
                               not p.interval.lo_closed))
    return PiecewiseEndo(_tidy_pieces(pieces))


@settings(max_examples=150, deadline=None)
@given(wide_endos(), wide_endos())
def test_compose_matches_quadratic_oracle(f, g):
    for outer, inner in ((f, g), (g, f), (f, f)):
        got, want = compose(outer, inner), _compose_oracle(outer, inner)
        assert got == want
        assert str(got) == str(want)


def _cut_at_one(left_holds, left, right):
    # a map with one cut, at 1, held by the left piece or the right one
    return PiecewiseEndo.parse(
        f"(-inf,1{']' if left_holds else ')'} : {left}\n"
        f"{'(' if left_holds else '['}1,+inf) : {right}")


@pytest.mark.parametrize("outer_holds, inner_holds, top, bottom", [
    (True, True,
     "(-inf,1] : 2*x + 0\n(1,+inf) : 3*x + 25",
     "(-inf,1) : 0*x - 6\n[1,1] : 0*x + 2\n(1,+inf) : 3*x + 10"),
    (True, False,
     "(-inf,1) : 2*x + 0\n[1,+inf) : 3*x + 25",
     "(-inf,1] : 0*x - 6\n(1,+inf) : 3*x + 10"),
    # the one value of the image that the outer piece above 1 takes
    (False, True,
     "(-inf,1) : 2*x + 0\n[1,1] : 0*x + 13\n(1,+inf) : 3*x + 25",
     "(-inf,1) : 0*x - 6\n[1,+inf) : 3*x + 10"),
    (False, False,
     "(-inf,1) : 2*x + 0\n[1,+inf) : 3*x + 25",
     "(-inf,1] : 0*x - 6\n(1,+inf) : 3*x + 10"),
], ids=["closed-closed", "closed-open", "open-closed", "open-open"])
def test_compose_at_an_outer_cut_equal_to_an_image_end(outer_holds, inner_holds,
                                                       top, bottom):
    # the outer map cuts at 1, held by its left piece iff outer_holds; an
    # inner piece's image ends at 1, holding it iff inner_holds: at its top
    # (x on (-inf,1]) and at its bottom (x on [1,+inf))
    outer = _cut_at_one(outer_holds, "2*x", "3*x + 10")
    below = _cut_at_one(inner_holds, "1*x", "1*x + 5")
    above = _cut_at_one(not inner_holds, "0*x - 3", "1*x")
    for inner, want in ((below, top), (above, bottom)):
        got = compose(outer, inner)
        assert got == _compose_oracle(outer, inner)
        assert str(got) == str(_compose_oracle(outer, inner)) == want


# -- evaluation: one bisect over the cuts, one reduction ---------------------

def _piece_index_oracle(f, x):
    # a binary search over the pieces' intervals, one interval test per
    # step: kept as the reference for piece_index's bisect over the cuts
    pieces = f.pieces
    lo, hi = 0, len(pieces)
    while lo < hi:
        mid = (lo + hi) // 2
        iv = pieces[mid].interval
        if iv.contains(x):
            return mid
        if iv.lo is not None and (x < iv.lo or (x == iv.lo and not iv.lo_closed)):
            hi = mid
        else:
            lo = mid + 1
    raise AssertionError(f"partition does not cover {x}")


def _probes(f):
    # every cut, both sides of every cut, and beyond both ends; wide_endos
    # cuts are at least 1/12 apart
    cuts = sorted({p.interval.lo for p in f.pieces[1:]})
    if not cuts:
        return [Rat(0), Rat(-100), Rat(100)]
    eps = Rat(1, 1000)
    out = [cuts[0] - 7, cuts[-1] + 7]
    for c in cuts:
        out += [c - eps, c, c + eps]
    return out


@settings(max_examples=150, deadline=None)
@given(wide_endos())
def test_piece_index_and_eval_match_the_binary_search(f):
    for x in _probes(f):
        k = _piece_index_oracle(f, x)
        assert f.piece_index(x) == k
        p = f.pieces[k]
        assert f.eval(x) == p.slope * x + p.intercept


@settings(max_examples=60, deadline=None)
@given(wide_endos(), fractions_between(-30, 30, 12),
       st.integers(-30, 30))
def test_value_at_matches_the_formula(f, q, n):
    for p in f.pieces:
        for x in (Rat(q), F(q), n):
            got = p.value_at(x)
            assert type(got) is Rat
            assert got == p.slope * x + p.intercept


@settings(max_examples=80, deadline=None)
@given(wide_endos())
def test_factor_order_membership_matches_the_fibres(f):
    order, fibres = FactorOrder(f), FactorOrder(f)
    values = set()
    for y in _probes(f):
        q = f.eval(y)
        values.add(q)
        for r in (q, q + Rat(1, 7), q - 1):
            assert order.contains((r, y)) == fibres.fibre(r).contains(y)
            assert order.contains((r, y)) == (r == q)
    # a rational pair is decided by one evaluation, with no fibre built
    assert order._fibres == {}
    for q in values | {q + Rat(1, 7) for q in values}:
        attained = f.point_preimage(q) is not None
        assert order.contains((q, "pt")) == (not attained)
        assert order.contains((q, "pt")) == fibres.fibre(q).contains("pt")
    y = _probes(f)[0]
    q = f.eval(y)
    for el in (q, (q,), (q, y, y), [q, y], ("q", y), (q, "q"), (None, y)):
        assert not order.contains(el)


def _merged_solutions(f, q):
    # the solution set of f(x) = q as every piece's solutions, merged into
    # one interval
    parts = []
    for p in f.pieces:
        if p.slope == 0:
            if p.intercept == q:
                parts.append(p.interval)
        else:
            x = (q - p.intercept) / p.slope
            if p.interval.contains(x):
                parts.append(point_interval(x))
    if not parts:
        return None
    merged = merge_intervals(parts)
    assert len(merged) == 1
    return merged[0]


@settings(max_examples=150, deadline=None)
@given(st.one_of(wide_endos(), monotone_endos()))
def test_point_preimage_matches_the_merged_solutions(f):
    # values at the probes and at every piece's finite ends, and values
    # just beside them
    values = {f.eval(y) for y in _probes(f)}
    for p in f.pieces:
        values.update(p.value_at(x) for x in (p.interval.lo, p.interval.hi)
                      if x is not None)
    for q in values:
        for r in (q, q + Rat(1, 7), q - Rat(1, 1000)):
            assert f.point_preimage(r) == _merged_solutions(f, r)


# -- sections: one sweep over the canonical form ------------------------------

@settings(max_examples=60, deadline=None)
@given(st.one_of(wide_endos(), monotone_endos()))
def test_canonical_images_are_disjoint_and_rise(f):
    pieces = f.canonical().pieces
    for p in pieces:
        if p.interval.is_degenerate():
            assert p.slope == 0
    for left, right in zip(pieces, pieces[1:]):
        a, b = _run_image(left, left), _run_image(right, right)
        assert a.hi < b.lo or (a.hi == b.lo and a.hi_closed != b.lo_closed)


@settings(max_examples=100, deadline=None)
@given(st.one_of(wide_endos(), monotone_endos()))
def test_image_union_matches_the_merged_images(f):
    # the sort-and-merge image_union used before its one sweep
    for g in (f, f.canonical()):
        assert g.image_union() == merge_intervals([_run_image(p, p) for p in g.pieces])


# -- the integer comparison at a cut ------------------------------------------

_BIG = 10 ** 30
_COEFFICIENT = st.builds(F, st.integers(-_BIG, _BIG), st.integers(1, _BIG))
_SLOPE_BIG = st.one_of(st.just(F(0)), st.builds(F, st.integers(0, _BIG),
                                                   st.integers(1, _BIG)))


@settings(max_examples=300, deadline=None)
@given(_SLOPE_BIG, _COEFFICIENT, _SLOPE_BIG, _COEFFICIENT, _COEFFICIENT)
def test_cut_cmp_has_the_sign_of_the_difference(s, c, t, e, b):
    p = Piece(RatInterval(None, None), s, c)
    q = Piece(RatInterval(None, None), t, e)
    b = Rat(b)
    diff = p.value_at(b) - q.value_at(b)
    got = _cut_cmp(p, q, b)
    assert (got > 0) - (got < 0) == (diff > 0) - (diff < 0)
    assert _cut_cmp(p, p, b) == 0
    # two formulas through one value at b tie there
    r = Piece(RatInterval(None, None), t, p.value_at(b) - t * b)
    assert _cut_cmp(p, r, b) == 0


def test_a_tie_at_a_cut_is_accepted_and_the_least_drop_is_not():
    b = Rat(10 ** 18 + 1, 10 ** 18)
    tie = PiecewiseEndo((
        Piece(RatInterval(None, b), F(1), F(0)),
        Piece(RatInterval(b, None, True, False), F(2), -b),
    ))
    assert tie.eval(b) == b
    with pytest.raises(ValueError, match="values decrease across the boundary"):
        PiecewiseEndo((
            Piece(RatInterval(None, b), F(1), F(0)),
            Piece(RatInterval(b, None, True, False), F(2), -b - F(1, 10 ** 18)),
        ))


def _section_point_oracle(iv):
    if iv.is_degenerate():
        return iv.lo
    if iv.hi is not None and iv.hi_closed:
        return iv.hi
    if iv.lo is not None and iv.lo_closed:
        return iv.lo
    if iv.lo is None and iv.hi is None:
        return Rat(0)
    if iv.lo is None:
        return iv.hi - 1
    if iv.hi is None:
        return iv.lo + 1
    return (iv.lo + iv.hi) / 2


def _pseudo_section_oracle(g):
    # the frontier sweep pseudo_section used before it relied on the
    # canonical form's disjoint images: it clips overlapping images, skips
    # values already covered and patches one-point holes
    g = g.canonical()
    pieces = []
    frontier = None
    last_anchor = None
    for p in g.pieces:
        J = _run_image(p, p)
        if p.slope == 0 or p.interval.is_degenerate():
            v = J.lo
            sec = (p.interval.lo if p.interval.is_degenerate()
                   else _section_point_oracle(p.interval))
            if frontier is None:
                pieces.append(Piece(RatInterval(None, v), Rat(0), sec))
            else:
                fv, fcovered = frontier
                if fcovered and fv == v:
                    continue
                if fv < v:
                    pieces.append(Piece(RatInterval(fv, v, not fcovered, False),
                                        Rat(0), last_anchor))
            pieces.append(Piece(point_interval(v), Rat(0), sec))
            frontier = (v, True)
            last_anchor = sec
            continue
        lo, lo_closed = J.lo, J.lo_closed
        if frontier is not None:
            fv, fcovered = frontier
            if lo is None or lo < fv or (lo == fv and lo_closed and fcovered):
                lo, lo_closed = fv, not fcovered
            elif lo > fv:
                pieces.append(Piece(RatInterval(fv, lo, not fcovered, not lo_closed),
                                    Rat(0), last_anchor))
            elif lo == fv and not lo_closed and not fcovered:
                pieces.append(Piece(point_interval(fv), Rat(0), last_anchor))
        pieces.append(Piece(RatInterval(lo, J.hi, lo_closed, J.hi_closed),
                            1 / p.slope, -p.intercept / p.slope))
        frontier = None if J.hi is None else (J.hi, J.hi_closed)
        last_anchor = p.interval.hi
    if frontier is not None:
        fv, fcovered = frontier
        pieces.append(Piece(RatInterval(fv, None, not fcovered, False),
                            Rat(0), last_anchor))
    return PiecewiseEndo(_tidy_pieces(pieces))


@settings(max_examples=80, deadline=None)
@given(st.one_of(wide_endos(), monotone_endos()))
def test_pseudo_section_matches_the_frontier_oracle(g):
    got, want = pseudo_section(g), _pseudo_section_oracle(g)
    assert got == want
    assert str(got) == str(want)
