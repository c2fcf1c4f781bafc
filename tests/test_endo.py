"""Piecewise map tests."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qendo.endo import (
    CancellabilityWitness,
    Piece,
    PiecewiseEndo,
    affine_map,
    cancellability_witness,
    classify,
    compose,
    constant_map,
    copoint_embedding,
    divide,
    epi_mono_factorize,
    idempotent_with_image,
    identity_map,
    pseudo_section,
    right_inverse,
)
from qendo.ratcore import RatInterval, nth_rational, point_interval

from util import monotone_endos

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
    with pytest.raises(ValueError, match="nonnegative"):
        Piece(RatInterval(None, None), F(-1), F(0))


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


def test_right_inverse_fixset():
    h = right_inverse(STEP_FLAT, fixset=[F(1, 3)])
    assert h.eval(STEP_FLAT.eval(F(1, 3))) == F(1, 3)
    for y in SAMPLE:
        assert STEP_FLAT.eval(h.eval(y)) == y


def test_pseudo_section_fills_gaps():
    s = pseudo_section(ONE_JUMP)
    # total even though the image has a gap ...
    for y in SAMPLE:
        s.eval(y)
    # ... and an exact section on the image itself
    for x in SAMPLE:
        y = ONE_JUMP.eval(x)
        assert ONE_JUMP.eval(s.eval(y)) == y


def test_divide_exact():
    e = idempotent_with_image([F(0), F(1)])
    f = constant_map(F(0))
    h = divide(f, e)
    assert compose(e, h) == f


def test_divide_witness():
    with pytest.raises(ValueError, match="1/2"):
        divide(identity_map(), ONE_JUMP)


def test_idempotent_with_image():
    e = idempotent_with_image([F(-1), F(2), F(7, 2)])
    assert compose(e, e) == e.canonical()
    report = classify(e)
    assert [str(iv) for iv in report.image] == ["[-1,-1]", "[2,2]", "[7/2,7/2]"]
    for b in (F(-1), F(2), F(7, 2)):
        assert e.eval(b) == b
    with pytest.raises(ValueError, match="distinct"):
        idempotent_with_image([F(1), F(1)])


def test_copoint_embedding():
    g = copoint_embedding(F(0))
    vals = [g.eval(x) for x in SAMPLE]
    assert F(0) not in vals
    for x1 in SAMPLE[:20]:
        for x2 in SAMPLE[:20]:
            if x1 < x2:
                assert g.eval(x1) < g.eval(x2)


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


# -- randomized structure ----------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(monotone_endos(), monotone_endos(),
       st.fractions(min_value=-10, max_value=10, max_denominator=12))
def test_compose_pointwise(f, g, x):
    assert compose(f, g).eval(x) == f.eval(g.eval(x))


@settings(max_examples=60, deadline=None)
@given(monotone_endos(),
       st.fractions(min_value=-10, max_value=10, max_denominator=12),
       st.fractions(min_value=-10, max_value=10, max_denominator=12))
def test_random_maps_weakly_monotone(f, x, y):
    if x <= y:
        assert f.eval(x) <= f.eval(y)


@settings(max_examples=60, deadline=None)
@given(monotone_endos(), st.fractions(min_value=-10, max_value=10,
                                      max_denominator=12))
def test_canonical_preserves_values(f, x):
    assert f.canonical().eval(x) == f.eval(x)


@settings(max_examples=40, deadline=None)
@given(monotone_endos(), st.fractions(min_value=-10, max_value=10,
                                      max_denominator=12))
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
