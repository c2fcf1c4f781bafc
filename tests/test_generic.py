"""Certified generic embedding tests."""

import itertools
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qendo import generic, lazyiso
from qendo.endo import PiecewiseEndo, affine_map, constant_map, identity_map
from qendo.generic import (
    EQUAL_VERDICT,
    PPair,
    PPairError,
    absorb,
    class_info,
    compose_certified,
    extend_pair,
    generic_embedding,
    p_check,
    recover_witness,
    sim_related,
)
from qendo.lazyiso import Marker
from qendo.partialmap import EMPTY_MAP, FinitePartialMap
from qendo.ratcore import Colour, RatInterval, SearchExhausted, nth_rational

SAMPLE = [nth_rational(i) for i in range(40)]

HALF_LINE_IMAGE = (RatInterval(None, F(0)), RatInterval(F(1), None, True, False))


def test_sim_related_interval_union():
    assert sim_related(HALF_LINE_IMAGE, F(1, 5), F(4, 5))
    assert not sim_related(HALF_LINE_IMAGE, F(-1), F(2))
    assert sim_related(HALF_LINE_IMAGE, F(7), F(7))
    # the endpoint 1 itself is not strictly between 1/2 and 1
    assert sim_related(HALF_LINE_IMAGE, F(1, 2), F(1))
    assert not sim_related(HALF_LINE_IMAGE, F(-1), F(-1, 2))


def test_sim_related_counts_isolated_points():
    A = (RatInterval(F(0), F(0), True, True), RatInterval(F(1), F(1), True, True))
    assert sim_related(A, F(-1), F(1, 2))   # one point (0) in between
    assert not sim_related(A, F(-1), F(2))  # two points in between
    assert sim_related(A, F(1, 4), F(3, 4))


UNION_CORPUS = [
    HALF_LINE_IMAGE,
    (RatInterval(None, None),),
    (RatInterval(None, F(-1)), RatInterval(F(0), F(1)), RatInterval(F(2), None)),
    (RatInterval(None, F(0)), RatInterval(F(0), None, False, False)),
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(UNION_CORPUS),
       st.fractions(min_value=-4, max_value=4, max_denominator=8),
       st.fractions(min_value=-4, max_value=4, max_denominator=8),
       st.fractions(min_value=-4, max_value=4, max_denominator=8))
def test_sim_is_an_equivalence(A, x, y, z):
    assert sim_related(A, x, x)
    assert sim_related(A, x, y) == sim_related(A, y, x)
    if sim_related(A, x, y) and sim_related(A, y, z):
        assert sim_related(A, x, z)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(UNION_CORPUS),
       st.fractions(min_value=-4, max_value=4, max_denominator=8),
       st.fractions(min_value=-4, max_value=4, max_denominator=8),
       st.fractions(min_value=-4, max_value=4, max_denominator=8))
def test_sim_classes_convex(A, x, y, z):
    if x < z < y and sim_related(A, x, y):
        assert sim_related(A, x, z)


def test_generic_core_structure():
    g, cert = generic_embedding("core")
    imgs = [g.eval(x) for x in SAMPLE[:25]]
    # strictly monotone
    for x1, x2 in itertools.combinations(SAMPLE[:25], 2):
        if x1 < x2:
            assert g.eval(x1) < g.eval(x2)
    for x, y in zip(SAMPLE[:25], imgs):
        q, colour, rep = class_info(cert, y)
        assert colour == Colour.RED
        assert rep == y
        assert cert.in_image(y)
        assert cert.inverse_image(y) == x
    # a non-image point is never claimed as an image point
    for q in [cert.class_of(imgs[0])]:
        other = next(pt for pt in cert.class_points(q) if pt != imgs[0])
        assert not cert.in_image(other)
        assert sim_related(cert, other, imgs[0])


def test_classes_weakly_monotone():
    g, cert = generic_embedding("core")
    pts = sorted(SAMPLE[:30])
    qs = [cert.class_of(x) for x in pts]
    order = cert.index_order
    for q1, q2 in zip(qs, qs[1:]):
        assert not order.less(q2, q1)


def test_blue_and_red_between_image_classes():
    g, cert = generic_embedding("core")
    a, b = g.eval(F(0)), g.eval(F(1))
    qa, qb = cert.class_of(a), cert.class_of(b)
    blue = cert.blue_index_between(qa, qb)
    red = cert.red_index_between(qa, qb)
    assert cert.colour_of_index(blue) == Colour.BLUE
    assert cert.colour_of_index(red) == Colour.RED
    rep = cert.representative(red)
    assert a < rep < b


def test_image_points_between_inside_one_class_is_empty():
    # both ends in class q, above its representative: no image point lies
    # between them, and no class lies between q and q
    g, cert = generic_embedding("core")
    q = cert.class_of(g.eval(F(0)))
    lo, hi = (cert.index_iso.eval_bwd((q, F(c))) for c in (1, 2))
    assert cert.class_of(lo) == cert.class_of(hi) == q
    assert cert.representative(q) < lo < hi
    assert list(cert.image_points_between(lo, hi)) == []


def test_class_search_cap_raises_search_exhausted(monkeypatch):
    # with a cap of 0 only the first class of the gap is looked at, so the
    # search for the other colour gives up
    g, cert = generic_embedding("core")
    qa, qb = cert.class_of(g.eval(F(0))), cert.class_of(g.eval(F(1)))
    first = next(iter(cert.index_order.enum_in_gap(qa, qb)))
    monkeypatch.setattr(generic, "SEARCH_CAP", 0)
    if cert.colour_of_index(first) == Colour.RED:
        assert cert.red_index_between(qa, qb) == first
        search, name = cert.blue_index_between, "blue"
    else:
        assert cert.blue_index_between(qa, qb) == first
        search, name = cert.red_index_between, "red"
    fmt = cert.index_order.format_el
    gap = re.escape(f"in the gap ({fmt(qa)}, {fmt(qb)})")
    with pytest.raises(SearchExhausted,
                       match=f"{name} class search .*SEARCH_CAP=0 {gap}"):
        search(qa, qb)


def test_bounded_variants():
    for variant, markers in (("plus", (Marker.MAX,)),
                             ("minus", (Marker.MIN,)),
                             ("pm", (Marker.MIN, Marker.MAX))):
        g, cert = generic_embedding(variant)
        imgs = [g.eval(x) for x in SAMPLE[:15]]
        for m in markers:
            frontier = next(iter(cert.class_points(m)))
            if m is Marker.MAX:
                assert all(y < frontier for y in imgs)
            else:
                assert all(y > frontier for y in imgs)


def test_variant_rejected():
    with pytest.raises(ValueError, match="variant"):
        generic_embedding("sideways")


def test_p_check_empty_pair_ok():
    g, cert = generic_embedding("core")
    assert p_check(g, cert, PPair(EMPTY_MAP, EMPTY_MAP)) == []


def test_p_check_clause_4():
    g, cert = generic_embedding("core")
    u = F(0)
    b = FinitePartialMap.from_pairs([(u, u)])
    violations = p_check(g, cert, PPair(EMPTY_MAP, b))
    assert {n for n, _ in violations} == {4, 5}


def test_p_check_clause_2():
    g, cert = generic_embedding("core")
    y = g.eval(F(0))
    a = FinitePartialMap.from_pairs([(y, y)])
    # the red class's image point *is* y, so clause 2/3 pass, but clause
    # 6/7 demand the matching b entry
    violations = p_check(g, cert, PPair(a, EMPTY_MAP))
    assert {n for n, _ in violations} == {6, 7}
    # a red-class point that is not the image point leaves 2 and 3 broken
    q = cert.class_of(y)
    other = next(pt for pt in cert.class_points(q) if pt != y)
    a2 = FinitePartialMap.from_pairs([(other, other)])
    violations2 = p_check(g, cert, PPair(a2, EMPTY_MAP))
    assert {n for n, _ in violations2} == {2, 3}


def _case1_pair(g, cert, u):
    gu = g.eval(u)
    t = next(iter(cert.image_points_between(gu, None)))
    s = t
    t2 = next(iter(cert.image_points_between(s, None)))
    a = FinitePartialMap.from_pairs([(gu, gu), (s, t2)])
    b = FinitePartialMap.from_pairs(
        [(u, u), (cert.inverse_image(s), cert.inverse_image(t2))])
    return PPair(a, b), s, t2


def test_p_check_case1_recipe_ok():
    g, cert = generic_embedding("core")
    pair, _, _ = _case1_pair(g, cert, F(0))
    assert p_check(g, cert, pair) == []


def test_extend_pair_empty():
    g, cert = generic_embedding("core")
    pair = extend_pair(g, cert, PPair(EMPTY_MAP, EMPTY_MAP))
    for x in SAMPLE[:20]:
        assert pair.alpha.eval(g.eval(x)) == g.eval(pair.beta.eval(x))
    # alpha strictly monotone
    vals = [pair.alpha.eval(x) for x in sorted(SAMPLE[:20])]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_extend_pair_contains_seed():
    g, cert = generic_embedding("core")
    u = F(0)
    pair_spec, s, t = _case1_pair(g, cert, u)
    cp = extend_pair(g, cert, pair_spec)
    assert cp.alpha.eval(s) == t
    assert cp.beta.eval(u) == u
    for x, y in pair_spec.b.pairs:
        assert cp.beta.eval(x) == y
    for x in SAMPLE[:15]:
        assert cp.alpha.eval(g.eval(x)) == g.eval(cp.beta.eval(x))


def test_extend_pair_rejects_bad_pair():
    g, cert = generic_embedding("core")
    b = FinitePartialMap.from_pairs([(F(0), F(0))])
    with pytest.raises(PPairError) as exc:
        extend_pair(g, cert, PPair(EMPTY_MAP, b))
    assert any(n == 4 for n, _ in exc.value.violations)


def test_recover_equal_verdict():
    g, cert = generic_embedding("core")
    assert recover_witness(g, cert, F(2), g.eval(F(2))) == EQUAL_VERDICT


def test_recover_image_point():
    g, cert = generic_embedding("core")
    u = F(0)
    s = g.eval(F(3))
    cp = recover_witness(g, cert, u, s)
    assert cp.beta.eval(u) == u
    assert cp.alpha.eval(s) != s
    assert cp.alpha.eval(g.eval(u)) == g.eval(u)


def test_recover_blue_point():
    g, cert = generic_embedding("core")
    u = F(1)
    qa, qb = cert.class_of(g.eval(u)), cert.class_of(g.eval(F(2)))
    blue = cert.blue_index_between(qa, qb)
    s = next(iter(cert.class_points(blue)))
    cp = recover_witness(g, cert, u, s)
    assert cp.beta.eval(u) == u
    assert cp.alpha.eval(s) != s
    # the moved point stays in its own (blue) class
    assert cert.class_of(cp.alpha.eval(s)) == cert.class_of(s)


def test_recover_red_non_image_point():
    g, cert = generic_embedding("core")
    u = F(0)
    y = g.eval(F(5))
    q = cert.class_of(y)
    s = next(pt for pt in cert.class_points(q) if pt != y)
    cp = recover_witness(g, cert, u, s)
    assert cp.beta.eval(u) == u
    assert cp.alpha.eval(s) != s
    # the class's image point is pinned
    assert cp.alpha.eval(y) == y


def test_recover_direction_of_movement():
    g, cert = generic_embedding("core")
    u = F(0)
    s = g.eval(F(-4))  # below g(u)
    cp = recover_witness(g, cert, u, s)
    assert cp.alpha.eval(s) < s


def test_compose_certified():
    g1, cert1 = generic_embedding("core")
    g2, cert2 = generic_embedding("core")
    gg, cert = compose_certified(g2, cert2, g1, cert1)
    for x in SAMPLE[:12]:
        y = gg.eval(x)
        assert y == g2.eval(g1.eval(x))
        q, colour, rep = class_info(cert, y)
        assert colour == Colour.RED and rep == y
        assert cert.inverse_image(y) == x
    # between two composite image points there is a blue and a red class
    qa = cert.class_of(gg.eval(F(0)))
    qb = cert.class_of(gg.eval(F(1)))
    assert cert.colour_of_index(cert.blue_index_between(qa, qb)) == Colour.BLUE
    red = cert.red_index_between(qa, qb)
    assert gg.eval(F(0)) < cert.representative(red) < gg.eval(F(1))


def test_compose_variant_mismatch():
    g1, cert1 = generic_embedding("core")
    g2, cert2 = generic_embedding("plus")
    with pytest.raises(ValueError, match="variant"):
        compose_certified(g2, cert2, g1, cert1)


def test_absorb_doubling():
    f = affine_map(F(2), F(0))
    g, cert = absorb(f)
    assert cert.variant == "core"
    comp = cert.embedding
    for x in SAMPLE[:10]:
        y = comp.eval(x)
        assert y == g.eval(f.eval(x))
        assert cert.in_image(y)
        assert cert.inverse_image(y) == x
        q, colour, rep = class_info(cert, y)
        assert colour == Colour.RED and rep == y
    qa, qb = cert.class_of(comp.eval(F(0))), cert.class_of(comp.eval(F(1)))
    assert cert.blue_index_between(qa, qb) is not None
    assert cert.red_index_between(qa, qb) is not None


def test_absorb_identity():
    g, cert = absorb(identity_map())
    comp = cert.embedding
    for x in SAMPLE[:8]:
        assert comp.eval(x) == g.eval(x)
        assert cert.in_image(comp.eval(x))


def test_absorb_rejects_non_injective():
    with pytest.raises(ValueError, match="injective"):
        absorb(constant_map(F(0)))


def test_recover_through_composite_cert():
    f = affine_map(F(2), F(1))
    g, cert = absorb(f)
    comp = cert.embedding
    u = F(0)
    s = comp.eval(F(2))
    cp = recover_witness(comp, cert, u, s)
    assert cp.beta.eval(u) == u
    assert cp.alpha.eval(s) != s
    for x in SAMPLE[:8]:
        assert cp.alpha.eval(comp.eval(x)) == comp.eval(cp.beta.eval(x))


STEP = "(-inf,0) : 1*x + 0\n[0,+inf) : 1*x + 1\n"


def _check_recovery(comp, cert, u, s):
    cp = recover_witness(comp, cert, u, s)
    assert cp.beta.eval(u) == u
    assert cp.alpha.eval(s) != s
    for x in (nth_rational(i) for i in range(60)):
        assert cp.alpha.eval(comp.eval(x)) == comp.eval(cp.beta.eval(x))


def test_recover_through_composite_cert_at_recoloured_class():
    # 1/2 is not in f's image, so the class of s = g(1/2) is red for g but
    # blue for the composite g∘f
    f = PiecewiseEndo.parse(STEP)
    g, cert = absorb(f)
    s = cert.outer.embedding.eval(F(1, 2))
    q = cert.class_of(s)
    assert cert.outer.colour_of_index(q) == Colour.RED
    assert cert.colour_of_index(q) == Colour.BLUE
    for u in (F(0), F(2), F(-1)):
        _check_recovery(cert.embedding, cert, u, s)


def test_recover_through_composite_cert_past_recoloured_classes(monkeypatch):
    # s = (g∘f)(0) moves down, so the classes of g([0,1)), red for g but
    # blue for g∘f, are shifted by the index iso; keyed on g's colours it
    # sends a red class of g∘f to one of them, where α then finds no
    # image point (a small cap makes that search fail fast)
    monkeypatch.setattr(lazyiso, "FAULT_CAP", 2000)
    g, cert = absorb(PiecewiseEndo.parse(STEP))
    _check_recovery(cert.embedding, cert, F(2), cert.embedding.eval(F(0)))
