"""Certified generic embedding tests."""

import itertools
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qendo import generic, ratcore
from qendo.endo import (
    PiecewiseEndo,
    classify,
    constant_map,
    identity_map,
)
from qendo.generic import (
    EQUAL_VERDICT,
    PPairError,
    absorb,
    compose_certified,
    extend_pair,
    generic_embedding,
    p_check,
    recover_witness,
    sim_related,
)
from qendo.lazyiso import ColouredQ, Constraint, FullQ, LazyIso, Marker
from qendo.partialmap import EMPTY_MAP, FinitePartialMap
from qendo.ratcore import (
    Colour,
    Rat,
    RatInterval,
    SearchExhausted,
    colour,
    colour_witness,
    least_index_in_interval,
    nth_rational,
    point_interval,
)

from util import affine_map, fractions_between, intersect_intervals, monotone_endos

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


def test_sim_is_not_transitive_with_two_isolated_points():
    # why the sim suite's corpus holds no isolated point
    A = (point_interval(F(0)), point_interval(F(2)))
    assert sim_related(A, F(-1), F(1)) and sim_related(A, F(1), F(3))
    assert not sim_related(A, F(-1), F(3))


UNION_CORPUS = [
    HALF_LINE_IMAGE,
    (RatInterval(None, None),),
    (RatInterval(None, F(-1)), RatInterval(F(0), F(1)), RatInterval(F(2), None)),
    (RatInterval(None, F(0)), RatInterval(F(0), None, False, False)),
]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(UNION_CORPUS),
       fractions_between(-4, 4, 8),
       fractions_between(-4, 4, 8),
       fractions_between(-4, 4, 8))
def test_sim_is_an_equivalence(A, x, y, z):
    assert sim_related(A, x, x)
    assert sim_related(A, x, y) == sim_related(A, y, x)
    if sim_related(A, x, y) and sim_related(A, y, z):
        assert sim_related(A, x, z)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(UNION_CORPUS),
       fractions_between(-4, 4, 8),
       fractions_between(-4, 4, 8),
       fractions_between(-4, 4, 8))
def test_sim_classes_convex(A, x, y, z):
    if x < z < y and sim_related(A, x, y):
        assert sim_related(A, x, z)


def _sim_related_by_intersection(A, x, y):
    # the construction sim_related used before it compared bounds: a window
    # interval intersected with each interval of A
    x, y = Rat(x), Rat(y)
    if x == y:
        return True
    lo, hi = (x, y) if x < y else (y, x)
    window = RatInterval(lo, hi)
    count = 0
    for iv in A:
        got = intersect_intervals(iv, window)
        if got is None:
            continue
        if not got.is_degenerate():
            return False
        count += 1
        if count > 1:
            return False
    return True


# a coarse grid, so that drawn intervals overlap, touch, repeat and share
# ends with the drawn points
GRID = [F(n, 2) for n in range(-6, 7)]


@st.composite
def raw_intervals(draw):
    """Any valid RatInterval over GRID: open or closed ends, unbounded
    ends, degenerate points."""
    lo = draw(st.none() | st.sampled_from(GRID))
    hi = draw(st.none() | st.sampled_from([v for v in GRID if lo is None or v >= lo]))
    if lo is not None and lo == hi:
        return RatInterval(lo, hi, True, True)
    lo_closed = lo is not None and draw(st.booleans())
    hi_closed = hi is not None and draw(st.booleans())
    return RatInterval(lo, hi, lo_closed, hi_closed)


@st.composite
def union_and_pair(draw):
    A = tuple(draw(st.lists(raw_intervals(), max_size=5)))
    ends = [v for iv in A for v in (iv.lo, iv.hi) if v is not None]
    point = st.sampled_from(GRID + [F(1, 3), F(-7, 4)])
    if ends:
        point = point | st.sampled_from(ends)
    x = draw(point)
    y = draw(st.just(x) | point)
    return A, x, y


@settings(max_examples=600, deadline=None)
@given(union_and_pair())
def test_sim_related_matches_the_intersection_count(case):
    A, x, y = case
    assert sim_related(A, x, y) == _sim_related_by_intersection(A, x, y)
    assert sim_related(A, y, x) == _sim_related_by_intersection(A, y, x)


def test_sim_related_touching_ends_are_outside_the_window():
    for closed in (False, True):
        A = (RatInterval(None, F(0), False, closed),
             RatInterval(F(1), None, closed, False))
        assert sim_related(A, F(0), F(1))
        assert sim_related(A, F(1), F(0))
    point = (RatInterval(F(0), F(0), True, True),) * 2
    assert sim_related(point, F(0), F(1))
    assert not sim_related(point, F(-1), F(1))  # the repeated point counts twice

def test_generic_core_structure():
    g, cert = generic_embedding("core")
    imgs = [g.eval(x) for x in SAMPLE[:25]]
    # strictly monotone
    for x1, x2 in itertools.combinations(SAMPLE[:25], 2):
        if x1 < x2:
            assert g.eval(x1) < g.eval(x2)
    for x, y in zip(SAMPLE[:25], imgs):
        q = cert.class_of(y)
        assert cert.colour_of_index(q) == Colour.RED
        assert cert.representative(q) == y
        assert cert.in_image(y)
        assert cert.inverse_image(y) == x
    # a non-image point is never claimed as an image point
    for q in [cert.class_of(imgs[0])]:
        other = next(pt for pt in cert.class_points(q) if pt != imgs[0])
        assert not cert.in_image(other)
        assert cert.class_of(other) == q


def test_classes_weakly_monotone():
    g, cert = generic_embedding("core")
    pts = sorted(SAMPLE[:30])
    qs = [cert.class_of(x) for x in pts]
    for q1, q2 in zip(qs, qs[1:]):
        assert not q2 < q1


def test_blue_and_red_between_image_classes():
    g, cert = generic_embedding("core")
    a, b = g.eval(F(0)), g.eval(F(1))
    qa, qb = cert.class_of(a), cert.class_of(b)
    blue = cert.blue_index_between(qa, qb)
    assert cert.colour_of_index(blue) == Colour.BLUE
    rep = next(iter(cert.image_points_between(a, b)))
    assert cert.colour_of(rep) == Colour.RED
    assert qa < cert.class_of(rep) < qb
    assert a < rep < b


@pytest.mark.parametrize("variant", generic.VARIANTS)
def test_classes_answer_at_any_rational(variant):
    # class_of at a fresh rational takes a forward step into the index
    # iso's product; two neighbours share a class exactly when at most one
    # image point lies strictly between them
    g, cert = generic_embedding(variant)
    for x in SAMPLE:
        g.eval(x)
    rng = random.Random(variant)
    fresh = set()
    while len(fresh) < 200:
        fresh.add(Rat(rng.randint(-300, 300), rng.randint(1, 30)))
    queries = sorted(fresh)
    rng.shuffle(queries)
    classes = {x: cert.class_of(x) for x in queries}
    xs = sorted(classes)
    for x, y in zip(xs, xs[1:]):
        few = len(list(itertools.islice(cert.image_points_between(x, y), 2))) <= 1
        assert (classes[x] == classes[y]) == few, (x, y)


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
    # blue search gives up where that class is red: g(0) lands in class 0,
    # the first rational of the enumeration, between g(-1) and g(1)
    g, cert = generic_embedding("core")
    assert cert.class_of(g.eval(F(0))) == 0
    qa, qb = cert.class_of(g.eval(F(-1))), cert.class_of(g.eval(F(1)))
    assert next(iter(cert.index_order.enum_in_gap(qa, qb))) == 0
    assert cert.colour_of_index(cert.blue_index_between(qa, qb)) == Colour.BLUE
    monkeypatch.setattr(ratcore, "SEARCH_CAP", 0)
    fmt = cert.index_order.format_el
    gap = re.escape(f"in the gap ({fmt(qa)}, {fmt(qb)})")
    with pytest.raises(SearchExhausted,
                       match=f"blue class search .*SEARCH_CAP=0 {gap}"):
        cert.blue_index_between(qa, qb)


def _partner_search():
    # only nth_rational(1) is admissible, and the scan starts at index 0
    offered = Constraint("offered", lambda x: True, lambda y: y == nth_rational(1))
    return LazyIso(FullQ(), FullQ(), constraint=offered).eval_fwd, F(0)


def _blue_class_search():
    # g(0) lands in class 0, the first class of the gap between g(-1) and
    # g(1), and it is red (test_class_search_cap_raises_search_exhausted)
    g, cert = generic_embedding("core")
    g.eval(F(0))
    qa, qb = cert.class_of(g.eval(F(-1))), cert.class_of(g.eval(F(1)))
    return cert.blue_index_between, qa, qb


# each search, with arguments that the default cap answers but a cap of 0,
# one candidate or one split, does not; and how its message starts
CAPPED_SEARCHES = {
    "partner": (_partner_search, "back-and-forth search for a partner of 0"),
    "blue class": (_blue_class_search, "blue class search"),
    "least index": (lambda: (least_index_in_interval, F(0), F(1),
                             lambda x: x != F(1, 2)),
                    "least-index witness search"),
    "colour witness": (lambda: (colour_witness, F(1, 3), F(1, 2), Colour.BLUE),
                       "colour witness search for blue"),
}


@pytest.mark.parametrize("search", sorted(CAPPED_SEARCHES))
def test_search_cap_stops_each_search(monkeypatch, search):
    start, message = CAPPED_SEARCHES[search]
    run, *args = start()
    run(*args)
    run, *args = start()  # a fresh search: an iso would answer from its memo
    monkeypatch.setattr(ratcore, "SEARCH_CAP", 0)
    with pytest.raises(SearchExhausted,
                       match=f"^{re.escape(message)} found nothing within "
                             r"SEARCH_CAP=0 in the gap \("):
        run(*args)


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
    _, cert = generic_embedding("core")
    assert p_check(cert, EMPTY_MAP, EMPTY_MAP) == []


# One incompatible pair per clause, each checked against the full list of
# violations, in order.  The embedding is built lazily, so each test takes
# a fresh one and asks it the same questions in the same order.

def _pm(*pairs):
    return FinitePartialMap.from_pairs(pairs)


def _blue_point(cert):
    # the least of the first two points of a blue class between g(0) and g(1)
    g = cert.embedding
    q0, q1 = cert.class_of(g.eval(F(0))), cert.class_of(g.eval(F(1)))
    blue = cert.blue_index_between(q0, q1)
    return min(itertools.islice(cert.class_points(blue), 2))


def _red_non_image_point(cert, y):
    # a point of image point y's red class other than y
    return next(pt for pt in cert.class_points(cert.class_of(y)) if pt != y)


def test_p_check_clause_1():
    # a blue endpoint class left, and relatedness not mirrored
    g, cert = generic_embedding("pm")
    m1, m2 = sorted(itertools.islice(cert.class_points(Marker.MIN), 2))
    a = _pm((m1, m1), (m2, _blue_point(cert)))
    assert p_check(cert, a, EMPTY_MAP) == [
        (1, "1 does not preserve the -end endpoint class"),
        (1, "relatedness of 0,1 not mirrored by their images")]
    # a blue class sent to a red one
    g, cert = generic_embedding("core")
    a = _pm((_blue_point(cert), _red_non_image_point(cert, g.eval(F(0)))))
    assert p_check(cert, a, EMPTY_MAP) == [
        (1, "1/2 maps blue class to red class"),
        (3, "red class of 1/3 has image point 0 missing from the image of a")]


def test_p_check_clause_2():
    # a red-class point that is not the image point leaves 2 and 3 broken
    g, cert = generic_embedding("core")
    x = _red_non_image_point(cert, g.eval(F(0)))
    assert p_check(cert, _pm((x, x)), EMPTY_MAP) == [
        (2, "red class of 1 has image point 0 missing from the domain of a"),
        (3, "red class of 1 has image point 0 missing from the image of a")]


def test_p_check_clause_3():
    g, cert = generic_embedding("core")
    y = g.eval(F(0))
    a = _pm((y, _red_non_image_point(cert, y)))
    assert p_check(cert, a, EMPTY_MAP) == [
        (3, "red class of 1 has image point 0 missing from the image of a"),
        (6, "g⁻¹(0) = 0 missing from the domain of b")]


def test_p_check_clause_4():
    _, cert = generic_embedding("core")
    assert p_check(cert, EMPTY_MAP, _pm((F(0), F(0)))) == [
        (4, "g(0) = 0 missing from the domain of a"),
        (5, "g(0) = 0 missing from the image of a")]


def test_p_check_clause_5():
    g, cert = generic_embedding("core")
    y = g.eval(F(0))
    assert p_check(cert, _pm((y, y)), _pm((F(0), F(1)))) == [
        (5, "g(1) = 1 missing from the image of a"),
        (6, "g·b·g⁻¹ and a disagree at 0"),
        (7, "g⁻¹(0) = 0 missing from the image of b")]


def test_p_check_clause_6():
    # the red class's image point *is* y, so clauses 2 and 3 pass, but
    # clauses 6 and 7 demand the matching b entry
    g, cert = generic_embedding("core")
    y = g.eval(F(0))
    assert p_check(cert, _pm((y, y)), EMPTY_MAP) == [
        (6, "g⁻¹(0) = 0 missing from the domain of b"),
        (7, "g⁻¹(0) = 0 missing from the image of b")]


def test_p_check_clause_7():
    g, cert = generic_embedding("core")
    y = g.eval(F(1))
    assert p_check(cert, _pm((y, y)), _pm((F(0), F(1)))) == [
        (4, "g(0) = -1 missing from the domain of a"),
        (6, "g⁻¹(0) = 1 missing from the domain of b"),
        (7, "g·b⁻¹·g⁻¹ and a⁻¹ disagree at 0")]


def _case1_pair(cert, u):
    gu = cert.embedding.eval(u)
    t = next(iter(cert.image_points_between(gu, None)))
    s = t
    t2 = next(iter(cert.image_points_between(s, None)))
    a = FinitePartialMap.from_pairs([(gu, gu), (s, t2)])
    b = FinitePartialMap.from_pairs(
        [(u, u), (cert.inverse_image(s), cert.inverse_image(t2))])
    return (a, b), s, t2


def test_p_check_case1_recipe_ok():
    _, cert = generic_embedding("core")
    pair, _, _ = _case1_pair(cert, F(0))
    assert p_check(cert, *pair) == []


def test_extend_pair_empty():
    g, cert = generic_embedding("core")
    pair = extend_pair(cert, EMPTY_MAP, EMPTY_MAP)
    for x in SAMPLE[:20]:
        assert pair.alpha.eval(g.eval(x)) == g.eval(pair.beta.eval(x))
    # alpha strictly monotone
    vals = [pair.alpha.eval(x) for x in sorted(SAMPLE[:20])]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_extend_pair_contains_seed():
    g, cert = generic_embedding("core")
    u = F(0)
    (a, b), s, t = _case1_pair(cert, u)
    cp = extend_pair(cert, a, b)
    assert cp.alpha.eval(s) == t
    assert cp.beta.eval(u) == u
    for x, y in b.pairs:
        assert cp.beta.eval(x) == y
    for x in SAMPLE[:15]:
        assert cp.alpha.eval(g.eval(x)) == g.eval(cp.beta.eval(x))


def test_extend_pair_rejects_bad_pair():
    _, cert = generic_embedding("core")
    b = FinitePartialMap.from_pairs([(F(0), F(0))])
    with pytest.raises(PPairError) as exc:
        extend_pair(cert, EMPTY_MAP, b)
    assert any(n == 4 for n, _ in exc.value.violations)


def test_recover_equal_verdict():
    g, cert = generic_embedding("core")
    assert recover_witness(cert, F(2), g.eval(F(2))) == EQUAL_VERDICT


def test_recover_image_point():
    g, cert = generic_embedding("core")
    u = F(0)
    s = g.eval(F(3))
    cp = recover_witness(cert, u, s)
    assert cp.beta.eval(u) == u
    assert cp.alpha.eval(s) != s
    assert cp.alpha.eval(g.eval(u)) == g.eval(u)


def test_recover_blue_point():
    g, cert = generic_embedding("core")
    u = F(1)
    qa, qb = cert.class_of(g.eval(u)), cert.class_of(g.eval(F(2)))
    blue = cert.blue_index_between(qa, qb)
    s = next(iter(cert.class_points(blue)))
    cp = recover_witness(cert, u, s)
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
    cp = recover_witness(cert, u, s)
    assert cp.beta.eval(u) == u
    assert cp.alpha.eval(s) != s
    # the class's image point is pinned
    assert cp.alpha.eval(y) == y


def test_recover_direction_of_movement():
    g, cert = generic_embedding("core")
    u = F(0)
    s = g.eval(F(-4))  # below g(u)
    cp = recover_witness(cert, u, s)
    assert cp.alpha.eval(s) < s


def test_compose_certified():
    g1, cert1 = generic_embedding("core")
    g2, cert2 = generic_embedding("core")
    cert = compose_certified(cert2, cert1)
    gg = cert.embedding
    for x in SAMPLE[:12]:
        y = gg.eval(x)
        assert y == g2.eval(g1.eval(x))
        q = cert.class_of(y)
        assert cert.colour_of_index(q) == Colour.RED
        assert cert.representative(q) == y
        assert cert.inverse_image(y) == x
    # between two composite image points there is a blue and a red class
    a, b = gg.eval(F(0)), gg.eval(F(1))
    qa, qb = cert.class_of(a), cert.class_of(b)
    assert cert.colour_of_index(cert.blue_index_between(qa, qb)) == Colour.BLUE
    rep = next(iter(cert.image_points_between(a, b)))
    assert cert.colour_of(rep) == Colour.RED
    assert a < rep < b


def test_compose_variant_mismatch():
    _, cert1 = generic_embedding("core")
    _, cert2 = generic_embedding("plus")
    with pytest.raises(ValueError, match="variant"):
        compose_certified(cert2, cert1)


def test_absorb_doubling():
    f = affine_map(F(2), F(0))
    cert = absorb(f)
    g = cert.outer.embedding
    assert cert.variant == "core"
    comp = cert.embedding
    for x in SAMPLE[:10]:
        y = comp.eval(x)
        assert y == g.eval(f.eval(x))
        assert cert.in_image(y)
        assert cert.inverse_image(y) == x
        q = cert.class_of(y)
        assert cert.colour_of_index(q) == Colour.RED
        assert cert.representative(q) == y
    a, b = comp.eval(F(0)), comp.eval(F(1))
    qa, qb = cert.class_of(a), cert.class_of(b)
    assert cert.colour_of_index(cert.blue_index_between(qa, qb)) == Colour.BLUE
    assert a < next(iter(cert.image_points_between(a, b))) < b


def test_absorb_identity():
    cert = absorb(identity_map())
    g = cert.outer.embedding
    comp = cert.embedding
    for x in SAMPLE[:8]:
        assert comp.eval(x) == g.eval(x)
        assert cert.in_image(comp.eval(x))


def test_absorb_rejects_non_injective():
    with pytest.raises(ValueError, match="injective"):
        absorb(constant_map(F(0)))


@settings(max_examples=60, deadline=None)
@given(monotone_endos().filter(lambda f: classify(f).kind.injective))
def test_absorb_needs_only_the_core_variant(f):
    # an injective map's sloped end pieces reach both infinities, so no
    # bounded variant is ever needed
    image = f.image_union()
    assert image[0].lo is None and image[-1].hi is None
    assert absorb(f).variant == "core"


def test_recover_through_composite_cert():
    # absorb hands out one object, the certificate of g∘f, so the map the
    # recovery reads is g∘f: (g∘f)(0) is its value at 0, not g's
    f = affine_map(F(2), F(1))
    cert = absorb(f)
    comp = cert.embedding
    u = F(0)
    assert recover_witness(cert, u, comp.eval(u)) == EQUAL_VERDICT
    s = comp.eval(F(2))
    cp = recover_witness(cert, u, s)
    assert cp.beta.eval(u) == u
    assert cp.alpha.eval(s) != s
    for x in SAMPLE[:8]:
        assert cp.alpha.eval(comp.eval(x)) == comp.eval(cp.beta.eval(x))


STEP = "(-inf,0) : 1*x + 0\n[0,+inf) : 1*x + 1\n"


def _check_recovery(cert, u, s):
    comp = cert.embedding
    cp = recover_witness(cert, u, s)
    assert cp.beta.eval(u) == u
    assert cp.alpha.eval(s) != s
    for x in (nth_rational(i) for i in range(60)):
        assert cp.alpha.eval(comp.eval(x)) == comp.eval(cp.beta.eval(x))


def test_recover_through_composite_cert_at_recoloured_class():
    # 1/2 is not in f's image, so the class of s = g(1/2) is red for g but
    # blue for the composite g∘f
    f = PiecewiseEndo.parse(STEP)
    cert = absorb(f)
    s = cert.outer.embedding.eval(F(1, 2))
    q = cert.class_of(s)
    assert cert.outer.colour_of_index(q) == Colour.RED
    assert cert.colour_of_index(q) == Colour.BLUE
    for u in (F(0), F(2), F(-1)):
        _check_recovery(cert, u, s)


def test_recover_through_composite_cert_past_recoloured_classes(monkeypatch):
    # s = (g∘f)(0) moves down, so the classes of g([0,1)), red for g but
    # blue for g∘f, are shifted by the index iso; keyed on g's colours it
    # would send a red class of g∘f to one of them, and α would carry an
    # image point of g∘f out of the image (a small cap makes a failing
    # index search end fast)
    monkeypatch.setattr(ratcore, "SEARCH_CAP", 2000)
    cert = absorb(PiecewiseEndo.parse(STEP))
    _check_recovery(cert, F(2), cert.embedding.eval(F(0)))


@pytest.mark.parametrize("builder", ["absorb", "compose_certified"])
def test_composite_queries_match_their_outer_formulas(builder):
    # the representative, image membership and class points a composite
    # certificate inherits agree with those read through its outer
    # certificate: an image point is an outer one whose outer preimage is in
    # the inner image, and a composite-red class has the outer
    # representative and class points.  The sample holds image points of
    # the composite, outer image points it drops (1/2 is not in STEP's
    # image; the inner generic image is sparse), points beside them, and
    # the "pm" end classes
    if builder == "absorb":
        cert = absorb(PiecewiseEndo.parse(STEP))
    else:
        _, inner = generic_embedding("pm")
        cert = compose_certified(generic_embedding("pm")[1], inner)
    outer = cert.outer
    images = [cert.embedding.eval(x) for x in SAMPLE[:10]]
    dropped = [outer.embedding.eval(x) for x in SAMPLE[:20]]
    points = images + dropped + [y + F(1, 7) for y in images + dropped] + SAMPLE
    classes = {cert.class_of(x) for x in points}
    classes.update(m for m in (outer.index_order.min_el, outer.index_order.max_el)
                   if m is not None)
    seen = set()
    for x in points:
        member = outer.in_image(x) and cert.inner_member(outer.inverse_image(x))
        assert cert.in_image(x) is member, x
        seen.add(member)
    assert seen == {True, False}
    colours = set()
    for q in classes:
        colour_q = cert.colour_of_index(q)
        colours.add((outer.colour_of_index(q), colour_q))
        if colour_q is Colour.RED:
            assert cert.representative(q) == outer.representative(q)
        else:
            with pytest.raises(ValueError, match="only red classes"):
                cert.representative(q)
        assert (list(itertools.islice(cert.class_points(q), 5))
                == list(itertools.islice(outer.class_points(q), 5)))
    assert (Colour.RED, Colour.BLUE) in colours and (Colour.RED, Colour.RED) in colours


def test_composite_inverse_image_rejects_a_point_outside_its_image():
    # an image point of the outer embedding whose outer preimage is not in
    # the inner image is no image point of the composite
    cert = absorb(PiecewiseEndo.parse(STEP))
    s = cert.outer.embedding.eval(F(1, 2))  # 1/2 is not in f's image
    with pytest.raises(ValueError, match=re.escape(f"{s} is not an image point")):
        cert.inverse_image(s)
    _, cert1 = generic_embedding("plus")
    g2, cert2 = generic_embedding("plus")
    cert = compose_certified(cert2, cert1)
    assert not cert1.in_image(F(1))
    s = g2.eval(F(1))
    with pytest.raises(ValueError, match=re.escape(f"{s} is not an image point")):
        cert.inverse_image(s)


@pytest.mark.parametrize("variant", generic.VARIANTS)
def test_representative_answers_red_classes_only(variant):
    g, cert = generic_embedding(variant)
    g.eval(F(0))
    order = cert.index_order
    for q in [F(1, 3)] + [m for m in (order.min_el, order.max_el) if m is not None]:
        assert cert.colour_of_index(q) == Colour.BLUE
        with pytest.raises(ValueError, match="only red classes"):
            cert.representative(q)


# -- certificate queries on non-Rat arguments ----------------------------------

@pytest.mark.parametrize("variant", generic.VARIANTS)
def test_cert_queries_answer_fractions_and_ints_as_their_rats(variant):
    g, cert = generic_embedding(variant)
    images = [g.eval(x) for x in SAMPLE[:12]]
    others = [F(1, 3), F(-5, 2), F(0), F(7)] + [y + F(1, 97) for y in images]
    for y in images + others:
        for alias in (F(y.numerator, y.denominator), y.numerator):
            if alias != y:
                continue  # an int stands only for an integral value
            assert type(alias) is not Rat
            assert cert.class_of(alias) == cert.class_of(Rat(y))
            assert cert.in_image(alias) is cert.in_image(Rat(y))
            if cert.in_image(y):
                assert cert.inverse_image(alias) == cert.inverse_image(Rat(y))
            else:
                with pytest.raises(ValueError, match=re.escape(f"{y} is not an image point")):
                    cert.inverse_image(alias)


@pytest.mark.parametrize("variant", generic.VARIANTS)
def test_cert_queries_build_the_same_memo_from_fractions_as_from_rats(variant):
    (g1, by_rat), (g2, by_fraction) = generic_embedding(variant), generic_embedding(variant)
    for x in SAMPLE[:15]:
        y = g1.eval(x)
        assert g2.eval(F(x)) == y
        for z in (y, y + F(1, 5), y - F(1, 3)):
            assert by_fraction.class_of(F(z)) == by_rat.class_of(Rat(z))
            assert by_fraction.in_image(F(z)) is by_rat.in_image(Rat(z))
        assert by_fraction.inverse_image(F(y)) == by_rat.inverse_image(Rat(y))
    assert by_fraction.memo_snapshot() == by_rat.memo_snapshot()


def test_coloured_q_colour_label_is_ratcore_colour():
    values = [nth_rational(i) for i in range(200)] + [Rat(-7, 3), Rat(10**30 + 1, 2)]
    for order in (ColouredQ(), ColouredQ(True, False), ColouredQ(False, True),
                  ColouredQ(True, True)):
        for v in values:
            assert order.colour_label(v) is colour(v)
            assert order.colour_label(F(v)) is colour(F(v)) is colour(v)
        assert order.colour_label(Marker.MIN) is Colour.BLUE
        assert order.colour_label(Marker.MAX) is Colour.BLUE
