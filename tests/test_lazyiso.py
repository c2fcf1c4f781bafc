"""Back-and-forth engine tests."""

import functools
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qendo import lazyiso
from qendo.lazyiso import (
    ColouredQ,
    Constraint,
    ConstraintViolation,
    FactorOrder,
    FullQ,
    IntervalQ,
    LazyIso,
    LexSum,
    Marker,
    PointOrder,
    QMinusFinite,
    RedPoints,
    build,
)
from qendo.ratcore import (
    Colour,
    RatInterval,
    SearchExhausted,
    colour,
    enumerated_in_interval,
    nth_rational,
    rat_index,
)

SAMPLE = [nth_rational(i) for i in range(200)]


def test_seeded_pair_is_returned():
    iso = build(FullQ(), FullQ(), seed=[(F(0), F(5))])
    assert iso.eval_fwd(F(0)) == F(5)
    assert iso.eval_bwd(F(5)) == F(0)


def test_identity_seed_prefix():
    seed = [(nth_rational(i), nth_rational(i)) for i in range(10)]
    iso = build(FullQ(), FullQ(), seed=seed)
    assert iso.eval_fwd(nth_rational(3)) == nth_rational(3)


def test_unseeded_full_line_is_identity_on_fresh_points():
    # with no seed and equal specs, the least-index admissible point in the
    # gap is always the argument itself, so the iso grows as the identity
    iso = build(FullQ(), FullQ())
    for x in SAMPLE[:50]:
        assert iso.eval_fwd(x) == x


def test_roundtrip_and_order_preservation():
    iso = build(FullQ(), FullQ(), seed=[(F(0), F(1)), (F(1), F(4))])
    for x in SAMPLE:
        assert iso.eval_bwd(iso.eval_fwd(x)) == x
    pairs = iso.memo_pairs()
    for (x1, y1), (x2, y2) in zip(pairs, pairs[1:]):
        assert x1 < x2 and y1 < y2


def test_punctured_target_never_hits_hole():
    iso = build(FullQ(), QMinusFinite({F(0)}))
    seen = {iso.eval_fwd(x) for x in SAMPLE}
    assert F(0) not in seen
    assert len(seen) == len(SAMPLE)


def test_colour_preservation():
    spec = ColouredQ()
    keep = Constraint("colour", spec.colour_label, spec.colour_label)
    iso = build(spec, spec, seed=[(F(1, 2), F(5, 2))], constraints=[keep])
    for x in SAMPLE:
        assert colour(iso.eval_fwd(x)) == colour(x)
    for y in SAMPLE:
        assert colour(iso.eval_bwd(y)) == colour(y)


def test_seed_violation_names_constraint():
    spec = ColouredQ()
    keep = Constraint("colour", spec.colour_label, spec.colour_label)
    # 0 is red, 1 is blue
    with pytest.raises(ConstraintViolation, match="colour"):
        build(spec, spec, seed=[(F(0), F(1))], constraints=[keep])


def test_non_monotone_seed_rejected():
    with pytest.raises(ConstraintViolation, match="order"):
        build(FullQ(), FullQ(), seed=[(F(0), F(1)), (F(1), F(0))])


def test_endpoint_markers_auto_pinned():
    src = ColouredQ(with_min=True, with_max=True)
    tgt = ColouredQ(with_min=True, with_max=True)
    iso = build(src, tgt)
    assert iso.eval_fwd(Marker.MIN) is Marker.MIN
    assert iso.eval_fwd(Marker.MAX) is Marker.MAX
    # every rational image stays strictly between the markers
    y = iso.eval_fwd(F(7))
    assert isinstance(y, F)


def test_endpoint_mismatch_rejected():
    with pytest.raises(ValueError, match="endpoint"):
        build(ColouredQ(with_min=True), ColouredQ())


BOUNDED = ColouredQ(True, True)
CLOSED_02 = IntervalQ(RatInterval(F(0), F(2), True, True))
LINE_OF_LINES = LexSum(FullQ(), lambda a: FullQ())


@pytest.mark.parametrize("spec, lo, hi", [
    pytest.param(FullQ(), F(1), F(0), id="FullQ-reversed"),
    pytest.param(FullQ(), F(1), F(1), id="FullQ-equal"),
    pytest.param(BOUNDED, F(1), F(0), id="ColouredQ-reversed"),
    pytest.param(BOUNDED, Marker.MIN, Marker.MIN, id="ColouredQ-min-min"),
    pytest.param(BOUNDED, Marker.MAX, F(0), id="ColouredQ-max-0"),
    pytest.param(BOUNDED, Marker.MAX, Marker.MIN, id="ColouredQ-max-min"),
    pytest.param(BOUNDED, F(0), Marker.MIN, id="ColouredQ-0-min"),
    pytest.param(QMinusFinite({F(0)}), F(1), F(-1), id="QMinusFinite-reversed"),
    pytest.param(CLOSED_02, F(3, 2), F(1, 2), id="IntervalQ-reversed"),
    pytest.param(CLOSED_02, F(1), F(1), id="IntervalQ-equal"),
    pytest.param(PointOrder(), "pt", "pt", id="PointOrder-pt-pt"),
    pytest.param(LINE_OF_LINES, (F(1), F(0)), (F(0), F(0)), id="LexSum-index-reversed"),
    pytest.param(LINE_OF_LINES, (F(0), F(1)), (F(0), F(1)), id="LexSum-fibre-equal"),
    pytest.param(RedPoints(ColouredQ()), F(1), F(0), id="RedPoints-reversed"),
])
def test_gap_not_below_is_a_value_error(spec, lo, hi):
    # raised at the call or at the first next()
    with pytest.raises(ValueError):
        next(iter(spec.enum_in_gap(lo, hi)))


@pytest.mark.parametrize("spec, lo, hi", [
    (BOUNDED, Marker.MAX, None),
    (BOUNDED, None, Marker.MIN),
    (PointOrder(), "pt", None),
    (PointOrder(), None, "pt"),
])
def test_gap_with_an_unbounded_side_may_be_empty(spec, lo, hi):
    assert list(spec.enum_in_gap(lo, hi)) == []


def _integers_in_gap(lo, hi):
    # integers strictly inside (lo, hi), by enumeration index: 0,1,-1,2,-2,...
    def gen():
        n = 0
        while True:
            for k in ([n] if n == 0 else [n, -n]):
                x = F(k)
                if (lo is None or lo < x) and (hi is None or x < hi):
                    yield x
            n += 1
    import itertools
    return itertools.islice(gen(), 10_000)


def test_fault_cap_raises_search_exhausted(monkeypatch):
    # partners must have denominator > 5; the first such candidate comes
    # after more than 3 others in the enumeration
    wanted = Constraint("denominator", lambda x: True,
                        lambda y: y.denominator > 5)
    assert build(FullQ(), FullQ(), constraints=[wanted]).eval_fwd(F(0)) == F(4, 7)
    monkeypatch.setattr(lazyiso, "FAULT_CAP", 3)
    iso = build(FullQ(), FullQ(), constraints=[wanted])
    with pytest.raises(SearchExhausted,
                       match=r"partner of 0 .*FAULT_CAP=3 in the gap \(-inf, \+inf\)"):
        iso.eval_fwd(F(0))
    assert iso.memo_pairs() == ()


def test_set_stabilization_routes_members():
    is_int = lambda x: x.denominator == 1
    members = lambda x, lo, hi: _integers_in_gap(lo, hi) if is_int(x) else None
    stab = Constraint("integers", is_int, is_int,
                      source_stream=members, target_stream=members)
    iso = build(FullQ(), FullQ(), seed=[(F(1, 2), F(3, 2))], constraints=[stab])
    for x in SAMPLE[:120]:
        y = iso.eval_fwd(x)
        assert is_int(x) == is_int(y)
    # backward direction respects membership too
    w = iso.eval_bwd(F(10))
    assert is_int(w)


def test_red_target_only_red_values():
    base = ColouredQ()
    iso = build(FullQ(), RedPoints(base))
    for x in SAMPLE[:100]:
        assert colour(iso.eval_fwd(x)) == Colour.RED
    pairs = iso.memo_pairs()
    for (x1, y1), (x2, y2) in zip(pairs, pairs[1:]):
        assert x1 < x2 and y1 < y2


def _product():
    line = FullQ()
    return LexSum(line, lambda a: line)


def test_lex_product_order():
    prod = _product()
    iso = build(prod, prod)
    pts = [(nth_rational(i), nth_rational(j)) for i in range(8) for j in range(8)]
    imgs = {p: iso.eval_fwd(p) for p in pts}
    for p in pts:
        for q in pts:
            if prod.less(p, q):
                assert prod.less(imgs[p], imgs[q])


def test_lex_product_enum_matches_index():
    prod = _product()
    import itertools
    els = list(itertools.islice(prod.enum(), 30))
    idx = [prod.index_of(e) for e in els]
    assert idx == sorted(idx)
    assert idx == list(range(30))


def test_lex_product_gap_enum_respects_bounds():
    prod = _product()
    import itertools
    lo, hi = (F(0), F(0)), (F(1), F(0))
    got = list(itertools.islice(prod.enum_in_gap(lo, hi), 40))
    idx = [prod.index_of(e) for e in got]
    assert idx == sorted(idx)
    for e in got:
        assert prod.less(lo, e) and prod.less(e, hi)


def _floor_preimage(q):
    if q.denominator == 1:
        return RatInterval(q, q + 1, True, False)
    return None


def test_factor_order_membership_and_order():
    fo = FactorOrder(_floor_preimage)
    assert fo.contains((F(0), F(1, 2)))
    assert not fo.contains((F(0), F(3, 2)))
    assert fo.contains((F(1, 2), "pt"))
    assert not fo.contains((F(0), "pt"))
    assert fo.less((F(0), F(1, 2)), (F(1, 2), "pt"))
    assert fo.less((F(1, 2), "pt"), (F(1), F(1)))
    assert fo.less((F(0), F(0)), (F(0), F(2, 3)))


def test_factor_order_enum_is_index_sorted():
    fo = FactorOrder(_floor_preimage)
    import itertools
    els = list(itertools.islice(fo.enum(), 40))
    idx = [fo.index_of(e) for e in els]
    assert idx == sorted(idx)
    for e in els:
        assert fo.contains(e)


def test_factor_order_gap_enum():
    fo = FactorOrder(_floor_preimage)
    import itertools
    lo = (F(0), F(0))
    hi = (F(1), F(1))
    got = list(itertools.islice(fo.enum_in_gap(lo, hi), 30))
    for e in got:
        assert fo.less(lo, e) and fo.less(e, hi)
    # the whole fibre column over 1/2 sits in this gap
    assert (F(1, 2), "pt") in got


def test_iso_into_factor_order():
    fo = FactorOrder(_floor_preimage)
    iso = build(FullQ(), fo)
    imgs = [iso.eval_fwd(x) for x in SAMPLE[:60]]
    for e in imgs:
        assert fo.contains(e)
    pairs = iso.memo_pairs()
    for (x1, y1), (x2, y2) in zip(pairs, pairs[1:]):
        assert x1 < x2 and fo.less(y1, y2)


# -- LexSum gap enumeration against brute force ------------------------------

BRUTE_N = 300  # Cantor indices covered by the brute force


def _uncantor(n):
    w = (math.isqrt(8 * n + 1) - 1) // 2
    j = n - w * (w + 1) // 2
    return w - j, j


def _product_fibre_element(a, j):
    return nth_rational(j)


def _floor_fibre_element(q, j):
    iv = _floor_preimage(q)
    if iv is None:
        return "pt" if j == 0 else None
    walk = enumerated_in_interval(iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)
    return next(itertools.islice(walk, j, None))


SUM_CASES = {
    "product": (_product, _product_fibre_element),
    "factor": (lambda: FactorOrder(_floor_preimage), _floor_fibre_element),
}


@functools.lru_cache(maxsize=None)
def _brute_elements(case):
    # (n, (a, b)) for every Cantor index n < BRUTE_N that names an element:
    # a is the n-th pair's index rational, b the matching fibre element
    fibre_element = SUM_CASES[case][1]
    out = []
    for n in range(BRUTE_N):
        i, j = _uncantor(n)
        a = nth_rational(i)
        b = fibre_element(a, j)
        if b is not None:
            out.append((n, (a, b)))
    return tuple(out)


@st.composite
def _sum_gaps(draw, case):
    order = SUM_CASES[case][0]()
    elements = [el for _, el in _brute_elements(case)[:120]]
    ends = st.one_of(st.none(), st.sampled_from(elements))
    lo, hi = draw(ends), draw(ends)
    if lo is not None and draw(st.booleans()):
        # both ends over the same index element
        siblings = [el for el in elements if el[0] == lo[0] and el != lo]
        assume(siblings)
        hi = draw(st.sampled_from(siblings))
    assume(lo is None or hi is None or lo != hi)
    if lo is not None and hi is not None and order.less(hi, lo):
        lo, hi = hi, lo
    return order, lo, hi


@pytest.mark.parametrize("case", sorted(SUM_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lex_sum_gap_enum_matches_brute_force(case, data):
    order, lo, hi = data.draw(_sum_gaps(case))
    want = [(n, el) for n, el in _brute_elements(case)
            if (lo is None or order.less(lo, el))
            and (hi is None or order.less(el, hi))]
    stream = ((order.index_of(el), el) for el in order.enum_in_gap(lo, hi))
    got = list(itertools.takewhile(lambda pair: pair[0] < BRUTE_N, stream))
    assert got == want


def test_determinism_across_sessions():
    def run():
        spec = ColouredQ()
        keep = Constraint("colour", spec.colour_label, spec.colour_label)
        iso = build(spec, spec, seed=[(F(-1), F(-3))], constraints=[keep])
        for x in SAMPLE[:80]:
            iso.eval_fwd(x)
        for y in SAMPLE[80:120]:
            iso.eval_bwd(y)
        return iso.memo_dump()
    assert run() == run()


def test_memo_dump_format():
    iso = build(FullQ(), FullQ(), seed=[(F(0), F(5)), (F(1, 2), F(11, 2))])
    assert iso.memo_dump() == "0 -> 5, 1/2 -> 11/2"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(),
                          st.fractions(min_value=-8, max_value=8,
                                       max_denominator=16)),
                max_size=25))
def test_memo_stays_partial_automorphism(requests):
    iso = build(FullQ(), FullQ(), seed=[(F(0), F(2))])
    for backward, x in requests:
        if backward:
            iso.eval_bwd(x)
        else:
            iso.eval_fwd(x)
    pairs = iso.memo_pairs()
    for (x1, y1), (x2, y2) in zip(pairs, pairs[1:]):
        assert x1 < x2 and y1 < y2
