"""Back-and-forth engine tests."""

import functools
import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qendo import ratcore
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
    RedQ,
    build,
)
from qendo.ratcore import (
    Colour,
    RatInterval,
    SearchExhausted,
    colour,
    enumerated_in_interval,
    nth_rational,
)

from util import fractions_between

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


def test_colour_preservation():
    spec = ColouredQ()
    keep = Constraint("colour", spec.colour_label, spec.colour_label)
    iso = build(spec, spec, seed=[(F(1, 2), F(5, 2))], constraint=keep)
    for x in SAMPLE:
        assert colour(iso.eval_fwd(x)) == colour(x)
    for y in SAMPLE:
        assert colour(iso.eval_bwd(y)) == colour(y)


def test_seed_violation_names_constraint():
    spec = ColouredQ()
    keep = Constraint("colour", spec.colour_label, spec.colour_label)
    # 0 is red, 1 is blue
    with pytest.raises(ConstraintViolation, match="colour"):
        build(spec, spec, seed=[(F(0), F(1))], constraint=keep)


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
    pytest.param(CLOSED_02, F(3, 2), F(1, 2), id="IntervalQ-reversed"),
    pytest.param(CLOSED_02, F(1), F(1), id="IntervalQ-equal"),
    pytest.param(PointOrder(), "pt", "pt", id="PointOrder-pt-pt"),
    pytest.param(LINE_OF_LINES, (F(1), F(0)), (F(0), F(0)), id="LexSum-index-reversed"),
    pytest.param(LINE_OF_LINES, (F(0), F(1)), (F(0), F(1)), id="LexSum-fibre-equal"),
    pytest.param(RedQ(), F(1), F(0), id="RedQ-reversed"),
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


def test_fault_cap_raises_search_exhausted(monkeypatch):
    # partners must have denominator > 5; the first such candidate comes
    # after more than 3 others in the enumeration
    wanted = Constraint("denominator", lambda x: True,
                        lambda y: y.denominator > 5)
    assert build(FullQ(), FullQ(), constraint=wanted).eval_fwd(F(0)) == F(4, 7)
    monkeypatch.setattr(ratcore, "SEARCH_CAP", 3)
    iso = build(FullQ(), FullQ(), constraint=wanted)
    with pytest.raises(SearchExhausted,
                       match=r"partner of 0 .*SEARCH_CAP=3 in the gap \(-inf, \+inf\)"):
        iso.eval_fwd(F(0))
    assert iso.memo_pairs() == ()


def test_red_target_only_red_values():
    iso = build(FullQ(), RedQ())
    for x in SAMPLE[:100]:
        assert colour(iso.eval_fwd(x)) == Colour.RED
    pairs = iso.memo_pairs()
    for (x1, y1), (x2, y2) in zip(pairs, pairs[1:]):
        assert x1 < x2 and y1 < y2


@pytest.mark.parametrize("with_min, with_max",
                         [(False, False), (True, False), (False, True), (True, True)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_red_q_is_the_red_part_of_coloured_q(with_min, with_max, data):
    # RedQ is the red part of every ColouredQ: its stream and membership
    # are ColouredQ's, filtered by colour_label
    base = ColouredQ(with_min, with_max)
    red = RedQ()
    ends = st.one_of(st.none(), SMALL_Q, st.sampled_from(SAMPLE))
    lo, hi = data.draw(ends), data.draw(ends)
    assume(lo is None or hi is None or lo != hi)
    if lo is not None and hi is not None and hi < lo:
        lo, hi = hi, lo
    want = (x for x in base.enum_in_gap(lo, hi) if base.colour_label(x) == Colour.RED)
    assert (list(itertools.islice(red.enum_in_gap(lo, hi), 30))
            == list(itertools.islice(want, 30)))
    markers = [Marker.MIN, Marker.MAX]
    els = data.draw(st.lists(st.one_of(SMALL_Q, st.sampled_from(SAMPLE + markers),
                                       st.just("pt"), st.tuples(SMALL_Q, SMALL_Q))))
    for el in els:
        assert red.contains(el) == (base.contains(el)
                                    and base.colour_label(el) == Colour.RED)


GAPS = [
    pytest.param(F(-1, 3), F(5, 2), id="bounded"),
    pytest.param(F(1, 2), None, id="above"),
    pytest.param(None, F(-3, 4), id="below"),
    pytest.param(None, None, id="whole-line"),
]


@pytest.mark.parametrize("lo, hi", GAPS)
def test_marker_free_coloured_q_streams_ratcore(lo, hi):
    want = list(itertools.islice(enumerated_in_interval(lo, hi), 50))
    assert list(itertools.islice(ColouredQ().enum_in_gap(lo, hi), 50)) == want


@pytest.mark.parametrize("lo, hi", GAPS)
@pytest.mark.parametrize("with_min, with_max", [
    pytest.param(True, False, id="minus"), pytest.param(False, True, id="plus"),
    pytest.param(True, True, id="pm")])
def test_coloured_q_yields_its_markers_first(with_min, with_max, lo, hi):
    # the markers inside the gap, then ratcore's stream
    spec = ColouredQ(with_min, with_max)
    markers = [m for m, inside in ((Marker.MIN, with_min and lo is None),
                                   (Marker.MAX, with_max and hi is None))
               if inside]
    got = list(itertools.islice(spec.enum_in_gap(lo, hi), 50))
    assert got[:len(markers)] == markers
    assert got[len(markers):] == list(
        itertools.islice(enumerated_in_interval(lo, hi), 50 - len(markers)))


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
            if p < q:
                assert imgs[p] < imgs[q]


def test_lex_product_enum_matches_index():
    # the whole enumeration runs along the Cantor diagonal of index and
    # fibre positions
    brute = [el for _, el in _brute_elements("product")]
    els = list(itertools.islice(_product().enum_in_gap(None, None), len(brute)))
    assert els == brute


def test_lex_product_gap_enum_respects_bounds():
    prod = _product()
    lo, hi = (F(0), F(0)), (F(1), F(0))
    got = list(itertools.islice(prod.enum_in_gap(lo, hi), 40))
    assert len(got) == 40
    for e in got:
        assert lo < e < hi


def _floor_preimage(q):
    if q.denominator == 1:
        return RatInterval(q, q + 1, True, False)
    return None


class _FloorMap:
    """The floor map y |-> floor(y), with the two methods FactorOrder asks
    of a map: its fibre over an integer q is [q, q+1), and other values
    are never attained."""

    @staticmethod
    def eval(y):
        return F(math.floor(y))

    point_preimage = staticmethod(_floor_preimage)


def test_factor_order_membership_and_order():
    fo = FactorOrder(_FloorMap())
    assert fo.contains((F(0), F(1, 2)))
    assert not fo.contains((F(0), F(3, 2)))
    assert fo.contains((F(1, 2), "pt"))
    assert not fo.contains((F(0), "pt"))
    assert (F(0), F(1, 2)) < (F(1, 2), "pt")
    assert (F(1, 2), "pt") < (F(1), F(1))
    assert (F(0), F(0)) < (F(0), F(2, 3))


def test_factor_order_enum_is_index_sorted():
    fo = FactorOrder(_FloorMap())
    brute = [el for _, el in _brute_elements("factor")]
    els = list(itertools.islice(fo.enum_in_gap(None, None), len(brute)))
    assert els == brute
    for e in els:
        assert fo.contains(e)


def test_factor_order_gap_enum():
    fo = FactorOrder(_FloorMap())
    import itertools
    lo = (F(0), F(0))
    hi = (F(1), F(1))
    got = list(itertools.islice(fo.enum_in_gap(lo, hi), 30))
    for e in got:
        assert lo < e < hi
    # the whole fibre column over 1/2 sits in this gap
    assert (F(1, 2), "pt") in got


def test_iso_into_factor_order():
    fo = FactorOrder(_FloorMap())
    iso = build(FullQ(), fo)
    imgs = [iso.eval_fwd(x) for x in SAMPLE[:60]]
    for e in imgs:
        assert fo.contains(e)
    pairs = iso.memo_pairs()
    for (x1, y1), (x2, y2) in zip(pairs, pairs[1:]):
        assert x1 < x2 and y1 < y2


# -- element order against a written-out reference --------------------------

def _ref_less(spec, a, b):
    # each spec's strict order spelled out spec by spec, as the specs'
    # own comparison methods gave it before elements carried their order;
    # it never compares a Marker or a tuple with `<`
    if isinstance(spec, ColouredQ):
        if a is Marker.MIN:
            return b is not Marker.MIN
        if a is Marker.MAX:
            return False
        if b is Marker.MIN:
            return False
        if b is Marker.MAX:
            return True
    elif isinstance(spec, PointOrder):
        return False
    elif isinstance(spec, LexSum):
        if a[0] != b[0]:
            return _ref_less(spec.index, a[0], b[0])
        return _ref_less(spec.fibre(a[0]), a[1], b[1])
    assert isinstance(a, F) and isinstance(b, F)
    return a < b


SMALL_Q = fractions_between(-3, 3, 4)
FEW_Q = st.sampled_from([F(-1), F(0), F(1, 2), F(1)])  # repeats often


def _coloured_case(with_min, with_max):
    spec = ColouredQ(with_min, with_max)
    markers = [m for m in (spec.min_el, spec.max_el) if m is not None]
    return spec, st.one_of(SMALL_Q, *map(st.just, markers))


_RED_SAMPLE = [x for x in SAMPLE if colour(x) == Colour.RED]

ORDER_CASES = {
    "FullQ": lambda: (FullQ(), SMALL_Q),
    "ColouredQ": lambda: _coloured_case(False, False),
    "ColouredQ-min": lambda: _coloured_case(True, False),
    "ColouredQ-max": lambda: _coloured_case(False, True),
    "ColouredQ-min-max": lambda: _coloured_case(True, True),
    "IntervalQ": lambda: (CLOSED_02, fractions_between(0, 2, 6)),
    "PointOrder": lambda: (PointOrder(), st.just("pt")),
    "LexSum-product": lambda: (_product(), st.tuples(FEW_Q, FEW_Q)),
    "LexSum-bounded-index": lambda: (
        LexSum(BOUNDED, lambda a: FullQ()),
        st.tuples(st.one_of(FEW_Q, st.sampled_from([Marker.MIN, Marker.MAX])),
                  FEW_Q)),
    "FactorOrder": lambda: (FactorOrder(_FloorMap()),
                            st.sampled_from([el for _, el in
                                             _brute_elements("factor")[:80]])),
    "RedQ": lambda: (RedQ(), st.sampled_from(_RED_SAMPLE)),
}


@pytest.mark.parametrize("case", sorted(ORDER_CASES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_element_order_matches_reference(case, data):
    spec, elements = ORDER_CASES[case]()
    a, b = data.draw(elements), data.draw(elements)
    assert spec.contains(a) and spec.contains(b)
    assert (a < b) == _ref_less(spec, a, b)
    assert (b < a) == _ref_less(spec, b, a)
    els = data.draw(st.lists(elements, max_size=12))
    want = sorted(els, key=functools.cmp_to_key(
        lambda u, v: -1 if _ref_less(spec, u, v) else int(_ref_less(spec, v, u))))
    assert sorted(els) == want


@settings(max_examples=40, deadline=None)
@given(st.lists(SMALL_Q, max_size=10), st.randoms())
def test_sorted_puts_min_first_and_max_last(rationals, rnd):
    els = rationals + [Marker.MAX, Marker.MIN]
    rnd.shuffle(els)
    got = sorted(els)
    assert got[0] is Marker.MIN and got[-1] is Marker.MAX
    assert got[1:-1] == sorted(rationals)


# -- LexSum gap enumeration against brute force ------------------------------

BRUTE_N = 300  # Cantor indices covered by the brute force


def _cantor(i, j):
    return (i + j) * (i + j + 1) // 2 + j


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
    "factor": (lambda: FactorOrder(_FloorMap()), _floor_fibre_element),
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
    if lo is not None and hi is not None and _ref_less(order, hi, lo):
        lo, hi = hi, lo
    return order, lo, hi


LANE_SCAN = 20_000  # enumeration positions the oracle scans for an end lane


@functools.lru_cache(maxsize=None)
def _first_rationals():
    return tuple(nth_rational(k) for k in range(LANE_SCAN))


def _gap_oracle(case, order, lo, hi):
    # every element of the gap (lo, hi) whose key is below BRUTE_N, in key
    # order.  Over an index element strictly inside the gap the key is the
    # element's Cantor index; over an end's index element a it is
    # cantor(i, j) for a's index position i and the element's place j in
    # the lane of a's fibre that the gap keeps.  None when an end lane
    # runs deeper than the scan: it has members there, but fewer than the
    # places needed.  A lane with no member in the scan is taken as empty:
    # ends come from the first brute-force elements, so a nonempty lane
    # has a member far inside the scan
    index = {el[0]: _uncantor(n)[0] for n, el in _brute_elements(case)}
    ends = {end[0] for end in (lo, hi) if end is not None}
    want = [(n, el) for n, el in _brute_elements(case) if el[0] not in ends
            and (lo is None or _ref_less(order, lo, el))
            and (hi is None or _ref_less(order, el, hi))]
    for a in ends:
        i = index[a]
        places = sum(1 for j in range(BRUTE_N) if _cantor(i, j) < BRUTE_N)
        lo_b = lo[1] if lo is not None and lo[0] == a else None
        hi_b = hi[1] if hi is not None and hi[0] == a else None
        # the fibre's rationals strictly between lo_b and hi_b (None =
        # open), in enumeration order, as far as the scan reaches
        fibre = order.fibre(a)
        lane = list(itertools.islice(
            (y for y in _first_rationals() if fibre.contains(y)
             and (lo_b is None or lo_b < y) and (hi_b is None or y < hi_b)),
            places))
        if 0 < len(lane) < places:
            return None
        want += [(_cantor(i, j), (a, b)) for j, b in enumerate(lane)]
    return [el for _, el in sorted(want)]


@pytest.mark.parametrize("case", sorted(SUM_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lex_sum_gap_enum_matches_brute_force(case, data):
    order, lo, hi = data.draw(_sum_gaps(case))
    want = _gap_oracle(case, order, lo, hi)
    assume(want is not None)
    assert list(itertools.islice(order.enum_in_gap(lo, hi), len(want))) == want


def test_determinism_across_sessions():
    def run():
        spec = ColouredQ()
        keep = Constraint("colour", spec.colour_label, spec.colour_label)
        iso = build(spec, spec, seed=[(F(-1), F(-3))], constraint=keep)
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
                          fractions_between(-8, 8, 16)),
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


# -- the engine against a written-out reference ------------------------------

import bisect  # noqa: E402
from operator import itemgetter  # noqa: E402

from qendo import generic  # noqa: E402
from qendo.generic import extend_pair, generic_embedding  # noqa: E402
from qendo.partialmap import FinitePartialMap  # noqa: E402


class _ReferenceIso(LazyIso):
    """LazyIso with the extension step written out plainly: a fresh
    itemgetter per bisect, enumerate over the gap, and a membership test
    and the constraint's test for each candidate.  It must choose
    every partner the engine chooses; the engine leaves out the membership
    test, so a gap enumeration that yields a non-member shows here."""

    def _extend(self, el, side):
        forward = side == "target"
        if forward:
            key_idx, val_idx, own, other = 0, 1, self.source, self.target
        else:
            key_idx, val_idx, own, other = 1, 0, self.target, self.source
        i = bisect.bisect_left(self._pairs, el, key=itemgetter(key_idx))
        lo = self._pairs[i - 1][val_idx] if i > 0 else None
        hi = self._pairs[i][val_idx] if i < len(self._pairs) else None

        cap = ratcore.SEARCH_CAP
        for steps, cand in enumerate(other.enum_in_gap(lo, hi)):
            if steps > cap:
                break
            if not other.contains(cand):
                continue
            x, y = (el, cand) if forward else (cand, el)
            if self.constraint is None or self.constraint.admissible(x, y):
                self._insert(i, x, y)
                return cand
        raise SearchExhausted(
            f"back-and-forth search for a partner of {own.format_el(el)}",
            lo, hi, other.format_el)


def _reference_build(source, target, seed=(), constraint=None):
    return _ReferenceIso(source, target, seed=seed, constraint=constraint)


MID_Q = fractions_between(-6, 6, 12)

# case -> (a fresh target spec, a strategy for its elements)
ENGINE_CASES = {
    "FullQ": lambda: (FullQ(), MID_Q),
    "RedQ": lambda: (RedQ(), st.sampled_from(_RED_SAMPLE)),
    "LexSum": lambda: (_product(), st.tuples(MID_Q, MID_Q)),
    "FactorOrder": lambda: (FactorOrder(_FloorMap()),
                            st.sampled_from([el for _, el in
                                             _brute_elements("factor")])),
}


def _requests(draw, sources, targets, backward_share, most=30):
    # a random sequence of forward and backward evaluations
    n = draw(st.integers(1, most))
    return [(True, draw(targets)) if draw(st.integers(0, 99)) < backward_share
            else (False, draw(sources)) for _ in range(n)]


def _run(iso, requests):
    # each evaluation's value, or the message of the search that ran out
    out = []
    for backward, el in requests:
        try:
            out.append((iso.eval_bwd if backward else iso.eval_fwd)(el))
        except SearchExhausted as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_engine_matches_the_reference_extension(case, data):
    target, elements = ENGINE_CASES[case]()
    # LexSum is evaluated mostly backward, into the sum
    share = 80 if case == "LexSum" else 50
    requests = _requests(data.draw, MID_Q, elements, share)
    iso = build(FullQ(), target)
    reference = _reference_build(FullQ(), ENGINE_CASES[case]()[0])
    assert _run(iso, requests) == _run(reference, requests)
    assert iso.memo_pairs() == reference.memo_pairs()


def _commuting_pair(make, variant="core", blue_move=False):
    # a generic embedding and an extended commuting pair seeded by one
    # non-trivial step (u, s) -> (u, t) between image points, every iso
    # built by make.  With blue_move, a also moves the first point of a
    # blue class between g(u) and s to the second, so one class has a φ.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generic, "build", make)
        g, cert = generic_embedding(variant)
        gu = g.eval(F(0))
        s = next(iter(cert.image_points_between(gu, None)))
        t = next(iter(cert.image_points_between(s, None)))
        moves = [(gu, gu), (s, t)]
        if blue_move:
            blue = cert.blue_index_between(cert.class_of(gu), cert.class_of(s))
            moves.append(tuple(itertools.islice(cert.class_points(blue), 2)))
        a = FinitePartialMap.from_pairs(moves)
        b = FinitePartialMap.from_pairs(
            [(F(0), F(0)), (cert.inverse_image(s), cert.inverse_image(t))])
        pair = extend_pair(g, cert, a, b)
    return cert, pair, a


def _pair_points(cert, a):
    # the first points of every class that a meets, then image points
    points = []
    for q in sorted({cert.class_of(x) for pair in a.pairs for x in pair}):
        points += itertools.islice(cert.class_points(q), 4)
    return points + [cert.embedding.eval(nth_rational(i)) for i in range(8)]


@functools.cache
def _core_pair_points():
    # the same for the blue-move pair at "core".  The build is
    # deterministic, so a fresh pair has the same class points
    cert, _, a = _commuting_pair(build, blue_move=True)
    return tuple(_pair_points(cert, a))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_engine_matches_the_reference_on_extend_pair_constraints(data):
    points = st.one_of(MID_Q, st.sampled_from(_core_pair_points()))
    requests = _requests(data.draw, points, points, 50, most=12)
    states = []
    for make in (build, _reference_build):
        cert, pair, _ = _commuting_pair(make, blue_move=True)
        alpha = pair.alpha_iso
        isos = [alpha.iota, *alpha.phi.values(), cert.index_iso, cert.red_iso]
        assert len(alpha.phi) == 1
        assert all(isinstance(iso, _ReferenceIso) == (make is _reference_build)
                   for iso in isos)
        values = _run(alpha, requests)
        states.append((values, [iso.memo_pairs() for iso in isos]))
    assert states[0] == states[1]


def test_extend_pair_alpha_extends_after_a_backward_step():
    # the step at 2, after a backward step, is where a FullQ search for
    # alpha ran out of admissible class points (CHANGES.md, extend_pair)
    _, pair, _ = _commuting_pair(build)
    alpha = pair.alpha_iso
    seen = {x: alpha.eval_fwd(x) for x in (F(-1, 2), F(1), F(4), F(5, 2))}
    seen[alpha.eval_bwd(F(1, 3))] = F(1, 3)
    seen[F(2)] = alpha.eval_fwd(F(2))
    xs = sorted(seen)
    assert all(seen[x1] < seen[x2] for x1, x2 in zip(xs, xs[1:]))


@pytest.mark.parametrize("variant", generic.VARIANTS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_alpha_keeps_order_inverse_image_and_classes(variant, data):
    cert, pair, a = _commuting_pair(build, variant, blue_move=True)
    alpha, iota = pair.alpha_iso, pair.alpha_iso.iota
    points = st.one_of(MID_Q, st.sampled_from(_pair_points(cert, a)))
    seen = dict(a.pairs)
    assert all(alpha.eval_fwd(x) == y for x, y in a.pairs)
    for backward, el in _requests(data.draw, points, points, 50, most=40):
        x, y = (alpha.eval_bwd(el), el) if backward else (el, alpha.eval_fwd(el))
        assert alpha.eval_fwd(x) == y and alpha.eval_bwd(y) == x
        assert cert.in_image(y) == cert.in_image(x)
        assert cert.class_of(y) == iota.eval_fwd(cert.class_of(x))
        seen[x] = y
    xs = sorted(seen)
    assert all(seen[x1] < seen[x2] for x1, x2 in zip(xs, xs[1:]))


@pytest.mark.parametrize("make", [build, _reference_build], ids=["engine", "reference"])
@pytest.mark.parametrize("admissible_at, accepted", [(3, True), (4, False)])
def test_fault_cap_bounds_the_scan_index(monkeypatch, make, admissible_at, accepted):
    # FullQ's whole enumeration offers nth_rational(0), (1), ...; only
    # index admissible_at is admissible.  With SEARCH_CAP = 3 the scan
    # covers indices 0..3
    monkeypatch.setattr(ratcore, "SEARCH_CAP", 3)
    wanted = nth_rational(admissible_at)
    offered = Constraint("offered", lambda x: True, lambda y: y == wanted)
    iso = make(FullQ(), FullQ(), constraint=offered)
    if accepted:
        assert iso.eval_fwd(F(0)) == wanted
    else:
        with pytest.raises(SearchExhausted, match="SEARCH_CAP=3"):
            iso.eval_fwd(F(0))
        assert iso.memo_pairs() == ()
