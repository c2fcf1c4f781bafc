"""Frozen enumeration/colour values (computed by an independent oracle) plus
property tests for the interval and search machinery, and for the Rat type
against Fraction."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qendo.ratcore import (
    Colour,
    Rat,
    RatInterval,
    colour,
    colour_witness,
    content_lines,
    enumerated_in_interval,
    least_index_in_interval,
    nth_rational,
    parse_rat,
    rat_index,
    simplest_between,
)

from util import fractions_anywhere, fractions_between, intersect_intervals

# independently derived via the Newman single-fraction recurrence
FIRST_16 = [
    F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(-2), F(1, 3), F(-1, 3),
    F(3, 2), F(-3, 2), F(2, 3), F(-2, 3), F(3), F(-3), F(1, 4),
]


def test_enumeration_prefix_frozen():
    assert [nth_rational(n) for n in range(16)] == FIRST_16


def test_enumeration_pinned_singletons():
    assert nth_rational(0) == 0
    assert nth_rational(1) == 1
    assert nth_rational(2) == -1
    assert nth_rational(3) == F(1, 2)
    assert nth_rational(5) == 2


def test_enumeration_injective_prefix():
    seen = {nth_rational(n) for n in range(10000)}
    assert len(seen) == 10000


def test_enumeration_box_coverage():
    # every p/q with |p| <= 12, 1 <= q <= 12 appears among the first 10^4
    seen = {nth_rational(n) for n in range(10000)}
    for p in range(-12, 13):
        for q in range(1, 13):
            assert F(p, q) in seen


def test_rat_index_roundtrip_frozen():
    for n in range(2000):
        assert rat_index(nth_rational(n)) == n


@given(st.integers(-500, 500), st.integers(1, 500))
def test_rat_index_roundtrip_random(p, q):
    # tree depth is the continued-fraction coefficient sum, so keep the
    # numerators/denominators small enough that indices stay a few hundred
    # bits wide
    x = F(p, q)
    assert nth_rational(rat_index(x)) == x


def test_colour_frozen_values():
    assert colour(F(0)) == Colour.RED
    assert colour(F(1)) == Colour.BLUE
    assert colour(F(1, 2)) == Colour.RED
    assert colour(F(-1)) == Colour.BLUE
    assert colour(F(2)) == Colour.RED
    assert colour(F(1, 3)) == Colour.BLUE
    assert colour(F(5, 3)) == Colour.BLUE


def test_colour_census_first_200():
    reds = sum(1 for n in range(200) if colour(nth_rational(n)) == Colour.RED)
    assert reds == 133
    assert 200 - reds == 67


def test_simplest_between_frozen():
    assert simplest_between(F(0), F(1)) == F(1, 2)
    assert simplest_between(F(1, 3), F(1, 2)) == F(2, 5)
    assert simplest_between(F(-2), F(-1)) == F(-3, 2)
    assert simplest_between(F(7, 5), F(10, 7)) == F(17, 12)
    assert simplest_between(None, F(3)) == F(2)
    assert simplest_between(F(3), None) == F(4)
    assert simplest_between(None, None) == F(0)


@given(fractions_anywhere(50), fractions_anywhere(50))
def test_simplest_between_is_inside(a, b):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    m = simplest_between(lo, hi)
    assert lo < m < hi


def test_colour_witness_frozen():
    assert colour_witness(F(0), F(1), Colour.RED) == F(1, 2)
    assert colour_witness(F(0), F(1), Colour.BLUE) == F(1, 3)
    assert colour_witness(F(1, 3), F(1, 2), Colour.RED) == F(2, 5)
    assert colour_witness(F(1, 3), F(1, 2), Colour.BLUE) == F(3, 7)
    assert colour_witness(F(-2), F(-1), Colour.RED) == F(-3, 2)
    assert colour_witness(F(-2), F(-1), Colour.BLUE) == F(-5, 3)
    assert colour_witness(F(7, 5), F(10, 7), Colour.RED) == F(17, 12)
    assert colour_witness(F(7, 5), F(10, 7), Colour.BLUE) == F(27, 19)


@given(fractions_anywhere(30), fractions_anywhere(30))
def test_colour_witness_properties(a, b):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    for want in (Colour.RED, Colour.BLUE):
        w = colour_witness(lo, hi, want)
        assert lo < w < hi
        assert colour(w) == want


def test_enumerated_in_interval_matches_bruteforce():
    # dual route: lazy heap walk vs filtering the raw enumeration
    # bounds stay small: values beyond +-n first appear at index ~2^n, so
    # the brute-force route is only feasible for shallow intervals
    cases = [
        (F(0), F(1)),
        (F(-3, 2), F(5, 7)),
        (None, F(-2)),
        (F(5), None),
        (None, None),
    ]
    for lo, hi in cases:
        walk = enumerated_in_interval(lo, hi)
        got = [next(walk) for _ in range(40)]
        want = []
        n = 0
        while len(want) < 40:
            x = nth_rational(n)
            if (lo is None or x > lo) and (hi is None or x < hi):
                want.append(x)
            n += 1
        assert got == want


def test_least_index_in_interval():
    assert least_index_in_interval(F(0), F(1)) == F(1, 2)
    assert least_index_in_interval(F(1), F(100)) == F(2)
    assert least_index_in_interval(None, None) == F(0)
    assert least_index_in_interval(
        F(0), F(1), pred=lambda x: colour(x) == Colour.BLUE) == F(1, 3)


def test_content_lines_drop_comments_and_blank_lines():
    text = "# header\n\n  a b  # note\n#\nc#d\n   \n  e\n"
    assert list(content_lines(text)) == [(3, "a b"), (5, "c"), (7, "e")]


def test_interval_basics():
    iv = RatInterval.parse("[-1/2,3)")
    assert iv.contains(F(-1, 2))
    assert iv.contains(F(0))
    assert not iv.contains(F(3))
    assert str(iv) == "[-1/2,3)"
    full = RatInterval.parse("(-inf,+inf)")
    assert full.contains(F(10 ** 9))
    assert str(full) == "(-inf,+inf)"
    with pytest.raises(ValueError):
        RatInterval(None, F(0), lo_closed=True)
    # bounds of every accepted type are ordered after conversion to Rat
    for kind in (Rat, F, int):
        with pytest.raises(ValueError, match="out of order"):
            RatInterval(kind(1), kind(0))
        with pytest.raises(ValueError, match="out of order"):
            RatInterval(kind(-1), kind(-2), True, True)
        for lc, hc in ((False, False), (True, False), (False, True)):
            with pytest.raises(ValueError, match="empty"):
                RatInterval(kind(1), kind(1), lc, hc)  # only [a,a] holds a
        iv = RatInterval(kind(1), kind(1), True, True)
        assert type(iv.lo) is Rat and type(iv.hi) is Rat and iv.is_degenerate()
    with pytest.raises(ValueError, match="out of order"):
        RatInterval(F(1, 3), F(1, 4))  # cross products 4 > 3
    assert RatInterval(F(1, 4), F(1, 3)).contains(F(2, 7))


@given(fractions_anywhere(20), fractions_anywhere(20),
       st.booleans(), st.booleans())
@example(F(3, 4), F(3, 4), True, True)  # the one-point interval
@settings(max_examples=200)
def test_interval_roundtrip(a, b, lc, hc):
    lo, hi = min(a, b), max(a, b)
    if lo == hi and not (lc and hc):
        return
    iv = RatInterval(lo, hi, lc, hc)
    assert RatInterval.parse(str(iv)) == iv
    # the enumeration's first element of the open interior lies in the
    # interval.  The walk builds exact indices, whose size is the
    # Stern-Brocot depth, at most |p| + q for an end p/q, so only intervals
    # with shallow ends are walked
    if lo < hi and all(abs(x.numerator) + x.denominator <= 10_000 for x in (lo, hi)):
        assert iv.contains(next(enumerated_in_interval(lo, hi)))


def test_parse_rat():
    assert parse_rat("3/4") == F(3, 4)
    assert parse_rat(" -7 ") == F(-7)
    with pytest.raises(ValueError):
        parse_rat("1.5x")
    with pytest.raises(ValueError):
        parse_rat("1/0")


# ---------------------------------------------------------------------------
# interval unions
# ---------------------------------------------------------------------------

from qendo.ratcore import (  # noqa: E402
    FULL_LINE,
    gap_witness_point,
    merge_intervals,
    union_contains,
    union_gaps,
)


def iv(s):
    return RatInterval.parse(s)


def test_merge_intervals():
    got = merge_intervals([iv("(0,1)"), iv("[1,2]"), iv("(5,6)")])
    assert got == (iv("(0,2]"), iv("(5,6)"))
    assert merge_intervals([iv("(0,1)"), iv("(1,2)")]) == (iv("(0,1)"), iv("(1,2)"))
    assert merge_intervals([iv("(-inf,0)"), iv("[0,+inf)")]) == (FULL_LINE,)
    assert merge_intervals([iv("[0,5]"), iv("[1,2]")]) == (iv("[0,5]"),)
    assert merge_intervals([]) == ()


def test_union_gaps():
    # the image of the one-jump map: everything except [0,1)
    gaps = union_gaps(merge_intervals([iv("(-inf,0)"), iv("[1,+inf)")]))
    assert gaps == (iv("[0,1)"),)
    # single missing point
    gaps = union_gaps(merge_intervals([iv("(-inf,0)"), iv("(0,+inf)")]))
    assert gaps == (iv("[0,0]"),)
    assert union_gaps((FULL_LINE,)) == ()
    assert union_gaps(()) == (FULL_LINE,)


def test_gap_witness_point():
    assert gap_witness_point(iv("[0,1)")) == F(1, 2)
    assert gap_witness_point(iv("[3,3]")) == F(3)


def test_intersect_intervals():
    assert intersect_intervals(iv("[0,2)"), iv("(1,3]")) == iv("(1,2)")
    assert intersect_intervals(iv("[0,1)"), iv("[1,2]")) is None
    assert intersect_intervals(iv("[0,1]"), iv("[1,2]")) == iv("[1,1]")
    assert intersect_intervals(FULL_LINE, iv("(-3,7]")) == iv("(-3,7]")


@given(st.lists(st.tuples(fractions_anywhere(8),
                          fractions_anywhere(8),
                          st.booleans(), st.booleans()), max_size=6),
       fractions_anywhere(16))
# two intervals that touch at 1 open on both sides: the draws rarely bring
# a point at such a touch
@example([(F(0), F(1), False, False), (F(1), F(2), False, False)], F(1))
@settings(max_examples=300)
def test_union_machinery_pointwise(raw, x):
    ivs = []
    for a, b, lc, hc in raw:
        lo, hi = min(a, b), max(a, b)
        if lo == hi and not (lc and hc):
            continue
        ivs.append(RatInterval(lo, hi, lc, hc))
    canon = merge_intervals(ivs)
    in_union = any(i.contains(x) for i in ivs)
    assert union_contains(canon, x) == in_union
    assert any(g.contains(x) for g in union_gaps(canon)) == (not in_union)
    # canonical form really is disjoint and non-touching
    for c1, c2 in zip(canon, canon[1:]):
        assert c1.hi is not None and c2.lo is not None
        assert c1.hi < c2.lo or (c1.hi == c2.lo
                                 and not c1.hi_closed and not c2.lo_closed)


def test_interval_rationals_order():
    stream = enumerated_in_interval(F(0), F(1))
    got = [next(stream) for _ in range(6)]
    want = [x for n in range(200) for x in [nth_rational(n)]
            if F(0) < x < F(1)][:6]
    assert got == want


# ---------------------------------------------------------------------------
# the integer Stern-Brocot walk against the Fraction implementation it
# replaced
# ---------------------------------------------------------------------------

import heapq  # noqa: E402
import itertools  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import tracemalloc  # noqa: E402
from collections import deque  # noqa: E402

from qendo import ratcore  # noqa: E402
from qendo.ratcore import SearchExhausted  # noqa: E402


def _oracle_rat_index(x):
    # bit-string index: 1, then the parent steps read top-down
    if x == 0:
        return 0
    p, q = abs(x).numerator, abs(x).denominator
    runs = []
    while (p, q) != (1, 1):
        if p > q:
            k = (p - 1) // q
            runs.append(("1", k))
            p -= k * q
        else:
            k = (q - 1) // p
            runs.append(("0", k))
            q -= k * p
    k = int("1" + "".join(bit * k for bit, k in reversed(runs)), 2)
    return 2 * k - 1 if x > 0 else 2 * k


def _oracle_simplest(lo, hi):
    # Fraction reciprocal recursion on the continued fraction
    if lo is None and hi is None:
        return F(0)
    if lo is None:
        f = math.floor(hi)
        return F(f if f < hi else f - 1)
    if hi is None:
        return F(math.floor(lo) + 1)
    if lo < 0 < hi:
        return F(0)
    if hi <= 0:
        return -_oracle_simplest(-hi, -lo)
    n = math.floor(lo)
    if n + 1 < hi:
        return F(n + 1)
    if lo == n:
        return n + 1 / F(math.floor(1 / (hi - n)) + 1)
    return n + 1 / _oracle_simplest(1 / (hi - n), 1 / (lo - n))


def _oracle_meeting_node(lo, hi):
    # one mediant step at a time
    p_lo, q_lo, p_hi, q_hi = 0, 1, 1, 0
    p, q = 1, 1
    while True:
        m = F(p, q)
        if lo is not None and m <= lo:
            p_lo, q_lo = p, q
        elif hi is not None and m >= hi:
            p_hi, q_hi = p, q
        else:
            return m
        p, q = p_lo + p_hi, q_lo + q_hi


def _oracle_enumerated(lo, hi):
    # heap keyed by an index recomputed from every value
    heap = []

    def push(a, b, sign):
        if a is not None and b is not None and a >= b:
            return
        m = sign * _oracle_meeting_node(a, b)
        heapq.heappush(heap, (_oracle_rat_index(m), m, a, b))

    if (lo is None or lo < 0) and (hi is None or hi > 0):
        heapq.heappush(heap, (0, F(0), None, None))
    if hi is None or hi > 0:
        push(None if lo is None or lo <= 0 else lo, hi, 1)
    if lo is None or lo < 0:
        push(None if hi is None or hi >= 0 else -hi,
             None if lo is None else -lo, -1)
    while heap:
        _, x, a, b = heapq.heappop(heap)
        yield x
        if x != 0:
            push(a, abs(x), 1 if x > 0 else -1)
            push(abs(x), b, 1 if x > 0 else -1)


def _check_against_oracle(lo, hi):
    assert simplest_between(lo, hi) == _oracle_simplest(lo, hi)
    got = list(itertools.islice(enumerated_in_interval(lo, hi), 25))
    assert got == list(itertools.islice(_oracle_enumerated(lo, hi), 25))
    indices = [rat_index(x) for x in got]
    assert all(i < j for i, j in zip(indices, indices[1:]))
    assert all((lo is None or lo < x) and (hi is None or x < hi) for x in got)


_BOUND = st.one_of(st.none(), fractions_between(-40, 40, 40))


@given(_BOUND, _BOUND)
@settings(max_examples=300)
def test_walk_matches_fraction_oracle(a, b):
    # bounded, one-sided and unbounded intervals
    if a is not None and b is not None:
        if a == b:
            return
        a, b = min(a, b), max(a, b)
    _check_against_oracle(a, b)


_FIRST_6000 = sorted(nth_rational(n) for n in range(6000))


@given(st.integers(0, len(_FIRST_6000) - 2))
@settings(max_examples=300)
def test_walk_matches_fraction_oracle_on_adjacent_enumerated_pairs(i):
    _check_against_oracle(_FIRST_6000[i], _FIRST_6000[i + 1])


def test_walk_far_from_zero_frozen():
    # recorded with the one-mediant-step walk, which needed 10^5 steps here
    walk = enumerated_in_interval(F(10 ** 5), F(10 ** 5 + 1))
    assert list(itertools.islice(walk, 5)) == [
        F(200001, 2), F(300001, 3), F(300002, 3), F(400001, 4), F(500003, 5)]


def test_simplest_between_takes_runs_not_steps():
    # a run of 177033183232 right moves, taken as one floor division
    assert simplest_between(F(177033183232), F(2200749116387)) == 177033183233


# ---------------------------------------------------------------------------
# the walk builds the Calkin-Wilf index as it goes
# ---------------------------------------------------------------------------

_ZERO, _INF = (0, 1), (1, 0)


def _pair(x):
    return _INF if x is None else (x.numerator, x.denominator)


def _check_walk_index(a, b, levels):
    # from the root, whose index is 1, and then from the child subtrees
    # that enumerated_in_interval pushes when it pops each node, `levels`
    # deep: the index the walk returns is the found node's, and asking for
    # none finds the same node with index 0
    gaps = [(a, b, _ZERO, _INF, 1)]
    for _ in range(levels):
        children = []
        for a, b, left, right, k in gaps:
            if a[0] * b[1] >= b[0] * a[1]:
                continue
            node, sub_left, sub_right, index = ratcore._descend(a, b, left, right, k)
            assert index == ratcore._positive_index(*node)
            assert 2 * index - 1 == _oracle_rat_index(F(*node))
            assert ratcore._descend(a, b, left, right) == (node, sub_left, sub_right, 0)
            children += [(a, node, sub_left, sub_right, index),
                         (node, b, sub_left, sub_right, index)]
        gaps = children


_POSITIVE_END = st.one_of(st.none(), fractions_between(0, 40, 40))


@given(_POSITIVE_END, _POSITIVE_END)
@settings(max_examples=300)
def test_walk_index_matches_positive_index(a, b):
    # random open gaps of the positive side (the negative side walks the
    # reflected gap), None being +inf
    if a is None or (b is not None and b < a):
        a, b = b, a
    if a is None or a == b:
        return
    _check_walk_index(_pair(a), _pair(b), levels=4)


def test_walk_index_matches_positive_index_on_adjacent_enumerated_pairs():
    for x, y in zip(_FIRST_6000, _FIRST_6000[1:]):
        if y <= 0:
            x, y = -y, -x
        _check_walk_index(_pair(x), _pair(y), levels=2)


def test_a_long_run_builds_no_index_when_none_is_asked():
    # the walk into (157306025, 194302164) starts with a run of 157306025
    # right moves: that run's index bits alone take about 20 MB
    lo, hi = F(157306025), F(194302164)
    for search in (lambda: simplest_between(lo, hi),
                   lambda: colour_witness(lo, hi, Colour.RED),
                   lambda: colour_witness(lo, hi, Colour.BLUE)):
        tracemalloc.start()
        try:
            search()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_least_index_in_empty_interval_is_a_value_error():
    with pytest.raises(ValueError, match="empty open interval"):
        least_index_in_interval(F(1), F(0))


def test_enumerated_in_empty_interval_is_a_value_error():
    for lo, hi in ((F(1), F(0)), (F(1), F(1))):
        with pytest.raises(ValueError, match="empty open interval"):
            next(enumerated_in_interval(lo, hi))


def test_rat_interval_with_a_closed_infinite_end_is_a_value_error():
    for lo, hi, lo_closed, hi_closed, message in (
            (None, F(1), True, False, "-inf endpoint must be open"),
            (F(1), None, False, True, "+inf endpoint must be open"),
            (None, None, True, True, "-inf endpoint must be open"),
            (None, None, False, True, "+inf endpoint must be open")):
        with pytest.raises(ValueError, match=re.escape(message)):
            RatInterval(lo, hi, lo_closed, hi_closed)


def test_least_index_limit_raises_search_exhausted(monkeypatch):
    monkeypatch.setattr(ratcore, "SEARCH_CAP", 10)
    with pytest.raises(SearchExhausted,
                       match=r"SEARCH_CAP=10 in the gap \(0, 1\)"):
        least_index_in_interval(F(0), F(1), pred=lambda x: False)


def test_colour_witness_bound_raises_search_exhausted(monkeypatch):
    # the first split of (1/3, 1/2) is at 2/5, which is red; a cap of 0
    # allows that split only, and the blue witness 3/7 comes later
    monkeypatch.setattr(ratcore, "SEARCH_CAP", 0)
    assert colour_witness(F(1, 3), F(1, 2), Colour.RED) == F(2, 5)
    with pytest.raises(SearchExhausted,
                       match=r"SEARCH_CAP=0 in the gap \(1/3, 1/2\)"):
        colour_witness(F(1, 3), F(1, 2), Colour.BLUE)


def test_colour_witness_on_a_gap_of_large_denominators():
    # every rational in (0, 1/10^6) has a denominator above 10^6; the
    # search counts splits, not denominators
    gap = (F(0), F(1, 10 ** 6))
    assert colour_witness(*gap, Colour.BLUE) == F(1, 1000001)
    assert colour_witness(*gap, Colour.RED) == F(1, 1000002)


def _colour_witness_bfs(lo, hi, want):
    # the breadth-first search over Rat gaps that colour_witness walks in
    # integers: each gap split at simplest_between, both halves queued
    queue = deque([(lo, hi)])
    for _ in range(ratcore.SEARCH_CAP + 1):
        a, b = queue.popleft()
        m = simplest_between(a, b)
        if colour(m) == want:
            return m
        queue.extend(((a, m), (m, b)))
    raise SearchExhausted(f"colour witness search for {want}", lo, hi)


def _witness_outcome(search, lo, hi, want):
    try:
        return search(lo, hi, want)
    except SearchExhausted as exc:
        return str(exc)


def test_colour_witness_matches_the_bfs_on_the_suite_pairs():
    # every pair of the ratcore suite's first 200 rationals, both colours:
    # gaps on each side of 0 and around it
    pts = sorted(nth_rational(i) for i in range(200))
    for a, b in itertools.combinations(pts, 2):
        for want in Colour:
            assert colour_witness(a, b, want) == _colour_witness_bfs(a, b, want), (a, b)


@settings(max_examples=200, deadline=None)
@given(fractions_anywhere(1000), fractions_anywhere(1000))
def test_colour_witness_matches_the_bfs(a, b):
    if a == b:
        return
    lo, hi = min(a, b), max(a, b)
    for want in Colour:
        assert colour_witness(lo, hi, want) == _colour_witness_bfs(lo, hi, want)


@pytest.mark.parametrize("gap", [(F(-1), F(1)), (F(-2), F(-1)), (F(0), F(1)),
                                 (F(-1, 3), F(0)), (F(7, 5), F(10, 7))])
def test_colour_witness_counts_splits_as_the_bfs_does(monkeypatch, gap):
    # the split at 0 of a gap around it counts as one
    for cap in range(8):
        monkeypatch.setattr(ratcore, "SEARCH_CAP", cap)
        for want in Colour:
            assert (_witness_outcome(colour_witness, *gap, want)
                    == _witness_outcome(_colour_witness_bfs, *gap, want)), (cap, want)


def test_colour_witness_needs_finite_ordered_bounds():
    for lo, hi in ((None, F(1)), (F(0), None), (None, None)):
        with pytest.raises(ValueError, match="need finite lo and hi"):
            colour_witness(lo, hi, Colour.RED)
    with pytest.raises(ValueError, match="need lo < hi"):
        colour_witness(F(1), F(1), Colour.BLUE)


def test_colour_witness_wants_a_colour():
    # a colour's name is not a colour: "red" must not be searched for as blue
    for want in ("red", "blue", None, 0, 1):
        with pytest.raises(ValueError, match="want must be a Colour"):
            colour_witness(F(0), F(1), want)


# ---------------------------------------------------------------------------
# the walk against the raw enumeration, 0 and the infinities among the ends
# ---------------------------------------------------------------------------

_FIRST_4096 = [nth_rational(n) for n in range(4096)]
_END = st.one_of(st.none(), st.just(F(0)), fractions_between(-5, 5, 6))


@given(_END, _END)
@example(F(0), F(0))
@example(F(1, 2), F(1, 2))
@settings(max_examples=300)
def test_open_intervals_match_brute_force(a, b):
    # bounded intervals on either side of 0 or around it, ends at 0,
    # half-lines, the whole line; ends out of order or equal are empty
    assert all(rat_index(x) < len(_FIRST_4096) for x in (a, b) if x is not None)
    walk = enumerated_in_interval(a, b)
    if a is not None and b is not None and a >= b:
        with pytest.raises(ValueError, match="empty open interval"):
            next(walk)
        return
    want = [x for x in _FIRST_4096
            if (a is None or a < x) and (b is None or x < b)]
    got = list(itertools.islice(walk, len(want) + 1))
    assert got[:len(want)] == want
    assert all(rat_index(x) >= len(_FIRST_4096) for x in got[len(want):])
    indices = [rat_index(x) for x in got]
    assert all(i < j for i, j in zip(indices, indices[1:]))


# ---------------------------------------------------------------------------
# Rat against Fraction
# ---------------------------------------------------------------------------

import operator  # noqa: E402
import sys  # noqa: E402

from qendo.endo import Piece, PiecewiseEndo, compose, pseudo_section  # noqa: E402
from qendo.generic import generic_embedding  # noqa: E402
from qendo.lazyiso import Marker  # noqa: E402
from qendo.ratcore import Rat  # noqa: E402

_MODULUS = sys.hash_info.modulus
_INT = st.one_of(st.integers(-20, 20), st.integers(-10 ** 40, 10 ** 40))
# a denominator that is a multiple of the hash modulus has no inverse
_DEN = st.one_of(st.integers(1, 20), st.integers(1, 10 ** 40),
                 st.sampled_from([_MODULUS - 1, _MODULUS, 2 * _MODULUS]))
_VALUE = st.builds(F, _INT, _DEN)
# an operand and the type it is passed as
_OPERAND = st.one_of(_INT, _VALUE, _VALUE.map(Rat))
_COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le,
                operator.gt, operator.ge)


def _same(got, want):
    # equal value, and a Rat wherever Fraction arithmetic gives a rational
    assert got == want
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert type(got) is Rat


@given(_VALUE, _OPERAND)
@settings(max_examples=300)
def test_rat_agrees_with_fraction(x, b):
    a = Rat(x)
    fb = b if type(b) is int else F(b)  # b as the Fraction code sees it
    assert type(a) is Rat and a == x
    for op in _COMPARISONS:
        assert op(a, b) == op(x, fb)
        assert op(b, a) == op(fb, x)
    for op in (operator.add, operator.sub, operator.mul):
        _same(op(a, b), op(x, fb))
        _same(op(b, a), op(fb, x))
    for num, den, fnum, fden in ((a, b, x, fb), (b, a, fb, x)):
        if den == 0:
            with pytest.raises(ZeroDivisionError):
                num / den
        else:
            _same(num / den, fnum / fden)
    _same(-a, -x)
    _same(abs(a), abs(x))
    assert hash(a) == hash(x)
    assert str(a) == str(x)
    assert repr(a) == repr(x)
    assert math.floor(a) == math.floor(x)


@given(_INT)
def test_rat_of_an_int_hashes_like_the_int(n):
    assert hash(Rat(n)) == hash(n) == hash(F(n))
    assert Rat(n) == n and type(Rat(n)) is Rat


def test_rat_division_by_zero_raises():
    for zero in (0, F(0), Rat(0)):
        with pytest.raises(ZeroDivisionError):
            Rat(1, 3) / zero
    for one in (1, F(1), Rat(1)):
        with pytest.raises(ZeroDivisionError):
            one / Rat(0)
    with pytest.raises(ZeroDivisionError):
        Rat(1, 0)


def test_rat_of_a_rat_is_itself():
    a = Rat(3, 4)
    assert Rat(a) is a
    assert Rat(F(3, 4)) is not a and Rat(F(3, 4)) == a


@given(_VALUE, st.floats(allow_nan=False, allow_infinity=True))
def test_rat_against_markers_and_floats(x, f):
    a = Rat(x)
    for op in _COMPARISONS:
        for m in Marker:
            assert op(a, m) == op(x, m)
            assert op(m, a) == op(m, x)
        assert op(a, f) == op(x, f)
        assert op(f, a) == op(f, x)
    if math.isfinite(f):
        assert a + f == x + f and f * a == f * x


def test_fraction_keeps_the_slots_rat_builds_on():
    # Rat makes lowest-terms values without a gcd by setting these slots
    assert {"_numerator", "_denominator"} <= set(F.__slots__)


def _all_rat(values):
    # every rational inside values, tuples opened, is a Rat
    for v in values:
        if isinstance(v, tuple):
            _all_rat(v)
        else:
            assert type(v) is Rat, repr(v)


def test_values_stay_rat_end_to_end():
    # plain Fractions in, Rats out: a Fraction that leaks into the memos
    # takes the slow comparison and hash paths again
    _all_rat(nth_rational(n) for n in range(50))
    _all_rat([simplest_between(F(1, 3), F(1, 2)), simplest_between(None, F(-5, 2)),
              simplest_between(F(7, 2), None), simplest_between(F(-1, 2), F(1, 3)),
              simplest_between(F(-3, 4), F(-2, 3)), simplest_between(None, None)])
    _all_rat(itertools.islice(enumerated_in_interval(F(-3, 2), F(5, 2)), 40))
    _all_rat(colour_witness(F(1, 3), F(1, 2), c) for c in Colour)
    _all_rat([parse_rat("-3/4"), parse_rat("5")])
    iv = RatInterval(F(-1, 3), F(5, 2), True)
    _all_rat([iv.lo, iv.hi])
    f = PiecewiseEndo((Piece(RatInterval(None, F(1)), F(2), F(1, 3)),
                       Piece(RatInterval(F(1), F(2), True), F(0), F(5)),
                       Piece(RatInterval(F(2), None, True), F(1, 2), F(6))))
    g = PiecewiseEndo((Piece(RatInterval(None, F(-1, 2)), F(3), F(-1)),
                       Piece(RatInterval(F(-1, 2), None, True), F(1), F(1, 2))))
    _all_rat([f.eval(F(1, 2)), f.eval(2), f.eval(F(1))])
    # value_at on a sloped piece and on the plateau, whose intercept it
    # returns, for Rat, Fraction and int arguments
    _all_rat(p.value_at(x) for p in f.pieces for x in (Rat(1, 3), F(-5, 2), 3))
    for h in (compose(f, g), compose(g, f), pseudo_section(g), pseudo_section(f)):
        for p in h.pieces:
            _all_rat(b for b in (p.interval.lo, p.interval.hi) if b is not None)
            _all_rat([p.slope, p.intercept])
    emb, cert = generic_embedding("core")
    _all_rat(emb.eval(x) for x in (F(0), F(-7, 3), F(5, 2), 4))
    for iso in (cert.red_iso, cert.index_iso):
        _all_rat(iso.memo_pairs())


# ---------------------------------------------------------------------------
# operand types of the primitives
# ---------------------------------------------------------------------------

def _operand_forms(x):
    # x as an int (where it is one), a Fraction and a Rat
    if x is None:
        return [None]
    forms = [F(x), Rat(x)]
    if x.denominator == 1:
        forms.insert(0, int(x))
    return forms


def _outcome(fn, *args):
    # fn's result, or the ValueError it raises
    try:
        return fn(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def _rat_results(outcome):
    if isinstance(outcome, tuple) and outcome[0] is ValueError:
        return
    for x in outcome if isinstance(outcome, list) else [outcome]:
        assert type(x) is Rat, repr(x)


_PRIMITIVE_BOUND = st.one_of(st.none(), st.integers(-4, 4).map(F),
                             fractions_between(-4, 4, 7))


@given(_PRIMITIVE_BOUND, _PRIMITIVE_BOUND)
@settings(max_examples=150, deadline=None)
def test_primitives_agree_on_int_fraction_and_rat_operands(a, b):
    # the same values as int, Fraction and Rat give the same results, and
    # every rational result is a Rat

    def results(lo, hi):
        out = {
            "simplest_between": _outcome(simplest_between, lo, hi),
            "enumerated_in_interval": _outcome(lambda: list(itertools.islice(
                enumerated_in_interval(lo, hi), 25))),
        }
        if lo is not None and hi is not None:
            for want in Colour:
                out[f"colour_witness {want}"] = _outcome(colour_witness, lo, hi, want)
        for end, x in (("lo", lo), ("hi", hi)):
            if x is not None:
                out[f"colour {end}"] = colour(x)
                out[f"rat_index {end}"] = rat_index(x)
        return out

    want = results(None if a is None else Rat(a), None if b is None else Rat(b))
    for lo in _operand_forms(a):
        for hi in _operand_forms(b):
            got = results(lo, hi)
            assert got == want, (type(lo), type(hi))
            for name, outcome in got.items():
                if not name.startswith(("colour ", "rat_index")):
                    _rat_results(outcome)
