"""Ultrametric and convergence tests."""

import functools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qendo import topology
from qendo.clone import FinitaryOp
from qendo.endo import (
    LazyEndo,
    Piece,
    PiecewiseEndo,
    compose,
    constant_map,
    identity_map,
)
from qendo.ratcore import (
    Rat,
    RatInterval,
    least_index_in_interval,
    nth_rational,
    rat_index,
    simplest_between,
)
from qendo.topology import (
    DECIMAL_INDEX_BITS,
    N_MAX,
    LiftReport,
    UltraMetricContext,
    automorphism_near,
    axis_index,
    dist,
)

from util import (
    affine_map,
    fractions_between,
    index_tuple,
    monotone_endos,
    tuple_at,
    wide_endos,
)

CTX = UltraMetricContext()


def test_tuple_enumeration_is_bijective_prefix():
    seen = {tuple_at(3, n) for n in range(300)}
    assert len(seen) == 300
    assert tuple_at(1, 0) == (F(0),)
    assert tuple_at(1, 5) == (nth_rational(5),)


def test_axis_index_is_the_first_tuple_on_its_axis():
    # brute force over the first 60,000 tuples: the least index whose p-th
    # coordinate is the c-th rational, and the tuple there, 0 elsewhere
    size = 60_000
    for k in (1, 2, 3):
        first = {}
        for n in range(size):
            for p, c in enumerate(index_tuple(k, n), 1):
                first.setdefault((p, c), n)
        for p in range(1, k + 1):
            top = max(c for q, c in first if q == p)
            for c in range(top + 2):
                if (p, c) not in first:
                    assert axis_index(k, p, c) >= size
                    continue
                n = first[p, c]
                assert axis_index(k, p, c) == n
                assert index_tuple(k, n) == tuple(c if q == p else 0
                                                  for q in range(1, k + 1))
    # no coordinate p outside 1..k, and no negative index c
    for k, p, c in ((2, 3, 5), (2, 0, 5), (2, 1, -3), (0, 0, 0), (0, 1, 0)):
        with pytest.raises(ValueError, match="no coordinate"):
            axis_index(k, p, c)


def test_dist_identical():
    r = dist(CTX, identity_map(), identity_map())
    assert r.index is None and r.exact and "equal" in r.verdict


def test_dist_constants():
    r = dist(CTX, constant_map(F(0)), constant_map(F(1)))
    assert r.index == 0  # differ at e(0) = 0: distance 1
    assert str(r) == "2^-0 (differ at e(0) = 0)"


def test_dist_shift():
    r = dist(CTX, identity_map(), affine_map(F(1), F(1)))
    assert r.index == 0


def test_dist_symbolic_matches_probe_scan():
    # two maps differing exactly on the ray from 2 upward
    f = identity_map()
    g = PiecewiseEndo((
        Piece(RatInterval(None, F(2), False, False), F(1), F(0)),
        Piece(RatInterval(F(2), None, True, False), F(1), F(1)),
    ))
    r = dist(CTX, f, g)
    assert r.index == rat_index(F(2)) == 5
    # probe scan on the same pair (forced through the lazy path)
    class Opaque:
        def __init__(self, h):
            self.eval = h.eval
    r2 = dist(CTX, Opaque(f), Opaque(g))
    assert r2.index == r.index


def test_dist_indistinguishable_reported():
    class Opaque:
        def __init__(self, h):
            self.eval = h.eval
    r = dist(CTX, Opaque(identity_map()), Opaque(identity_map()))
    assert r.index is None and not r.exact
    assert r.verdict == f"indistinguishable at depth {N_MAX}"


def test_dist_arity_mismatch():
    from qendo.clone import FinitaryOp
    with pytest.raises(ValueError, match="arity mismatch"):
        dist(CTX, FinitaryOp(2, 1), FinitaryOp(2, 1))


# -- operations of the clone: unary maps after a projection ------------------

@functools.lru_cache(maxsize=None)
def _probe_tuples(k):
    return tuple(tuple_at(k, n) for n in range(N_MAX))


def _probe_least_difference(k, f, g):
    # the least index among the first N_MAX k-tuples where the operations
    # differ, by evaluating both at each: the reference for dist
    for n, args in enumerate(_probe_tuples(k)):
        if f.evaluate(args) != g.evaluate(args):
            return n
    return None


def test_dist_of_equal_operations_is_symbolic():
    r = dist(UltraMetricContext(k=2), FinitaryOp(2, 1, identity_map()),
             FinitaryOp(2, 1, identity_map()))
    assert (r.index, r.exact, r.verdict) == (None, True, "equal (symbolic)")
    r = dist(UltraMetricContext(k=3), FinitaryOp(3, 1, constant_map(F(2))),
             FinitaryOp(3, 3, constant_map(F(2))))
    assert (r.index, r.exact, r.verdict) == (None, True, "equal (symbolic)")


def test_dist_on_a_lazy_unary_part_is_labelled_at_its_axis_depth():
    lazy = LazyEndo(identity_map().eval)
    r = dist(UltraMetricContext(k=3), FinitaryOp(3, 2, lazy), FinitaryOp(3, 2))
    assert (r.index, r.exact) == (None, False)
    assert r.verdict == f"indistinguishable at depth {axis_index(3, 2, N_MAX)}"


def test_dist_is_exact_only_below_a_lazy_sides_depth():
    # the lazy side is 0 everywhere, which a probe cannot settle; the
    # projection pi_2 leaves 0 at nth_rational(1) = 1, axis index 2
    ctx = UltraMetricContext(k=2)
    zero = LazyEndo(constant_map(F(0)).eval)
    r = dist(ctx, FinitaryOp(2, 1, zero), FinitaryOp(2, 2))
    assert (r.index, r.exact, r.probe) == (2, True, (F(0), F(1)))
    assert r.probe == tuple_at(2, 2)
    # late leaves 0 first past 41, whose axis index lies beyond the lazy
    # side's depth: the answer is only bounded
    late = PiecewiseEndo.parse("(-inf,41] : 0*x + 0\n(41,+inf) : 1*x - 41")
    r = dist(ctx, FinitaryOp(2, 2, zero), FinitaryOp(2, 1, late))
    assert (r.index, r.exact) == (None, False)
    assert r.verdict == f"indistinguishable at depth {axis_index(2, 2, N_MAX)}"


# (k, j1, j2) for every arity up to 3 and every pair of projections
_PROJECTIONS = [(k, j1, j2) for k in (1, 2, 3)
                for j1 in range(1, k + 1) for j2 in range(1, k + 1)]
# a unary part: a monotone map, a constant, or None for a bare projection
_UNARY = st.one_of(monotone_endos(),
                   st.sampled_from([F(0), F(1), F(-1), F(1, 2)]).map(constant_map),
                   st.none())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_PROJECTIONS), _UNARY, _UNARY, st.booleans())
def test_dist_on_operations_matches_the_tuple_probe(projections, u1, u2, align):
    k, j1, j2 = projections
    if align:
        # shift one part so that both take one value at 0: the operations
        # then agree on the zero tuple and differ further out, if at all
        at0 = [F(0) if u is None else u.eval(F(0)) for u in (u1, u2)]
        if u2 is not None:
            u2 = compose(affine_map(1, at0[0] - at0[1]), u2)
        elif u1 is not None:
            u1 = compose(affine_map(1, at0[1] - at0[0]), u1)
    f, g = FinitaryOp(k, j1, u1), FinitaryOp(k, j2, u2)
    ctx = UltraMetricContext(k=k)
    r = dist(ctx, f, g)
    assert r.exact and dist(ctx, g, f).index == r.index
    want = _probe_least_difference(k, f, g)
    if want is None:
        assert r.index is None or r.index >= N_MAX
    else:
        assert r.index == want and r.probe == tuple_at(k, want)


@settings(max_examples=60, deadline=None)
@given(monotone_endos(), monotone_endos(), monotone_endos())
def test_ultrametric_inequality(f, g, h):
    # d(f, h) <= max(d(f, g), d(g, h)), with d = 2^-agreement
    dfh = dist(CTX, f, h).agreement
    assert dfh >= min(dist(CTX, f, g).agreement, dist(CTX, g, h).agreement)


@settings(max_examples=40, deadline=None)
@given(monotone_endos(), monotone_endos())
def test_dist_symmetric_and_separating(f, g):
    r, s = dist(CTX, f, g), dist(CTX, g, f)
    assert r.index == s.index
    if r.index is None:
        assert f.canonical() == g.canonical()
    else:
        x = r.probe[0]
        assert f.eval(x) != g.eval(x)
        for n in range(r.index):
            y = nth_rational(n)
            assert f.eval(y) == g.eval(y)


def test_dist_of_equal_maps_that_hold_a_cut_point_differently():
    # both formulas give -1 at -1, so the two texts describe one map
    f = PiecewiseEndo.parse("(-inf,-1) : 0*x - 1\n[-1,0) : 2*x + 1\n[0,+inf) : 0*x + 4")
    g = PiecewiseEndo.parse("(-inf,-1] : 0*x - 1\n(-1,0) : 2*x + 1\n[0,+inf) : 0*x + 4")
    assert dist(CTX, f, g).index is None
    assert dist(CTX, g, f).index is None


def test_dist_end_region_holding_zero_answers_at_zero():
    # x - 1 never meets x, so (-inf, 3) differs at its least element 0;
    # 2, the integer next to 3, has index 5
    g = PiecewiseEndo.parse("(-inf,3) : 1*x - 1\n[3,+inf) : 1*x")
    for a, b in ((identity_map(), g), (g, identity_map())):
        assert dist(CTX, a, b).index == 0


def test_dist_at_a_crossing_point_scans_on():
    # x and 2x cross at 0, the least element of the line
    r = dist(CTX, identity_map(), affine_map(F(2), F(0)))
    assert r.index == rat_index(F(1)) == 1


def test_dist_at_a_cut_only():
    # the two maps hold the cut 1/2 on different sides and agree elsewhere
    f = PiecewiseEndo.parse("(-inf,1/2] : 1*x\n(1/2,+inf) : 1*x + 1")
    g = PiecewiseEndo.parse("(-inf,1/2) : 1*x\n[1/2,+inf) : 1*x + 1")
    assert dist(CTX, f, g).index == dist(CTX, g, f).index == rat_index(F(1, 2)) == 3
    # h also differs from f on (-1, 0), whose least element -1/2 has index
    # 4: the cut 1/2 must still be examined, though the region (0, 1/2)
    # before it has least element 1/3, index 7
    h = PiecewiseEndo.parse("(-inf,-1] : 1*x\n(-1,0) : 1/2*x - 1/2\n"
                            "[0,1/2) : 1*x\n[1/2,+inf) : 1*x + 1")
    assert rat_index(F(-1, 2)) == 4 and rat_index(F(1, 3)) == 7
    assert dist(CTX, f, h).index == dist(CTX, h, f).index == 3


def test_dist_returns_a_far_out_first_difference():
    # 41 has index 2^42 - 3; its distance 2^-index is never built
    f = PiecewiseEndo.parse("(-inf,40] : 1*x\n(40,+inf) : 1*x + 1")
    r = dist(CTX, identity_map(), f)
    assert r.index == 4398046511101 == rat_index(F(41))
    assert r.verdict == "differ at e(4398046511101) = 41"
    assert str(r) == "2^-4398046511101 (differ at e(4398046511101) = 41)"
    assert r.agreement == r.index and r.agreement < dist(CTX, f, f).agreement


def _deep_pair(n):
    # x below n; x + 1 and x + 2 from n on: the maps first differ at n,
    # whose index has n + 1 bits
    return tuple(PiecewiseEndo.parse(f"(-inf,{n}) : 1*x\n[{n},+inf) : 1*x + {c}")
                 for c in (1, 2))


@pytest.mark.parametrize("n", [15_000, 10 ** 6])
def test_dist_prints_a_deep_first_difference(n):
    # Python refuses to print an int of more than 4300 digits in decimal;
    # such an index is printed as its bit length and its point
    f, g = _deep_pair(n)
    r = dist(CTX, f, g)
    assert r.index == rat_index(F(n)) and r.index.bit_length() == n + 1
    shown = f"<{n + 1}-bit index of {n}>"
    assert r.verdict == f"differ at e({shown}) = {n}"
    assert str(r) == f"2^-{shown} (differ at e({shown}) = {n})"
    rk = dist(UltraMetricContext(k=2), FinitaryOp(2, 2, f), FinitaryOp(2, 2, g))
    text = str(LiftReport(True, "", ((0, r, rk, 0),)))
    assert f"2^-{shown}" in text and f"index of (0, {n})>" in text


def test_dist_prints_an_index_in_decimal_up_to_the_bound():
    for n, decimal in ((DECIMAL_INDEX_BITS - 1, True), (DECIMAL_INDEX_BITS, False)):
        r = dist(CTX, *_deep_pair(n))
        assert r.index.bit_length() == n + 1
        shown = str(r.index) if decimal else f"<{n + 1}-bit index of {n}>"
        assert r.verdict == f"differ at e({shown}) = {n}"


def _staircase(bump=None, held_left=()):
    # 60 pieces: x + i on [i - 30, i - 29), unbounded at both ends, each cut
    # a jump of 1; bump adds 1/2 to the piece starting at that cut, and a
    # cut in held_left goes to the piece on its left
    pieces = []
    for i in range(60):
        lo = None if i == 0 else F(i - 30)
        hi = None if i == 59 else F(i - 29)
        iv = RatInterval(lo, hi, lo is not None and lo not in held_left,
                         hi is not None and hi in held_left)
        pieces.append(Piece(iv, F(1), F(i) + (F(1, 2) if lo == bump else 0)))
    return PiecewiseEndo(tuple(pieces))


def test_dist_at_zero_takes_no_walk(monkeypatch):
    # two 60-piece maps that differ at 0 answer 0 with no index walk and
    # no enumeration
    f = _staircase()
    g = compose(affine_map(F(1), F(1)), f)
    assert len(f.canonical().pieces) == len(g.canonical().pieces) == 60

    def walked(*args, **kwargs):
        raise AssertionError("dist walked the enumeration")

    for name in ("least_index_in_interval", "rat_index"):
        monkeypatch.setattr(topology, name, walked)
    for a, b in ((f, g), (g, f)):
        r = dist(CTX, a, b)
        assert (r.index, r.verdict) == (0, "differ at e(0) = 0")


def test_dist_that_agrees_at_zero_sweeps():
    # agreeing at 0, the maps still get the oracle's answer: a piece moved
    # on [1, 2) differs first at 1 (index 1); a cut held on the other side
    # differs only at 25
    f = _staircase()
    for g, want in ((_staircase(bump=F(1)), 1),
                    (_staircase(held_left={F(25)}), rat_index(F(25)))):
        assert f.eval(F(0)) == g.eval(F(0))
        for a, b in ((f, g), (g, f)):
            assert dist(CTX, a, b).index == _least_difference_oracle(a, b) == want


def _formula_at(f, x):
    for p in f.pieces:
        if p.interval.contains(x):
            if p.interval.is_degenerate():
                return Rat(0), f.eval(x)
            return p.slope, p.intercept
    raise AssertionError("pieces tile the line")


def _least_difference_oracle(f, g):
    # the least differing enumeration index, searching the pieces afresh
    # for every cut and region: the reference for dist's one-pass walk
    fc, gc = f.canonical(), g.canonical()
    if fc == gc:
        return None
    found = []
    cuts = sorted({b for h in (fc, gc) for p in h.pieces
                   for b in (p.interval.lo, p.interval.hi) if b is not None})
    for b in cuts:
        if fc.eval(b) != gc.eval(b):
            found.append(rat_index(b))
    for lo, hi in zip([None] + cuts, cuts + [None]):
        mid = simplest_between(lo, hi)
        if _formula_at(fc, mid) != _formula_at(gc, mid):
            found.append(rat_index(least_index_in_interval(
                lo, hi, pred=lambda x: fc.eval(x) != gc.eval(x))))
    return min(found)


def test_dist_on_shared_and_repeated_cuts():
    # every map cuts at 1; f and h hold 1 in a one-point piece, so their
    # canonical forms list the cut twice, and a pair of them lists it four
    # times.  f and g differ only at 1 (index 1); f and h only on (1, +inf),
    # where x + 4 and 2x + 3 cross at 1 itself, so at 2 (index 5)
    f = PiecewiseEndo.parse("(-inf,1) : 1*x\n[1,1] : 0*x + 3\n(1,+inf) : 1*x + 4")
    g = PiecewiseEndo.parse("(-inf,1) : 1*x\n[1,+inf) : 1*x + 4")
    h = PiecewiseEndo.parse("(-inf,1) : 1*x\n[1,1] : 0*x + 3\n(1,+inf) : 2*x + 3")
    assert f.canonical()._cuts == h.canonical()._cuts == (1, 1)
    assert g.canonical()._cuts == (1,)
    assert rat_index(F(1)) == 1 and rat_index(F(2)) == 5
    for a, b, want in ((f, g, 1), (f, h, 5), (g, h, 1)):
        for x, y in ((a, b), (b, a)):
            assert dist(CTX, x, y).index == _least_difference_oracle(x, y) == want


def _perturbed(f, i, t):
    # f with piece i given another formula, 0 < t <= 1/2 choosing it; the
    # new values stay between those of the neighbouring pieces at the
    # cuts, so the result is weakly monotone again
    pieces = list(f.pieces)
    p = pieces[i]
    iv = p.interval
    left = pieces[i - 1].value_at(iv.lo) if i > 0 else None
    right = pieces[i + 1].value_at(iv.hi) if i + 1 < len(pieces) else None
    if iv.is_degenerate():
        v = p.value_at(iv.lo)
        lo_v = v - 1 if left is None else left
        hi_v = v + 1 if right is None else right
        pieces[i] = Piece(iv, F(0), lo_v + t * (hi_v - lo_v))
    elif left is not None and right is not None:
        a, b = left + t * (right - left), right - t * (right - left)
        slope = (b - a) / (iv.hi - iv.lo)
        pieces[i] = Piece(iv, slope, a - slope * iv.lo)
    elif right is not None:
        pieces[i] = Piece(iv, p.slope, right - t - p.slope * iv.hi)
    elif left is not None:
        pieces[i] = Piece(iv, p.slope, left + t - p.slope * iv.lo)
    else:
        pieces[i] = Piece(iv, p.slope, p.intercept + t)
    return PiecewiseEndo(tuple(pieces))


@settings(max_examples=150, deadline=None)
@given(wide_endos(), wide_endos(), st.data())
def test_dist_matches_per_region_oracle(f, g, data):
    i = data.draw(st.integers(0, len(f.pieces) - 1))
    t = data.draw(fractions_between(F(1, 8), F(1, 2), 8))
    for h in (g, _perturbed(f, i, t), f):
        for a, b in ((f, h), (h, f)):
            assert dist(CTX, a, b).index == _least_difference_oracle(a, b)


def test_automorphism_near_generic_embedding():
    from qendo.generic import generic_embedding
    g, _ = generic_embedding("core")
    for depth in (1, 3, 6):
        a = automorphism_near(g, depth)
        for i in range(depth):
            assert a.eval(nth_rational(i)) == g.eval(nth_rational(i))
        # bijectivity probe: inverse exists for sampled values
        r = dist(CTX, a, g)
        assert r.agreement >= depth


def test_automorphism_near_piecewise():
    f = affine_map(F(2), F(-1))
    a = automorphism_near(f, 5)
    assert all(a.eval(nth_rational(i)) == f.eval(nth_rational(i))
               for i in range(5))
