"""Shared hypothesis strategies for the test suite."""

from fractions import Fraction as F
from functools import lru_cache
from math import ceil, floor, isqrt

from hypothesis import strategies as st

from qendo.endo import Piece, PiecewiseEndo
from qendo.ratcore import Rat, RatInterval, nth_rational


def affine_map(slope, intercept) -> PiecewiseEndo:
    """x -> slope*x + intercept on the whole line."""
    return PiecewiseEndo((Piece(RatInterval(None, None), Rat(slope),
                                Rat(intercept)),))


# The k-tuple enumeration spelled out, one pairing step at a time: the
# reference for topology's closed-form axis_index and for dist on k-ary
# operations.  The tuple at index (i+j)(i+j+1)/2 + j is the (k-1)-tuple at
# i followed by coordinate j.

def _unpair(n):
    # inverse of (i, j) -> (i+j)(i+j+1)/2 + j
    w = (isqrt(8 * n + 1) - 1) // 2
    j = n - w * (w + 1) // 2
    return w - j, j


def index_tuple(k, n):
    """The k-tuple at index n, as enumeration indices of its coordinates."""
    if k == 1:
        return (n,)
    i, j = _unpair(n)
    return index_tuple(k - 1, i) + (j,)


def tuple_at(k, n):
    """The k-tuple of rationals at enumeration index n."""
    return tuple(map(nth_rational, index_tuple(k, n)))


def _fractions(lo, hi, max_denominator):
    # every n/d in [lo, hi] with 1 <= d <= max_denominator, once for each
    # way of writing it, so that simple values come up often, as they do
    # from st.fractions; simplest first, so that a failure shrinks to the
    # simplest value in range
    return sorted((F(n, d) for d in range(1, max_denominator + 1)
                   for n in range(ceil(lo * d), floor(hi * d) + 1)),
                  key=lambda x: (x.denominator, abs(x), x))


@lru_cache(maxsize=None)
def fractions_between(lo, hi, max_denominator):
    """Fractions in [lo, hi] with denominator at most max_denominator: the
    values of st.fractions(lo, hi, max_denominator=...), drawn several
    times faster, and one strategy for each range however often a test
    asks for it."""
    return st.sampled_from(_fractions(lo, hi, max_denominator))


@lru_cache(maxsize=None)
def fractions_anywhere(max_denominator):
    """Fractions of any value with denominator at most max_denominator: the
    values of st.fractions(max_denominator=...), drawn several times faster
    as an integer over a denominator in range, which the fraction reduces.
    Two draws coincide less often than from st.fractions, so a test that
    needs equal values states them with @example."""
    return st.builds(F, st.integers(), st.integers(1, max_denominator))


# Strategies are built once: a strategy made inside a composite is validated
# on every draw.  Values come from _fractions lists, which draw several times
# faster than st.fractions.  For monotone_endos, each cut brings one tuple:
# the cut, the slope of the piece below it, the jump at that piece's top and
# whether that piece holds the cut.
_MONO_SLOPE = st.sampled_from([F(0), F(1, 2), F(1), F(2)])
# Integer cuts and zero jumps get extra weight, so that they come up about as
# often as from st.fractions, which favours simple values and its bounds.
_MONO_CUT = st.tuples(
    st.sampled_from(_fractions(-8, 8, 6) + [F(n) for n in range(-8, 9)] * 6),
    _MONO_SLOPE,
    st.sampled_from([F(0)] * 10 + [x for x in _fractions(-3, 3, 4) if x >= 0]),
    st.booleans())
_MONO_CUTS = [st.lists(_MONO_CUT, min_size=n, max_size=n,
                       unique_by=lambda cut: cut[0]) for n in range(5)]
_MONO_NCUTS = st.integers(0, 4)
_MONO_LEVEL = fractions_between(-5, 5, 4)


@st.composite
def monotone_endos(draw):
    # build a weakly monotone map left to right: each piece starts at or
    # above where the previous one ended
    cuts = sorted(draw(_MONO_CUTS[draw(_MONO_NCUTS)]))
    last_slope = draw(_MONO_SLOPE)
    level = draw(_MONO_LEVEL)
    pieces = []
    lo = None
    lo_closed = False
    for hi, s, jump, held in cuts + [(None, last_slope, None, False)]:
        anchor = lo if lo is not None else (hi - 1 if hi is not None else F(0))
        intercept = level - s * anchor
        pieces.append(Piece(RatInterval(lo, hi, lo_closed, held), s, intercept))
        if hi is not None:
            level = s * hi + intercept + jump
            lo, lo_closed = hi, not held
    return PiecewiseEndo(tuple(pieces))


# For wide_endos, each cut brings one tuple: the cut, which piece holds it,
# the slope of the piece below it and the jump at that piece's top, and the
# same two for the one-point piece that holds it when "point" does.
_SLOPE = st.sampled_from([F(0), F(0), F(1, 3), F(1, 2), F(1), F(2)])
_JUMP = st.sampled_from([F(0), F(0), F(0), F(1, 2), F(1), F(3)])
_WIDE_CUT = st.tuples(fractions_between(-20, 20, 4),
                      st.sampled_from(["left", "right", "point"]),
                      _SLOPE, _JUMP, _SLOPE, _JUMP)
_WIDE_CUTS = [st.lists(_WIDE_CUT, min_size=n, max_size=n,
                       unique_by=lambda cut: cut[0]) for n in range(21)]
_WIDE_NCUTS = st.integers(0, 20)
_WIDE_LEVEL = fractions_between(-10, 10, 3)


@st.composite
def wide_endos(draw):
    # maps with up to ~40 pieces: each cut is held by the left piece, by the
    # right one, or by a one-point piece of its own, with a drawn formula;
    # plateaus, jumps and one-point values all occur
    cuts = sorted(draw(_WIDE_CUTS[draw(_WIDE_NCUTS)]))
    # (lo, hi, lo_closed, hi_closed, slope, jump at hi) of every piece
    bounds = []
    lo, lo_closed = None, False
    for c, hold, s, jump, point_s, point_jump in cuts:
        bounds.append((lo, c, lo_closed, hold == "left", s, jump))
        if hold == "point":
            bounds.append((c, c, True, True, point_s, point_jump))
        lo, lo_closed = c, hold == "right"
    bounds.append((lo, None, lo_closed, False, draw(_SLOPE), None))
    level = draw(_WIDE_LEVEL)
    pieces = []
    for lo, hi, lo_closed, hi_closed, s, jump in bounds:
        anchor = lo if lo is not None else (hi - 1 if hi is not None else F(0))
        intercept = level - s * anchor
        pieces.append(Piece(RatInterval(lo, hi, lo_closed, hi_closed), s, intercept))
        if hi is not None:
            level = s * hi + intercept + jump
    return PiecewiseEndo(tuple(pieces))
