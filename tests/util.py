"""Shared hypothesis strategies for the test suite."""

from fractions import Fraction as F

from hypothesis import strategies as st

from qendo.endo import Piece, PiecewiseEndo
from qendo.ratcore import RatInterval


@st.composite
def monotone_endos(draw):
    # build a weakly monotone map left to right: each piece starts at or
    # above where the previous one ended
    ncuts = draw(st.integers(0, 4))
    cuts = sorted(draw(st.lists(
        st.fractions(min_value=-8, max_value=8, max_denominator=6),
        min_size=ncuts, max_size=ncuts, unique=True)))
    slopes = draw(st.lists(st.sampled_from([F(0), F(1, 2), F(1), F(2)]),
                           min_size=ncuts + 1, max_size=ncuts + 1))
    jumps = draw(st.lists(st.fractions(min_value=0, max_value=3,
                                       max_denominator=4),
                          min_size=ncuts, max_size=ncuts))
    sides = draw(st.lists(st.booleans(), min_size=ncuts, max_size=ncuts))
    pieces = []
    level = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
    lo = None
    lo_closed = False
    for i, s in enumerate(slopes):
        hi = cuts[i] if i < len(cuts) else None
        anchor = lo if lo is not None else (hi - 1 if hi is not None else F(0))
        intercept = level - s * anchor
        pieces.append(Piece(RatInterval(lo, hi, lo_closed, i < len(cuts) and sides[i]),
                            s, intercept))
        if hi is not None:
            level = s * hi + intercept + jumps[i]
            lo, lo_closed = hi, not sides[i]
    return PiecewiseEndo(tuple(pieces))


@st.composite
def wide_endos(draw):
    # maps with up to ~40 pieces: each cut is held by the left piece, by the
    # right one, or by a one-point piece of its own, with a drawn formula;
    # plateaus, jumps and one-point values all occur
    ncuts = draw(st.integers(0, 20))
    cuts = sorted(draw(st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=4),
        min_size=ncuts, max_size=ncuts, unique=True)))
    holds = draw(st.lists(st.sampled_from(["left", "right", "point"]),
                          min_size=ncuts, max_size=ncuts))
    bounds = []  # (lo, hi, lo_closed, hi_closed) of every piece, in order
    lo, lo_closed = None, False
    for c, hold in zip(cuts, holds):
        bounds.append((lo, c, lo_closed, hold == "left"))
        if hold == "point":
            bounds.append((c, c, True, True))
        lo, lo_closed = c, hold == "right"
    bounds.append((lo, None, lo_closed, False))
    slope = st.sampled_from([F(0), F(0), F(1, 3), F(1, 2), F(1), F(2)])
    jump = st.sampled_from([F(0), F(0), F(0), F(1, 2), F(1), F(3)])
    level = draw(st.fractions(min_value=-10, max_value=10, max_denominator=3))
    pieces = []
    for lo, hi, lo_closed, hi_closed in bounds:
        s = draw(slope)
        anchor = lo if lo is not None else (hi - 1 if hi is not None else F(0))
        intercept = level - s * anchor
        pieces.append(Piece(RatInterval(lo, hi, lo_closed, hi_closed), s, intercept))
        if hi is not None:
            level = s * hi + intercept + draw(jump)
    return PiecewiseEndo(tuple(pieces))
