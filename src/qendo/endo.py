"""Piecewise-affine weakly monotone self-maps of the rationals.

A PiecewiseEndo is a finite list of affine pieces whose intervals
partition the line; slopes are nonnegative and values never decrease
across piece boundaries, so every instance is a weakly monotone
endomorphism of the rational order.  The class is closed under
composition (computed exactly) and rich enough to witness every
classification fact this package needs: plateaus witness failure of
injectivity, image gaps witness failure of surjectivity, and both kinds
of witness can be cashed out as cancellation counterexamples.

Beyond the closed-form maps, LazyEndo wraps demand-driven maps (built
from isomorphism engines) and ComposedEndo chains arbitrary factors.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

from .lazyiso import FactorOrder, FullQ, LazyIso, build
from .ratcore import (
    Rat,
    RatInterval,
    _reduced,
    content_lines,
    gap_witness_point,
    parse_rat,
    point_interval,
    simplest_between,
    union_gaps,
)


@dataclass(frozen=True)
class Piece:
    """One affine piece: x |-> slope*x + intercept on the interval.

    Both coefficients are kept as Rat; only one that is not a Rat already
    is converted, so the pieces this module builds from Rat arithmetic pay
    two type tests.  The slope's sign is its numerator's."""
    interval: RatInterval
    slope: Rat
    intercept: Rat

    def __post_init__(self):
        s = self.slope
        if type(s) is not Rat:
            s = Rat(s)
            object.__setattr__(self, "slope", s)
        if type(self.intercept) is not Rat:
            object.__setattr__(self, "intercept", Rat(self.intercept))
        if s._numerator < 0:
            raise ValueError("slope must be nonnegative")

    def value_at(self, x: Rat) -> Rat:
        """slope*x + intercept for a Rat, Fraction or int x: the intercept
        itself on a plateau, else one Rat built from the integer parts,
        reduced with one gcd."""
        s, c = self.slope, self.intercept
        if not s._numerator:
            return c
        t = type(x)
        if t is Rat or t is Fraction:
            n, d = x._numerator, x._denominator
        else:
            n, d = x.numerator, x.denominator
        cd = c._denominator
        sd_d = s._denominator * d
        return _reduced(s._numerator * n * cd + c._numerator * sd_d, sd_d * cd)

    def __str__(self):
        c = self.intercept
        sign, mag = ("-", -c) if c < 0 else ("+", c)
        return f"{self.interval} : {self.slope}*x {sign} {mag}"

    @staticmethod
    def parse(text: str) -> "Piece":
        iv_part, _, formula = text.partition(":")
        iv = RatInterval.parse(iv_part.strip())
        left, times_x, right = formula.partition("*x")
        if not times_x:
            raise ValueError(f"cannot parse piece formula: {text!r}")
        slope = parse_rat(left.strip())
        right = right.strip()
        if right.startswith("+"):
            intercept = parse_rat(right[1:].strip())
        elif right.startswith("-"):
            intercept = -parse_rat(right[1:].strip())
        elif right == "":
            intercept = Rat(0)
        else:
            raise ValueError(f"cannot parse piece formula: {text!r}")
        return Piece(iv, slope, intercept)


def _cut_cmp(p: Piece, q: Piece, b: Rat) -> int:
    """An integer with the sign of p(b) - q(b), for two pieces p and q and a
    finite cut b: their values times b's denominator, cross-multiplied over
    the coefficients' positive denominators.  Exact, with no Rat built and
    no gcd."""
    s, c, t, e = p.slope, p.intercept, q.slope, q.intercept
    bn, bd = b._numerator, b._denominator
    sd, cd, td, ed = s._denominator, c._denominator, t._denominator, e._denominator
    # p(b)*bd is (sn*bn*cd + cn*sd*bd) / (sd*cd), and q(b)*bd likewise
    return ((s._numerator * bn * cd + c._numerator * sd * bd) * td * ed
            - (t._numerator * bn * ed + e._numerator * td * bd) * sd * cd)


@dataclass(frozen=True)
class PiecewiseEndo:
    """A weakly monotone map as affine pieces that tile the line in order.

    Construction checks that the pieces tile the line, each cut held by
    exactly one of its two pieces, and that values do not decrease across
    a cut, comparing the two formulas there with _cut_cmp in integers: one
    sweep over the n pieces, with no Rat built."""
    pieces: Tuple[Piece, ...]

    def __post_init__(self):
        pieces = tuple(self.pieces)
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise ValueError("a map needs at least one piece")
        if pieces[0].interval.lo is not None:
            raise ValueError("first piece must be unbounded below")
        if pieces[-1].interval.hi is not None:
            raise ValueError("last piece must be unbounded above")
        for left, right in zip(pieces, pieces[1:]):
            b, b2 = left.interval.hi, right.interval.lo
            if b is None or b2 is None or b != b2:
                raise ValueError(f"pieces do not tile the line at {left.interval} | {right.interval}")
            if left.interval.hi_closed == right.interval.lo_closed:
                raise ValueError(f"boundary {b} must belong to exactly one piece")
            if _cut_cmp(left, right, b) > 0:
                raise ValueError(f"values decrease across the boundary at {b}")
        # every piece's lower end but the first, in order; a one-point
        # piece repeats its cut
        object.__setattr__(self, "_cuts", tuple(p.interval.lo for p in pieces[1:]))

    # -- evaluation --------------------------------------------------------

    def piece_index(self, x: Rat) -> int:
        """Index of the piece whose interval holds x: one bisect over the
        cuts, O(log n) comparisons for n pieces, then one == test that
        hands a cut x to the piece on its left when the piece starting at
        x leaves it open."""
        cuts = self._cuts
        k = bisect_right(cuts, x)
        if k and not self.pieces[k].interval.lo_closed and x == cuts[k - 1]:
            return k - 1
        return k

    def eval(self, x: Rat) -> Rat:
        if type(x) is not Rat:
            x = Rat(x)
        return self.pieces[self.piece_index(x)].value_at(x)

    # -- normal form -------------------------------------------------------

    def canonical(self) -> "PiecewiseEndo":
        """The one form of this map: its pieces tidied, then every cut point
        at which both neighbouring formulas agree goes to a flat neighbour,
        else to the left one.  Equal maps have equal canonical forms.  In it
        every one-point piece is a plateau, and each piece's image ends
        before the next one's starts: where two meet at one value, exactly
        one of them holds it.  The form is computed once per map and is its
        own canonical form, which it marks with True rather than a reference
        to itself, so dropping a map frees it without the cyclic collector."""
        done = self.__dict__.get("_canonical")
        if done is None:
            done = PiecewiseEndo(_settle_pieces(_tidy_pieces(self.pieces)))
            object.__setattr__(done, "_canonical", True)
            object.__setattr__(self, "_canonical", done)
        return self if done is True else done

    # -- structure ---------------------------------------------------------

    def image_union(self) -> tuple:
        """The image as a canonical union: sorted, disjoint, non-touching
        intervals.  One sweep over the canonical pieces, whose images are
        disjoint and rise: two neighbours join exactly where their formulas
        agree at their cut, which _cut_cmp tests in integers, and each
        interval is built once, when its run of pieces ends.  Cost: O(n)
        for n canonical pieces, with no sort."""
        pieces = self.canonical().pieces
        out = []
        first = pieces[0]
        for left, right in zip(pieces, pieces[1:]):
            if _cut_cmp(left, right, right.interval.lo):
                out.append(_run_image(first, left))
                first = right
        out.append(_run_image(first, pieces[-1]))
        return tuple(out)

    def point_preimage(self, q: Rat) -> Optional[RatInterval]:
        """The solution set of f(x) = q.  In the canonical form at most one
        piece's image holds q: the set is that piece's interval if it is
        a plateau, else the one point where it takes q."""
        for p in self.canonical().pieces:
            if p.slope == 0:
                if p.intercept == q:
                    return p.interval
            else:
                x = (q - p.intercept) / p.slope
                if p.interval.contains(x):
                    return point_interval(x)
        return None

    def __str__(self):
        return "\n".join(str(p) for p in self.pieces)

    @staticmethod
    def parse(text: str) -> "PiecewiseEndo":
        pieces = []
        for lineno, line in content_lines(text):
            try:
                pieces.append(Piece.parse(line))
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from None
        return PiecewiseEndo(tuple(pieces))


def _run_image(first: Piece, last: Piece) -> RatInterval:
    # the image of a run of canonical pieces, from first to last, whose
    # images join into one interval: a plateau's image is its value, held
    iv, jv = first.interval, last.interval
    if first.slope._numerator:
        lo, lo_closed = None if iv.lo is None else first.value_at(iv.lo), iv.lo_closed
    else:
        lo, lo_closed = first.intercept, True
    if last.slope._numerator:
        hi, hi_closed = None if jv.hi is None else last.value_at(jv.hi), jv.hi_closed
    else:
        hi, hi_closed = last.intercept, True
    return RatInterval(lo, hi, lo_closed, hi_closed)


def _tidy_pieces(pieces) -> list:
    """The pieces of a tiling with degenerate pieces absorbed into
    neighbours sharing their value and adjacent pieces with identical
    formulas merged; a cut point stays with the piece that held it.  A
    one-point piece is absorbed where _cut_cmp finds its neighbour's
    formula agrees with its own there, else it becomes a plateau; each run
    of identical formulas is built as one piece."""
    work = list(pieces)
    n = len(work)
    for i, p in enumerate(work):
        iv = p.interval
        if not iv.is_degenerate():
            continue
        b = iv.lo
        if i > 0 and not _cut_cmp(work[i - 1], p, b):
            nb = work[i - 1]
            work[i] = Piece(iv, nb.slope, nb.intercept)
        elif i + 1 < n and not _cut_cmp(work[i + 1], p, b):
            nb = work[i + 1]
            work[i] = Piece(iv, nb.slope, nb.intercept)
        elif p.slope._numerator:
            work[i] = Piece(iv, Rat(0), p.value_at(b))
    merged = []
    first = last = work[0]
    for p in work[1:]:
        if not (p.slope == last.slope and p.intercept == last.intercept):
            merged.append(_join(first, last))
            first = p
        last = p
    merged.append(_join(first, last))
    return merged


def _join(first: Piece, last: Piece) -> Piece:
    # one piece for a run of adjacent pieces sharing first's formula
    if first is last:
        return first
    return Piece(RatInterval(first.interval.lo, last.interval.hi,
                             first.interval.lo_closed, last.interval.hi_closed),
                 first.slope, first.intercept)


def _settle_pieces(pieces: list) -> list:
    """Move, in place, each cut point at which both neighbouring formulas
    agree to a flat neighbour, else to the left one; returns the list.  One
    sweep over the cuts, comparing the formulas at each with _cut_cmp in
    integers.  A moved piece is built with the two constructors, whose Rat
    fields pass through unconverted."""
    for i in range(len(pieces) - 1):
        left, right = pieces[i], pieces[i + 1]
        to_left = left.slope == 0 or right.slope != 0
        b = right.interval.lo
        if left.interval.hi_closed == to_left or _cut_cmp(left, right, b):
            # held as the rule says, or the formulas part at b, as they do
            # beside every one-point piece of tidied pieces
            continue
        iv, jv = left.interval, right.interval
        pieces[i] = Piece(RatInterval(iv.lo, iv.hi, iv.lo_closed, to_left),
                          left.slope, left.intercept)
        pieces[i + 1] = Piece(RatInterval(jv.lo, jv.hi, not to_left, jv.hi_closed),
                              right.slope, right.intercept)
    return pieces


def identity_map() -> PiecewiseEndo:
    return PiecewiseEndo((Piece(RatInterval(None, None), Rat(1), Rat(0)),))


def constant_map(v: Rat) -> PiecewiseEndo:
    return PiecewiseEndo((Piece(RatInterval(None, None), Rat(0), Rat(v)),))


def compose(outer: PiecewiseEndo, inner: PiecewiseEndo) -> PiecewiseEndo:
    """Exact composition outer(inner(x)), in one left-to-right pass.

    A sloped inner piece maps its interval onto its image increasingly and
    one to one, and the images rise from piece to piece, so each inner
    piece meets one contiguous run of outer pieces, starting at the outer
    piece that holds the value at the inner piece's lower end.  The walk
    along that run pulls each outer cut inside the image back through the
    inner formula once: the pull-back ends one region and starts the next.
    The region of the outer piece that reaches past the image's top ends
    where the inner piece does.  A cut equal to a closed end of the image
    gives a one-point region, and an empty region is skipped.  The regions
    come out in order, each recorded by its start and formula, as they tile
    the line: a region ends where the next one starts.  Consecutive regions
    that share a formula, neither of them one point, are built as one
    piece, which is what tidying would make of them; the pieces are then
    tidied as a list, comparing formulas at one-point pieces with _cut_cmp
    in integers, so the only map built and validated is the result.
    Each region's formula and each pull-back is built from the
    coefficients' integer parts with one gcd, as Piece.value_at is, and
    the Rats that come out pass through Piece and RatInterval unconverted.
    Cost: O(n + m + k) piece steps and one division per outer cut inside
    an image, for n inner, m outer and k result pieces, plus one binary
    search per inner piece."""
    opieces = outer.pieces
    # (lo, lo_closed, formula, one point) of each region, in order
    starts = []
    for pi in inner.pieces:
        iv = pi.interval
        s, c = pi.slope, pi.intercept
        if s == 0 or iv.is_degenerate():
            v = pi.value_at(iv.lo) if iv.is_degenerate() else c
            starts.append((iv.lo, iv.lo_closed, (Rat(0), outer.eval(v)), iv.is_degenerate()))
            continue
        top = None if iv.hi is None else pi.value_at(iv.hi)
        k = 0 if iv.lo is None else outer.piece_index(pi.value_at(iv.lo))
        sn, sd, cn, cd = s._numerator, s._denominator, c._numerator, c._denominator
        # the region being built starts at lo, which it holds iff lo_closed
        lo, lo_closed = iv.lo, iv.lo_closed
        while True:
            po = opieces[k]
            J = po.interval
            # t*(s*x + c) + b is (t*s)*x + (t*c + b)
            t, b = po.slope, po.intercept
            tn, td, bd = t._numerator, t._denominator, b._denominator
            formula = (_reduced(tn * sn, td * sd),
                       _reduced(tn * cn * bd + b._numerator * td * cd, td * cd * bd))
            if J.hi is None or top is not None and (J.hi > top or (
                    J.hi == top and (J.hi_closed or not iv.hi_closed))):
                # past the image's top: never empty, as lo lies below the
                # inner piece's top, or is its closed top when the outer
                # piece before this one left the image's top value open
                starts.append((lo, lo_closed, formula, top is not None and lo == iv.hi))
                break
            # the pull-back (J.hi - c) / s of the cut; s > 0
            h = J.hi
            hd = h._denominator
            x = _reduced((h._numerator * cd - cn * hd) * sd, hd * cd * sn)
            if lo is None or lo < x:
                starts.append((lo, lo_closed, formula, False))
            elif lo_closed and J.hi_closed:
                starts.append((lo, True, formula, True))
            lo, lo_closed = x, not J.hi_closed
            k += 1
    pieces = []
    n = len(starts)
    i = 0
    while i < n:
        lo, lo_closed, formula, point = starts[i]
        i += 1
        while not point and i < n and not starts[i][3] and starts[i][2] == formula:
            i += 1
        hi, hi_closed = (starts[i][0], not starts[i][1]) if i < n else (None, False)
        pieces.append(Piece(RatInterval(lo, hi, lo_closed, hi_closed), *formula))
    return PiecewiseEndo(_tidy_pieces(pieces))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EndoClass:
    constant: bool
    injective: bool
    surjective: bool


@dataclass(frozen=True)
class Classification:
    kind: EndoClass
    constant_value: Optional[Rat]
    non_injective_pair: Optional[Tuple[Rat, Rat]]
    non_surjective_value: Optional[Rat]
    image: tuple  # canonical interval union
    missing: tuple  # complement of the image


def _plateau_pair(piece: Piece) -> Tuple[Rat, Rat]:
    # two distinct inputs sharing the plateau's value; the open interior of
    # a non-degenerate interval is never empty, so both picks succeed
    iv = piece.interval
    x1 = simplest_between(iv.lo, iv.hi)
    return x1, simplest_between(x1, iv.hi)


def classify(f: PiecewiseEndo) -> Classification:
    """What f is (constant, injective, surjective), with its image and a
    witness for each property that fails.  The report is computed once per
    canonical form and stored on it, as the form is stored on f, so later
    calls on f or on its form return the same report:
    cancellability_witness, right_inverse, generic.absorb and `qendo
    classify` reuse the one a caller's classify already made.  It holds no
    reference to any map, and goes when the canonical form does.  Its image
    is image_union's one sweep over the canonical pieces, which compares
    neighbouring formulas at their cut in integers.  The image, its gaps
    and the plateau search take O(n) steps for n canonical pieces, plus
    the simplest-rational searches that pick the witnesses."""
    can = f.canonical()
    report = can.__dict__.get("_classification")
    if report is not None:
        return report
    image = can.image_union()
    missing = union_gaps(image)
    plateau = next((p for p in can.pieces
                    if p.slope == 0 and not p.interval.is_degenerate()), None)
    constant = len(can.pieces) == 1 and can.pieces[0].slope == 0
    injective = plateau is None
    surjective = missing == ()
    report = Classification(
        kind=EndoClass(constant, injective, surjective),
        constant_value=can.pieces[0].intercept if constant else None,
        non_injective_pair=None if injective else _plateau_pair(plateau),
        non_surjective_value=None if surjective else gap_witness_point(missing[0]),
        image=image,
        missing=missing,
    )
    object.__setattr__(can, "_classification", report)
    return report


@dataclass(frozen=True)
class CancellabilityWitness:
    """Counterexamples to cancellation: left is a pair (u, v) with
    f∘u = f∘v but u ≠ v (so f is not injective / not monic); right is a
    pair (u, v) with u∘f = v∘f but u ≠ v (so f is not surjective / not
    epic).  A None side means that cancellation property holds."""
    left: Optional[Tuple[PiecewiseEndo, PiecewiseEndo]]
    right: Optional[Tuple[PiecewiseEndo, PiecewiseEndo]]


def cancellability_witness(f: PiecewiseEndo) -> CancellabilityWitness:
    report = classify(f)
    left = None
    if not report.kind.injective:
        x1, x2 = report.non_injective_pair
        left = (constant_map(x1), constant_map(x2))
    right = None
    if not report.kind.surjective:
        # identity below y, x + 1 above, y or y + 1 at y, which f never takes
        y = report.non_surjective_value
        right = tuple(PiecewiseEndo((
            Piece(RatInterval(None, y), Rat(1), Rat(0)),
            Piece(point_interval(y), Rat(0), v),
            Piece(RatInterval(y, None), Rat(1), Rat(1)),
        )) for v in (y, y + 1))
    return CancellabilityWitness(left, right)


# ---------------------------------------------------------------------------
# sections, right inverses, division
# ---------------------------------------------------------------------------

def _section_point(iv: RatInterval) -> Rat:
    # deterministic representative of a plateau's domain interval
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


def pseudo_section(g: PiecewiseEndo) -> PiecewiseEndo:
    """Total weakly monotone s with g(s(y)) = y for every y in the image of
    g; over image gaps s is locally constant.

    One sweep over g's canonical pieces, whose images are disjoint and
    rise from piece to piece: where two meet at a value, the piece holding
    the cut holds that value and the other leaves it open.  s inverts each
    sloped piece on its image, sends each plateau's value (one-point
    pieces are plateaus) to one point of the plateau, and holds each gap
    at the value just below it; below the first image, a plateau's as the
    first piece is unbounded below, it holds that plateau's point."""
    g = g.canonical()
    pieces = []
    # the image so far ends at `end`, which it holds iff `covered`; s takes
    # the value `anchor` just below `end`
    end = covered = anchor = None
    for p in g.pieces:
        J = _run_image(p, p)
        if p.slope == 0:
            sec = top = _section_point(p.interval)
            part = Piece(J, Rat(0), sec)
        else:
            part = Piece(J, 1 / p.slope, -p.intercept / p.slope)
            top = p.interval.hi
        if J.lo is not None and (end is None or end < J.lo):
            pieces.append(Piece(
                RatInterval(end, J.lo, end is not None and not covered,
                            not J.lo_closed),
                Rat(0), sec if end is None else anchor))
        pieces.append(part)
        end, covered, anchor = J.hi, J.hi_closed, top
    if end is not None:
        pieces.append(Piece(RatInterval(end, None, not covered), Rat(0), anchor))
    return PiecewiseEndo(_tidy_pieces(pieces))


def right_inverse(g: PiecewiseEndo) -> PiecewiseEndo:
    """For surjective g, an h with g∘h = identity: its pseudo-section."""
    report = classify(g)
    if not report.kind.surjective:
        raise ValueError(
            f"map is not surjective; {report.non_surjective_value} "
            "has no preimage")
    return pseudo_section(g)


def idempotent_with_image(points) -> PiecewiseEndo:
    """The canonical idempotent whose image is exactly the given finite set:
    each point absorbs its half-open neighbourhood up to the midpoints."""
    pts = sorted(Rat(p) for p in points)
    if not pts:
        raise ValueError("need at least one image point")
    if len(pts) != len(set(pts)):
        raise ValueError("image points must be distinct")
    pieces = []
    prev_cut = None
    for i, b in enumerate(pts):
        if i + 1 < len(pts):
            cut = (b + pts[i + 1]) / 2
            pieces.append(Piece(RatInterval(prev_cut, cut, False, True),
                                Rat(0), b))
            prev_cut = cut
        else:
            pieces.append(Piece(RatInterval(prev_cut, None, False, False),
                                Rat(0), b))
    return PiecewiseEndo(tuple(pieces))


# ---------------------------------------------------------------------------
# demand-driven maps
# ---------------------------------------------------------------------------

@dataclass
class LazyEndo:
    """A self-map evaluated on demand (usually backed by an iso engine)."""
    fn: Callable[[Rat], Rat]

    def eval(self, x: Rat) -> Rat:
        return self.fn(x if type(x) is Rat else Rat(x))


@dataclass
class ComposedEndo:
    """A composite; factors are applied rightmost first."""
    factors: tuple

    def eval(self, x: Rat) -> Rat:
        v = x if type(x) is Rat else Rat(x)
        for f in reversed(self.factors):
            v = f.eval(v)
        return v


# ---------------------------------------------------------------------------
# factorization through the fibre order
# ---------------------------------------------------------------------------

@dataclass
class Factorization:
    """h = epi ∘ mono exactly; preimage(r) finds x with epi(x) = r."""
    epi: LazyEndo
    mono: LazyEndo
    preimage: Callable[[Rat], Rat]
    order: FactorOrder
    theta: LazyIso


def epi_mono_factorize(h: PiecewiseEndo) -> Factorization:
    """Split a weakly monotone map into a strictly monotone embedding
    followed by a surjection.

    The intermediate order refines the line by replacing each value q with
    its solution interval (or a single point when q is never attained);
    theta identifies that order with the plain line on demand."""
    hc = h.canonical()
    order = FactorOrder(hc)
    theta = build(FullQ(), order)

    def mono_fn(x):
        return theta.eval_bwd((hc.eval(x), x))

    def epi_fn(x):
        return theta.eval_fwd(x)[0]

    def preimage(r):
        r = Rat(r)
        return theta.eval_bwd((r, next(order.fibre(r).enum_in_gap(None, None))))

    return Factorization(
        epi=LazyEndo(epi_fn),
        mono=LazyEndo(mono_fn),
        preimage=preimage,
        order=order,
        theta=theta,
    )
