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

from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

from .lazyiso import FactorOrder, FullQ, LazyIso, QMinusFinite, build
from .ratcore import (
    Rat,
    RatInterval,
    format_rat,
    gap_witness_point,
    intersect_intervals,
    merge_intervals,
    parse_rat,
    point_interval,
    simplest_between,
    union_difference_witness,
    union_gaps,
)


@dataclass(frozen=True)
class Piece:
    """One affine piece: x |-> slope*x + intercept on the interval."""
    interval: RatInterval
    slope: Rat
    intercept: Rat

    def __post_init__(self):
        object.__setattr__(self, "slope", Rat(self.slope))
        object.__setattr__(self, "intercept", Rat(self.intercept))
        if self.slope < 0:
            raise ValueError("slope must be nonnegative")

    def value_at(self, x: Rat) -> Rat:
        return self.slope * x + self.intercept

    def image(self) -> RatInterval:
        iv = self.interval
        if iv.is_degenerate() or self.slope == 0:
            return point_interval(self.value_at(iv.lo) if iv.is_degenerate()
                                  else self.intercept)
        lo = None if iv.lo is None else self.value_at(iv.lo)
        hi = None if iv.hi is None else self.value_at(iv.hi)
        return RatInterval(lo, hi, iv.lo_closed, iv.hi_closed)

    def __str__(self):
        c = self.intercept
        sign, mag = ("-", -c) if c < 0 else ("+", c)
        return f"{self.interval} : {format_rat(self.slope)}*x {sign} {format_rat(mag)}"

    @staticmethod
    def parse(text: str) -> "Piece":
        iv_part, _, formula = text.partition(":")
        iv = RatInterval.parse(iv_part.strip())
        left, _, right = formula.partition("*x")
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


def _before(x: Rat, iv: RatInterval) -> bool:
    # x lies strictly to the left of the interval
    if iv.lo is None:
        return False
    return x < iv.lo or (x == iv.lo and not iv.lo_closed)


@dataclass(frozen=True)
class PiecewiseEndo:
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
            if left.value_at(b) > right.value_at(b):
                raise ValueError(f"values decrease across the boundary at {b}")

    # -- evaluation --------------------------------------------------------

    def eval(self, x: Rat) -> Rat:
        x = Rat(x)
        lo, hi = 0, len(self.pieces)
        while lo < hi:
            mid = (lo + hi) // 2
            piece = self.pieces[mid]
            if piece.interval.contains(x):
                return piece.value_at(x)
            if _before(x, piece.interval):
                hi = mid
            else:
                lo = mid + 1
        raise AssertionError(f"partition does not cover {x}")  # pragma: no cover

    def __call__(self, x: Rat) -> Rat:
        return self.eval(x)

    # -- normal form -------------------------------------------------------

    def canonical(self) -> "PiecewiseEndo":
        """The one form of this map: _tidy(), then every cut point at which
        both neighbouring formulas agree goes to a flat neighbour, else to
        the left one.  Equal maps have equal canonical forms.  The form is
        computed once per map and is its own canonical form."""
        done = self.__dict__.get("_canonical")
        if done is None:
            done = self._tidy()._settled()
            object.__setattr__(done, "_canonical", done)
            object.__setattr__(self, "_canonical", done)
        return done

    def _settled(self) -> "PiecewiseEndo":
        pieces = list(self.pieces)
        moved = False
        for i in range(len(pieces) - 1):
            left, right = pieces[i], pieces[i + 1]
            to_left = left.slope == 0 or right.slope != 0
            b = right.interval.lo
            if (left.interval.hi_closed == to_left
                    or left.value_at(b) != right.value_at(b)):
                # held as the rule says, or the formulas part at b, as
                # they do beside every one-point piece after _tidy()
                continue
            pieces[i] = replace(left, interval=replace(
                left.interval, hi_closed=to_left))
            pieces[i + 1] = replace(right, interval=replace(
                right.interval, lo_closed=not to_left))
            moved = True
        return PiecewiseEndo(tuple(pieces)) if moved else self

    def _tidy(self) -> "PiecewiseEndo":
        """Absorb degenerate pieces into neighbours sharing their value and
        merge adjacent pieces with identical formulas; a cut point stays
        with the piece that held it."""
        work = []
        for p in self.pieces:
            if p.interval.is_degenerate():
                # normalize a one-point piece to a plateau formula
                work.append(Piece(p.interval, Rat(0), p.value_at(p.interval.lo)))
            else:
                work.append(p)
        n = len(work)
        for i, p in enumerate(work):
            if not p.interval.is_degenerate():
                continue
            b = p.interval.lo
            if i > 0 and work[i - 1].value_at(b) == p.intercept:
                nb = work[i - 1]
                work[i] = Piece(p.interval, nb.slope, nb.intercept)
            elif i + 1 < n and work[i + 1].value_at(b) == p.intercept:
                nb = work[i + 1]
                work[i] = Piece(p.interval, nb.slope, nb.intercept)
        merged = [work[0]]
        for p in work[1:]:
            last = merged[-1]
            if (p.slope, p.intercept) == (last.slope, last.intercept):
                iv = RatInterval(last.interval.lo, p.interval.hi,
                                 last.interval.lo_closed, p.interval.hi_closed)
                merged[-1] = Piece(iv, p.slope, p.intercept)
            else:
                merged.append(p)
        return PiecewiseEndo(tuple(merged))

    # -- structure ---------------------------------------------------------

    def image_union(self) -> tuple:
        return merge_intervals([p.image() for p in self.pieces])

    def point_preimage(self, q: Rat) -> Optional[RatInterval]:
        """The solution set of f(x) = q; convex by weak monotonicity."""
        parts = []
        for p in self.pieces:
            if p.interval.is_degenerate():
                if p.value_at(p.interval.lo) == q:
                    parts.append(p.interval)
            elif p.slope == 0:
                if p.intercept == q:
                    parts.append(p.interval)
            else:
                x = (q - p.intercept) / p.slope
                if p.interval.contains(x):
                    parts.append(point_interval(x))
        if not parts:
            return None
        merged = merge_intervals(parts)
        if len(merged) != 1:
            raise AssertionError(f"preimage of {q} is not convex: "
                                 + " u ".join(map(str, merged)))
        return merged[0]

    def __str__(self):
        return "\n".join(str(p) for p in self.pieces)

    @staticmethod
    def parse(text: str) -> "PiecewiseEndo":
        pieces = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                pieces.append(Piece.parse(line))
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from None
        return PiecewiseEndo(tuple(pieces))


def identity_map() -> PiecewiseEndo:
    return PiecewiseEndo((Piece(RatInterval(None, None), Rat(1), Rat(0)),))


def constant_map(v: Rat) -> PiecewiseEndo:
    return PiecewiseEndo((Piece(RatInterval(None, None), Rat(0), Rat(v)),))


def affine_map(slope: Rat, intercept: Rat) -> PiecewiseEndo:
    return PiecewiseEndo((Piece(RatInterval(None, None), Rat(slope),
                                Rat(intercept)),))


def compose(outer: PiecewiseEndo, inner: PiecewiseEndo) -> PiecewiseEndo:
    """Exact composition outer(inner(x))."""
    pieces = []
    for pi in inner.pieces:
        if pi.slope == 0 or pi.interval.is_degenerate():
            v = pi.value_at(pi.interval.lo) if pi.interval.is_degenerate() else pi.intercept
            po = next(p for p in outer.pieces if p.interval.contains(v))
            pieces.append(Piece(pi.interval, Rat(0), po.value_at(v)))
            continue
        for po in outer.pieces:
            # pull the outer piece's interval back through the inner formula
            J = po.interval
            lo = None if J.lo is None else (J.lo - pi.intercept) / pi.slope
            hi = None if J.hi is None else (J.hi - pi.intercept) / pi.slope
            back = RatInterval(lo, hi, J.lo_closed, J.hi_closed)
            region = intersect_intervals(pi.interval, back)
            if region is None:
                continue
            pieces.append(Piece(region, po.slope * pi.slope,
                                po.slope * pi.intercept + po.intercept))
    pieces.sort(key=lambda p: (p.interval.lo is not None,
                               p.interval.lo if p.interval.lo is not None else 0,
                               not p.interval.lo_closed))
    return PiecewiseEndo(tuple(pieces))._tidy()


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
    can = f.canonical()
    image = can.image_union()
    missing = union_gaps(image)
    plateau = next((p for p in can.pieces
                    if p.slope == 0 and not p.interval.is_degenerate()), None)
    constant = len(can.pieces) == 1 and can.pieces[0].slope == 0
    injective = plateau is None
    surjective = missing == ()
    return Classification(
        kind=EndoClass(constant, injective, surjective),
        constant_value=can.pieces[0].intercept if constant else None,
        non_injective_pair=None if injective else _plateau_pair(plateau),
        non_surjective_value=None if surjective else gap_witness_point(missing[0]),
        image=image,
        missing=missing,
    )


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
        y = report.non_surjective_value
        jump = PiecewiseEndo((
            Piece(RatInterval(None, y), Rat(1), Rat(0)),
            Piece(point_interval(y), Rat(0), Rat(y)),
            Piece(RatInterval(y, None, False, False), Rat(1), Rat(1)),
        ))
        bump = PiecewiseEndo((
            Piece(RatInterval(None, y), Rat(1), Rat(0)),
            Piece(point_interval(y), Rat(0), Rat(y) + 1),
            Piece(RatInterval(y, None, False, False), Rat(1), Rat(1)),
        ))
        right = (jump, bump)
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


def pseudo_section(g: PiecewiseEndo, fixset=()) -> PiecewiseEndo:
    """Total weakly monotone s with g(s(y)) = y for every y in the image of
    g; over image gaps s is locally constant.  Points of fixset are run
    through their own pieces where possible (first fix wins per value)."""
    g = g.canonical()
    preferred = {}
    for x in fixset:
        preferred.setdefault(g.eval(Rat(x)), Rat(x))

    pieces = []
    # frontier: (value, covered) — values below are dealt with; `covered`
    # says whether the frontier value itself already has a preimage
    frontier = None

    def emit(iv, slope, intercept):
        pieces.append(Piece(iv, slope, intercept))

    last_anchor = None  # a domain point available for gap-filling constants
    for p in g.pieces:
        J = p.image()
        if p.slope == 0 or p.interval.is_degenerate():
            v = J.lo
            sec = p.interval.lo if p.interval.is_degenerate() else _section_point(p.interval)
            if v in preferred and p.interval.contains(preferred[v]):
                sec = preferred[v]
            if frontier is None:
                emit(RatInterval(None, v), Rat(0), sec)
            else:
                fv, fcovered = frontier
                if fcovered and fv == v:
                    continue  # this value already has a preimage
                if fv < v:
                    # image gap (fv, v): fill with the last anchor
                    emit(RatInterval(fv, v, not fcovered, False), Rat(0), last_anchor)
                elif not fcovered and fv == v:
                    pass  # v is exactly the uncovered frontier point
            emit(point_interval(v), Rat(0), sec)
            frontier = (v, True)
            last_anchor = sec
            continue
        # strictly increasing piece: invert the affine formula on its image
        inv_slope = 1 / p.slope
        inv_intercept = -p.intercept / p.slope
        lo, lo_closed = J.lo, J.lo_closed
        if frontier is not None:
            fv, fcovered = frontier
            if lo is None or lo < fv or (lo == fv and lo_closed and fcovered):
                lo, lo_closed = fv, not fcovered
            elif lo > fv:
                emit(RatInterval(fv, lo, not fcovered, not lo_closed),
                     Rat(0), last_anchor)
            elif lo == fv and not lo_closed and not fcovered:
                # single-point hole in the image: patch it with the anchor
                emit(point_interval(fv), Rat(0), last_anchor)
        emit(RatInterval(lo, J.hi, lo_closed, J.hi_closed), inv_slope, inv_intercept)
        if J.hi is None:
            frontier = None
        else:
            frontier = (J.hi, J.hi_closed)
        last_anchor = p.interval.hi if p.interval.hi is not None else None
    if frontier is not None:
        fv, fcovered = frontier
        emit(RatInterval(fv, None, not fcovered, False), Rat(0), last_anchor)
    return PiecewiseEndo(tuple(pieces))._tidy()


def right_inverse(g: PiecewiseEndo, fixset=()) -> PiecewiseEndo:
    """For surjective g, an h with g∘h = identity."""
    report = classify(g)
    if not report.kind.surjective:
        raise ValueError(
            f"map is not surjective; {format_rat(report.non_surjective_value)} "
            "has no preimage")
    return pseudo_section(g, fixset=fixset)


def divide(f: PiecewiseEndo, g: PiecewiseEndo) -> PiecewiseEndo:
    """An h with g∘h = f, which exists iff the image of f lies inside the
    image of g."""
    stray = union_difference_witness(f.image_union(), g.image_union())
    if stray is not None:
        raise ValueError(
            f"no solution: {format_rat(stray)} is a value of the dividend "
            "but not of the divisor")
    return compose(pseudo_section(g), f)


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
    label: str = "lazy"

    def eval(self, x: Rat) -> Rat:
        return self.fn(Rat(x))

    def __call__(self, x):
        return self.eval(x)

    def __str__(self):
        return f"<{self.label}>"


@dataclass
class ComposedEndo:
    """A composite; factors are applied rightmost first."""
    factors: tuple

    def eval(self, x: Rat) -> Rat:
        v = Rat(x)
        for f in reversed(self.factors):
            v = f.eval(v)
        return v

    def __call__(self, x):
        return self.eval(x)

    def __str__(self):
        return " . ".join(getattr(f, "label", "map") if not isinstance(f, PiecewiseEndo)
                          else "piecewise" for f in self.factors)


def copoint_embedding(y: Rat) -> LazyEndo:
    """An order-embedding of the line whose image avoids exactly the point
    y's copoint obstruction: values land in Q minus {y}."""
    iso = build(FullQ(), QMinusFinite({Rat(y)}))
    return LazyEndo(iso.eval_fwd, label=f"avoid {format_rat(Rat(y))}")


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
    order = FactorOrder(hc.point_preimage)
    theta = build(FullQ(), order)

    def mono_fn(x):
        return theta.eval_bwd((hc.eval(x), x))

    def epi_fn(x):
        return theta.eval_fwd(x)[0]

    def preimage(r):
        r = Rat(r)
        fibre = hc.point_preimage(r)
        el = (r, "pt") if fibre is None else (r, fibre.sample_point())
        return theta.eval_bwd(el)

    return Factorization(
        epi=LazyEndo(epi_fn, label="collapse"),
        mono=LazyEndo(mono_fn, label="spread"),
        preimage=preimage,
        order=order,
        theta=theta,
    )
