"""Generic self-embeddings, their certificates, and commuting-pair recovery.

Relative to a fixed subset A of the line (always an image of a
self-embedding here), call two rationals related when at most one point
of A lies strictly between them.  For suitably spread-out A this is an
equivalence relation whose classes are convex, each class holding at
most one point of A: classes meeting A are "red", the rest "blue".

A *generic* embedding is one whose image realizes the richest such
structure: the classes are indexed by a dense two-coloured order (with
blue endpoint classes adjoined for the bounded variants), every class is
itself a copy of the line, and each red class carries exactly one image
point.  Such embeddings cannot be recognized from a bare map, so they
are built together with a certificate — a pair of demand-driven
isomorphisms exposing the class structure as decidable queries.

The payoff is `recover_witness`: for a certified g and any s ≠ g(u) it
produces automorphisms (α, β) with α∘g = g∘β, β(u) = u and α(s) ≠ s, so
the value of g at u is pinned down by commutation facts alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from .endo import ComposedEndo, LazyEndo, PiecewiseEndo, classify
from .lazyiso import (
    ColouredQ,
    Constraint,
    FullQ,
    LazyIso,
    LexSum,
    Marker,
    RedPoints,
    build,
)
from .partialmap import FinitePartialMap
from .ratcore import (
    Colour,
    Rat,
    RatInterval,
    SearchExhausted,
    format_rat,
    intersect_intervals,
    nth_rational,
    union_contains,
)

VARIANTS = ("core", "plus", "minus", "pm")

SEARCH_CAP = 100_000


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class GenericCert:
    """Decidable-query interface onto the class structure of a certified
    embedding.  Class indices live in `index_order` (a dense order,
    possibly with blue endpoint markers) and are coloured by
    `colour_of_index`; every red index carries exactly one image point,
    its representative."""

    variant: str
    index_order = None
    embedding = None

    def class_of(self, x: Rat):
        raise NotImplementedError

    def colour_of_index(self, q) -> Colour:
        raise NotImplementedError

    def representative(self, q) -> Rat:
        raise NotImplementedError

    def in_image(self, x: Rat) -> bool:
        raise NotImplementedError

    def inverse_image(self, x: Rat) -> Rat:
        raise NotImplementedError

    def class_points(self, q) -> Iterator[Rat]:
        raise NotImplementedError

    def memo_snapshot(self) -> str:
        raise NotImplementedError

    # -- derived queries ----------------------------------------------------

    def colour_of(self, x: Rat) -> Colour:
        return self.colour_of_index(self.class_of(x))

    def image_points_between(self, lo: Optional[Rat], hi: Optional[Rat]) -> Iterator[Rat]:
        """Image points strictly inside (lo, hi): the boundary classes'
        representatives first, then class by class along the index order."""
        qlo = self.class_of(lo) if lo is not None else None
        qhi = self.class_of(hi) if hi is not None else None
        boundary = [q for q in (qlo, qhi) if q is not None]
        if len(boundary) == 2 and not boundary[0] < boundary[1]:
            boundary, between = boundary[:1], ()  # no class lies between
        else:
            between = self.index_order.enum_in_gap(qlo, qhi)
        for q in itertools.chain(boundary, between):
            if self.colour_of_index(q) != Colour.RED:
                continue
            rep = self.representative(q)
            if (lo is None or lo < rep) and (hi is None or rep < hi):
                yield rep

    def red_index_between(self, qlo, qhi):
        return self._index_between(qlo, qhi, Colour.RED)

    def blue_index_between(self, qlo, qhi):
        return self._index_between(qlo, qhi, Colour.BLUE)

    def _index_between(self, qlo, qhi, want: Colour):
        for steps, q in enumerate(self.index_order.enum_in_gap(qlo, qhi)):
            if steps > SEARCH_CAP:
                break
            if self.colour_of_index(q) == want:
                return q
        raise SearchExhausted(f"{want} class search", f"SEARCH_CAP={SEARCH_CAP}",
                              qlo, qhi, self.index_order.format_el)


class DirectCert(GenericCert):
    """Certificate built from scratch: an index iso spreads the line over
    (coloured index) × (line), and a red iso enumerates where the image
    points go.  The image point of red class q sits at index pair (q, 0)."""

    def __init__(self, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.variant = variant
        self.index_order = ColouredQ(
            with_min=variant in ("minus", "pm"),
            with_max=variant in ("plus", "pm"),
        )
        line = FullQ()
        self._product = LexSum(self.index_order, lambda q: line)
        self.index_iso = build(line, self._product)
        self.red_iso = build(line, RedPoints(self.index_order))
        self.embedding = LazyEndo(self._embed, label=f"generic {variant}")

    def _embed(self, x: Rat) -> Rat:
        q = self.red_iso.eval_fwd(x)
        return self.index_iso.eval_bwd((q, Rat(0)))

    def class_of(self, x: Rat):
        return self.index_iso.eval_fwd(Rat(x))[0]

    def colour_of_index(self, q) -> Colour:
        return self.index_order.colour_label(q)

    def representative(self, q) -> Rat:
        return self.index_iso.eval_bwd((q, Rat(0)))

    def in_image(self, x: Rat) -> bool:
        q, c = self.index_iso.eval_fwd(Rat(x))
        return c == 0 and self.colour_of_index(q) == Colour.RED

    def inverse_image(self, x: Rat) -> Rat:
        q, c = self.index_iso.eval_fwd(Rat(x))
        if c != 0 or self.colour_of_index(q) != Colour.RED:
            raise ValueError(f"{format_rat(Rat(x))} is not an image point")
        return self.red_iso.eval_bwd(q)

    def class_points(self, q) -> Iterator[Rat]:
        return (self.index_iso.eval_bwd((q, nth_rational(i)))
                for i in itertools.count())

    def memo_snapshot(self) -> str:
        return (f"variant: {self.variant}\n"
                f"index iso: {self.index_iso.memo_dump()}\n"
                f"image iso: {self.red_iso.memo_dump()}")


class ComposedCert(GenericCert):
    """Certificate for (outer embedding) ∘ (inner embedding).

    The composite's image points are the outer representatives whose
    outer-preimage lies in the inner image, so the outer index order is
    kept and `colour_of_index` recolours it: an index stays red exactly
    when its representative survives into the composite image.  The
    index order's own colour_label still gives the outer colours.

    The presented classes refine the composite's true gap-equivalence
    (runs of classes containing no composite image point are not merged);
    all queries anchored at image points are exact, and that is the only
    way acceptance sampling uses these certificates.
    """

    def __init__(self, outer: GenericCert,
                 inner_member: Callable[[Rat], bool],
                 inner_preimage: Callable[[Rat], Rat],
                 embedding):
        self.outer = outer
        self.inner_member = inner_member
        self.inner_preimage = inner_preimage
        self.embedding = embedding
        self.variant = outer.variant
        self.index_order = outer.index_order

    def class_of(self, x: Rat):
        return self.outer.class_of(x)

    def colour_of_index(self, q) -> Colour:
        if self.outer.colour_of_index(q) != Colour.RED:
            return Colour.BLUE
        w = self.outer.inverse_image(self.outer.representative(q))
        return Colour.RED if self.inner_member(w) else Colour.BLUE

    def representative(self, q) -> Rat:
        if self.colour_of_index(q) != Colour.RED:
            raise ValueError("only red classes carry representatives")
        return self.outer.representative(q)

    def in_image(self, x: Rat) -> bool:
        return self.outer.in_image(x) and self.inner_member(
            self.outer.inverse_image(x))

    def inverse_image(self, x: Rat) -> Rat:
        return self.inner_preimage(self.outer.inverse_image(x))

    def class_points(self, q) -> Iterator[Rat]:
        return self.outer.class_points(q)

    def memo_snapshot(self) -> str:
        return f"composite over:\n{self.outer.memo_snapshot()}"


def generic_embedding(variant: str = "core"):
    """A fresh certified generic embedding; variants adjoin a blue least
    class ('minus'), greatest class ('plus'), or both ('pm'), which is what
    bounded-image embeddings need."""
    cert = DirectCert(variant)
    return cert.embedding, cert


# ---------------------------------------------------------------------------
# the gap-equivalence
# ---------------------------------------------------------------------------

def sim_related(A, x: Rat, y: Rat) -> bool:
    """At most one point of A strictly between x and y.

    A is either a certificate (class query, exact for image-anchored use)
    or a finite tuple of RatInterval (counted exactly)."""
    x, y = Rat(x), Rat(y)
    if x == y:
        return True
    if isinstance(A, GenericCert):
        return A.class_of(x) == A.class_of(y)
    lo, hi = (x, y) if x < y else (y, x)
    window = RatInterval(lo, hi)
    count = 0
    for iv in A:
        got = intersect_intervals(iv, window)
        if got is None:
            continue
        if not got.is_degenerate():
            return False  # an interval's worth of points in between
        count += 1
        if count > 1:
            return False
    return True


def class_info(cert: GenericCert, x: Rat):
    """(class index, colour, representative-or-None) for the class of x."""
    q = cert.class_of(x)
    colour = cert.colour_of_index(q)
    rep = cert.representative(q) if colour == Colour.RED else None
    return q, colour, rep


# ---------------------------------------------------------------------------
# commuting pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PPair:
    a: FinitePartialMap
    b: FinitePartialMap


@dataclass
class CommutingPair:
    alpha: LazyEndo
    beta: LazyEndo
    alpha_iso: LazyIso = None
    cert: GenericCert = None


class PPairError(ValueError):
    def __init__(self, violations):
        self.violations = violations
        lines = "; ".join(f"({n}) {msg}" for n, msg in violations)
        super().__init__(f"pair fails compatibility: {lines}")


def p_check(g, cert: GenericCert, p: PPair) -> List[Tuple[int, str]]:
    """Check the seven compatibility clauses; empty list means the pair is
    extendable.  Violations are (clause number, description)."""
    a, b = p.a, p.b
    for name, m in (("a", a), ("b", b)):
        if not m.is_partial_automorphism():
            raise ValueError(f"{name} is not a partial automorphism")
    out = []
    dom_a, im_a = set(a.domain()), set(a.image())
    cls = {}

    def c(x):
        if x not in cls:
            cls[x] = cert.class_of(x)
        return cls[x]

    # (1) colours, the equivalence, and endpoint classes
    for x, y in a.pairs:
        cx, cy = cert.colour_of_index(c(x)), cert.colour_of_index(c(y))
        if cx != cy:
            out.append((1, f"{format_rat(x)} maps {cx} class to {cy} class"))
        for marker in (Marker.MIN, Marker.MAX):
            if (c(x) is marker) != (c(y) is marker):
                out.append((1, f"{format_rat(x)} does not preserve the "
                               f"{marker} endpoint class"))
    for (x1, y1), (x2, y2) in itertools.combinations(a.pairs, 2):
        if (c(x1) == c(x2)) != (c(y1) == c(y2)):
            out.append((1, f"relatedness of {format_rat(x1)},{format_rat(x2)} "
                           "not mirrored by their images"))
    # (2)/(3) red classes must bring their image point along
    for clause, pts, pool, side in ((2, a.domain(), dom_a, "domain"),
                                    (3, a.image(), im_a, "image")):
        for x in pts:
            q = c(x)
            if cert.colour_of_index(q) == Colour.RED:
                rep = cert.representative(q)
                if rep not in pool:
                    out.append((clause,
                                f"red class of {format_rat(x)} has image point "
                                f"{format_rat(rep)} missing from the {side} of a"))
    # (4)/(5) g carries b into a
    for clause, pts, pool, side in ((4, b.domain(), dom_a, "domain"),
                                    (5, b.image(), im_a, "image")):
        for u in pts:
            gu = g.eval(u)
            if gu not in pool:
                out.append((clause, f"g({format_rat(u)}) = {format_rat(gu)} "
                                    f"missing from the {side} of a"))
    # (6)/(7) a agrees with g·b·g⁻¹ on image points
    b_inv = b.inverse()
    a_inv = a.inverse()
    for x in a.domain():
        if cert.in_image(x):
            w = cert.inverse_image(x)
            if b.apply(w) is None:
                out.append((6, f"g⁻¹({format_rat(x)}) = {format_rat(w)} "
                               "missing from the domain of b"))
            elif g.eval(b.apply(w)) != a.apply(x):
                out.append((6, f"g·b·g⁻¹ and a disagree at {format_rat(x)}"))
    for y in a.image():
        if cert.in_image(y):
            w = cert.inverse_image(y)
            if b_inv.apply(w) is None:
                out.append((7, f"g⁻¹({format_rat(y)}) = {format_rat(w)} "
                               "missing from the image of b"))
            elif g.eval(b_inv.apply(w)) != a_inv.apply(y):
                out.append((7, f"g·b⁻¹·g⁻¹ and a⁻¹ disagree at {format_rat(y)}"))
    return out


def extend_pair(g, cert: GenericCert, p: PPair) -> CommutingPair:
    """Grow a compatible pair (a, b) into commuting automorphisms:
    α extends a, keeping the image of g setwise and sending each class
    onto the class an index iso prescribes; β = g⁻¹∘α∘g extends b
    automatically."""
    violations = p_check(g, cert, p)
    if violations:
        raise PPairError(violations)

    abar = {}
    for x, y in p.a.pairs:
        abar[cert.class_of(x)] = cert.class_of(y)
    index_iso = build(cert.index_order, cert.index_order,
                      seed=sorted(abar.items()),
                      constraints=[Constraint("index colour",
                                              cert.colour_of_index,
                                              cert.colour_of_index)])

    def image_points(x, lo, hi):
        # image points pair with image points: search only those
        return cert.image_points_between(lo, hi) if cert.in_image(x) else None

    def block_points(index_map):
        # the points of the class index_map assigns to x's class
        def stream(x, lo, hi):
            return (pt for pt in cert.class_points(index_map(cert.class_of(x)))
                    if (lo is None or lo < pt) and (hi is None or pt < hi))
        return stream

    stab = Constraint("image of g", cert.in_image, cert.in_image,
                      image_points, image_points)
    block = Constraint("class block",
                       lambda x: index_iso.eval_fwd(cert.class_of(x)),
                       cert.class_of,
                       block_points(index_iso.eval_bwd),
                       block_points(index_iso.eval_fwd))
    alpha_iso = build(FullQ(), FullQ(), seed=p.a.pairs,
                      constraints=[stab, block])

    def beta_fn(x):
        return cert.inverse_image(alpha_iso.eval_fwd(g.eval(x)))

    return CommutingPair(
        alpha=LazyEndo(alpha_iso.eval_fwd, label="alpha"),
        beta=LazyEndo(beta_fn, label="beta"),
        alpha_iso=alpha_iso,
        cert=cert,
    )


EQUAL_VERDICT = "s equals g(u)"


def recover_witness(g, cert: GenericCert, u: Rat, s: Rat):
    """Either the verdict that s = g(u), or a commuting pair (α, β) with
    β(u) = u and α(s) ≠ s.  Existence of such a pair for every s ≠ g(u)
    is what lets g's values be read off from commutation alone."""
    u, s = Rat(u), Rat(s)
    gu = g.eval(u)
    if s == gu:
        return EQUAL_VERDICT
    if cert.in_image(s):
        # move s to another image point on its far side from g(u)
        side = (s, None) if gu < s else (None, s)
        t = next(iter(cert.image_points_between(*side)))
        a = FinitePartialMap.from_pairs([(gu, gu), (s, t)])
        b = FinitePartialMap.from_pairs([
            (u, u), (cert.inverse_image(s), cert.inverse_image(t))])
    else:
        q = cert.class_of(s)
        if cert.colour_of_index(q) == Colour.RED:
            # red class: pin its image point, move s within the class on
            # its own side of that point
            r = cert.representative(q)
            t = next(pt for pt in cert.class_points(q)
                     if (pt < r) == (s < r) and pt not in (gu, r, s))
            a = FinitePartialMap.from_pairs([(gu, gu), (r, r), (s, t)])
            w = cert.inverse_image(r)
            b = FinitePartialMap.from_pairs([(u, u), (w, w)])
        else:
            # blue class: move s within its class
            t = next(pt for pt in cert.class_points(q) if pt != s)
            a = FinitePartialMap.from_pairs([(gu, gu), (s, t)])
            b = FinitePartialMap.from_pairs([(u, u)])
    return extend_pair(g, cert, PPair(a, b))


# ---------------------------------------------------------------------------
# closure under composition
# ---------------------------------------------------------------------------

def compose_certified(g2, cert2: GenericCert, g1, cert1: GenericCert):
    """Certified composite g2∘g1; the certificate recolours cert2's index
    order to the classes whose image point survives composition."""
    if cert2.variant != cert1.variant:
        raise ValueError(
            f"variant mismatch: {cert2.variant} composed with {cert1.variant}")
    embedding = ComposedEndo((g2, g1))
    cert = ComposedCert(
        outer=cert2,
        inner_member=cert1.in_image,
        inner_preimage=cert1.inverse_image,
        embedding=embedding,
    )
    return embedding, cert


def absorb(f: PiecewiseEndo):
    """A certified generic g whose composite with the closed-form embedding
    f is again certified-generic; the variant follows the boundedness of
    f's image (unbounded both ways → core, bounded above → plus, bounded
    below → minus, bounded both ways → pm)."""
    report = classify(f)
    if not report.kind.injective:
        x1, x2 = report.non_injective_pair
        raise ValueError(
            f"map is not injective: f({format_rat(x1)}) = f({format_rat(x2)})")
    image = f.image_union()
    below_unbounded = image[0].lo is None
    above_unbounded = image[-1].hi is None
    if below_unbounded and above_unbounded:
        variant = "core"
    elif below_unbounded:
        variant = "plus"
    elif above_unbounded:
        variant = "minus"
    else:
        variant = "pm"
    g, cert2 = generic_embedding(variant)
    fc = f.canonical()

    def inner_preimage(w):
        fibre = fc.point_preimage(w)
        return fibre.lo  # injective, so the fibre is a single point

    cert = ComposedCert(
        outer=cert2,
        inner_member=lambda w: union_contains(image, w),
        inner_preimage=inner_preimage,
        embedding=ComposedEndo((g, fc)),
    )
    return g, cert
