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

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from . import ratcore
from .endo import ComposedEndo, LazyEndo, PiecewiseEndo, classify
from .lazyiso import (
    ColouredQ,
    Constraint,
    FullQ,
    LazyIso,
    LexSum,
    Marker,
    RedQ,
    build,
)
from .partialmap import FinitePartialMap
from .ratcore import (
    Colour,
    Rat,
    nth_rational,
    union_contains,
)

VARIANTS = ("core", "plus", "minus", "pm")

_ZERO = Rat(0)  # an image point's index pair is (q, 0)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class GenericCert:
    """Decidable-query interface onto the class structure of a certified
    embedding.  Class indices live in `index_order` (a dense order,
    possibly with blue endpoint markers) and are coloured by
    `colour_of_index`; every red index carries exactly one image point,
    its representative.  `index_iso` sends the line onto index_order ×
    line, x to (its class, its place in the class).

    Each certificate sets four attributes, `variant`, `index_order`,
    `index_iso` and `embedding` (the certified map), and defines six
    queries: `class_of(x)`, the index of x's class; `colour_of_index(q)`;
    `representative(q)`, the image point of a red class q;
    `in_image(x)`; `inverse_image(x)`, the preimage of an image point;
    and `class_points(q)`, the points of class q without end.  The
    methods below derive the rest from them."""

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

    def blue_index_between(self, qlo, qhi):
        cap = ratcore.SEARCH_CAP
        for steps, q in enumerate(self.index_order.enum_in_gap(qlo, qhi)):
            if steps > cap:
                break
            if self.colour_of_index(q) == Colour.BLUE:
                return q
        raise ratcore.SearchExhausted("blue class search", qlo, qhi,
                                      self.index_order.format_el)


class DirectCert(GenericCert):
    """Certificate built from scratch: an index iso spreads the line over
    (coloured index) × (line), and a red iso from the line onto the red
    rationals, which are the red classes of the index order, enumerates
    where the image points go.  The image point of red class q sits at
    index pair (q, 0)."""

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
        self.red_iso = build(line, RedQ())
        self.embedding = LazyEndo(self._embed)

    def _embed(self, x: Rat) -> Rat:
        return self.representative(self.red_iso.eval_fwd(x))

    def class_of(self, x: Rat):
        return self.index_iso.eval_fwd(x if type(x) is Rat else Rat(x))[0]

    def colour_of_index(self, q) -> Colour:
        return self.index_order.colour_label(q)

    def representative(self, q) -> Rat:
        return self.index_iso.eval_bwd((q, _ZERO))

    def in_image(self, x: Rat) -> bool:
        q, c = self.index_iso.eval_fwd(x if type(x) is Rat else Rat(x))
        return c == 0 and self.colour_of_index(q) is Colour.RED

    def inverse_image(self, x: Rat) -> Rat:
        q, c = self.index_iso.eval_fwd(x if type(x) is Rat else Rat(x))
        if c != 0 or self.colour_of_index(q) is not Colour.RED:
            raise ValueError(f"{Rat(x)} is not an image point")
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
        self.index_iso = outer.index_iso

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
    """At most one point of A strictly between x and y, where A is a
    finite tuple of RatInterval; the points are counted exactly.  For the
    image of a certified embedding, compare `cert.class_of` values.

    The count reads interval bounds only.  With lo < hi the ordered pair,
    an interval misses the open window (lo, hi) exactly when it ends at or
    below lo or starts at or above hi, whether that end is open or closed
    (an infinite end never misses).  A degenerate interval that meets the
    window adds its one point; any other interval that meets it meets it
    in an interval with interior, so infinitely many points.  This holds
    for any tuple of intervals, overlapping or not, so A need not be
    merged first."""
    x, y = Rat(x), Rat(y)
    if x == y:
        return True
    lo, hi = (x, y) if x < y else (y, x)
    count = 0
    for iv in A:
        if (iv.hi is not None and iv.hi <= lo) or (iv.lo is not None and iv.lo >= hi):
            continue
        if not iv.is_degenerate():
            return False  # an interval's worth of points in between
        count += 1
        if count > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# commuting pairs
# ---------------------------------------------------------------------------

class CoordinateIso:
    """An automorphism of the line in a DirectCert's coordinates: with
    (q, b) = idx(x), x goes to idx⁻¹((ι(q), φ_q(b))).  `phi` holds φ_q
    for the classes that need one; every other class maps by the
    identity.  It keeps no memo of its own."""

    def __init__(self, idx: LazyIso, iota: LazyIso, phi: dict):
        self.idx, self.iota, self.phi = idx, iota, phi

    def eval_fwd(self, x):
        q, b = self.idx.eval_fwd(x if type(x) is Rat else Rat(x))
        phi = self.phi.get(q)
        return self.idx.eval_bwd(
            (self.iota.eval_fwd(q), b if phi is None else phi.eval_fwd(b)))

    def eval_bwd(self, y):
        r, c = self.idx.eval_fwd(y if type(y) is Rat else Rat(y))
        q = self.iota.eval_bwd(r)
        phi = self.phi.get(q)
        return self.idx.eval_bwd((q, c if phi is None else phi.eval_bwd(c)))


@dataclass
class CommutingPair:
    alpha: LazyEndo
    beta: LazyEndo
    alpha_iso: CoordinateIso = None


class PPairError(ValueError):
    def __init__(self, violations):
        self.violations = violations
        lines = "; ".join(f"({n}) {msg}" for n, msg in violations)
        super().__init__(f"pair fails compatibility: {lines}")


def p_check(g, cert: GenericCert, a, b) -> List[Tuple[int, str]]:
    """Check the seven compatibility clauses of the partial maps a and b;
    an empty list means the pair is extendable.  Violations are (clause
    number, description).  Maps and inverses are read as dicts; both maps
    increase, so an inverse runs in image order."""
    for name, m in (("a", a), ("b", b)):
        if not m.is_partial_automorphism():
            raise ValueError(f"{name} is not a partial automorphism")
    out = []
    a_fwd, b_fwd = dict(a.pairs), dict(b.pairs)
    a_inv, b_inv = ({y: x for x, y in m.pairs} for m in (a, b))
    c = functools.cache(cert.class_of)
    # (1) colours, the equivalence, and endpoint classes
    for x, y in a.pairs:
        cx, cy = cert.colour_of_index(c(x)), cert.colour_of_index(c(y))
        if cx != cy:
            out.append((1, f"{x} maps {cx} class to {cy} class"))
        for marker in (Marker.MIN, Marker.MAX):
            if (c(x) is marker) != (c(y) is marker):
                out.append((1, f"{x} does not preserve the {marker} endpoint class"))
    for (x1, y1), (x2, y2) in itertools.combinations(a.pairs, 2):
        if (c(x1) == c(x2)) != (c(y1) == c(y2)):
            out.append((1, f"relatedness of {x1},{x2} not mirrored by their images"))
    # (2)/(3) red classes must bring their image point along
    for clause, pool, side in ((2, a_fwd, "domain"), (3, a_inv, "image")):
        for x in pool:
            q = c(x)
            if cert.colour_of_index(q) == Colour.RED:
                rep = cert.representative(q)
                if rep not in pool:
                    out.append((clause, f"red class of {x} has image point {rep} "
                                        f"missing from the {side} of a"))
    # (4)/(5) g carries b into a
    for clause, pts, pool, side in ((4, b_fwd, a_fwd, "domain"),
                                    (5, b_inv, a_inv, "image")):
        for u in pts:
            gu = g.eval(u)
            if gu not in pool:
                out.append((clause, f"g({u}) = {gu} missing from the {side} of a"))
    # (6)/(7) a agrees with g·b·g⁻¹ on image points, and a⁻¹ with g·b⁻¹·g⁻¹
    for clause, fwd, bk, side, text in (
            (6, a_fwd, b_fwd, "domain", "g·b·g⁻¹ and a"),
            (7, a_inv, b_inv, "image", "g·b⁻¹·g⁻¹ and a⁻¹")):
        for x, ax in fwd.items():
            if cert.in_image(x):
                w = cert.inverse_image(x)
                if w not in bk:
                    out.append((clause, f"g⁻¹({x}) = {w} missing from the {side} of b"))
                elif g.eval(bk[w]) != ax:
                    out.append((clause, f"{text} disagree at {x}"))
    return out


def extend_pair(g, cert: GenericCert, a, b) -> CommutingPair:
    """Grow a compatible pair (a, b) of partial maps into commuting
    automorphisms: α extends a, and β = g⁻¹∘α∘g extends b.

    α is built in the coordinates of cert's index iso idx (a ComposedCert
    shares its outer certificate's), which sends x to (q, s): q is x's
    class and s its place in the class.  α(x) = idx⁻¹((ι(q), φ_q(s))),
    where ι is a colour-preserving iso of the index order seeded with a's
    class pairs, colours read from cert itself, and φ_q is an iso of the
    line seeded with the s → t coordinates of a's pairs in class q.  A
    class whose pairs all keep their coordinate maps by the identity.
    An image point is (q, 0) with q red, and p_check puts 0 → 0 among
    the pairs of every red class that a meets, so α keeps the order, the
    classes and the image of g by construction.

    On a DirectCert nothing here can get stuck: ι and each φ_q are plain
    back-and-forth on dense orders.  On a ComposedCert, ι runs on the
    recoloured outer index order, which is not homogeneous, so its
    search can still fail."""
    violations = p_check(g, cert, a, b)
    if violations:
        raise PPairError(violations)

    idx = cert.index_iso
    classes, moves = {}, {}
    for x, y in a.pairs:
        (q, s), (r, t) = idx.eval_fwd(x), idx.eval_fwd(y)
        classes[q] = r
        moves.setdefault(q, []).append((s, t))
    iota = build(cert.index_order, cert.index_order,
                 seed=sorted(classes.items()),
                 constraint=Constraint("index colour", cert.colour_of_index,
                                       cert.colour_of_index))
    phi = {q: build(FullQ(), FullQ(), seed=pairs)
           for q, pairs in moves.items() if any(s != t for s, t in pairs)}
    alpha_iso = CoordinateIso(idx, iota, phi)

    def beta_fn(x):
        return cert.inverse_image(alpha_iso.eval_fwd(g.eval(x)))

    return CommutingPair(
        alpha=LazyEndo(alpha_iso.eval_fwd),
        beta=LazyEndo(beta_fn),
        alpha_iso=alpha_iso,
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
    return extend_pair(g, cert, a, b)


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
    f is again certified-generic.

    g is always the core variant.  An injective f has sloped end pieces
    on its two unbounded intervals, and their images keep the unbounded
    ends, so f's image is unbounded both ways: no least or greatest class
    is needed."""
    report = classify(f)
    if not report.kind.injective:
        x1, x2 = report.non_injective_pair
        raise ValueError(
            f"map is not injective: f({x1}) = f({x2})")
    image = report.image
    g, cert2 = generic_embedding("core")
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
