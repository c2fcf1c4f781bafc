"""Seeded property suites and random corpora.

Suite names: ratcore, sim, generic, recover, factor, actions, clone,
topology, and the umbrella "all".

``run_suite`` owns the generator and the result: it seeds one generator
per suite from the string ``f"{seed}:{name}"``, hands it to the suite, and
wraps the properties the suite returns, in order, in a ``SuiteResult``.  So
a given ``RunConfig`` always produces the identical report, byte for byte.
Each property is straight-line code over one ``_Check`` counter, which
records every check; ``_Check.all`` checks until the first failure.

Properties are not declared as data (a corpus size, a draw and a check
that a runner loops over).  Only a few would fit: sim, factor and actions
interleave several properties over one draw, so the rest would stay
hand-written, a second way to write a property.  Corpus sizes stay named
locals until a ``--budget`` gives a size table a reader.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from .actions import LabelledForest, OrbitPoint, act, fixpoint_check, verify_action
from .clone import (
    FinitaryOp,
    GridOp,
    clone_compose,
    essential_positions,
    preserves_either_equal,
    unary_reconstruction,
)
from .endo import (
    Piece,
    PiecewiseEndo,
    cancellability_witness,
    classify,
    compose,
    constant_map,
    epi_mono_factorize,
    identity_map,
    right_inverse,
)
from .generic import (
    absorb,
    compose_certified,
    extend_pair,
    generic_embedding,
    p_check,
    recover_witness,
    sim_related,
)
from .lazyiso import Marker
from .partialmap import EMPTY_MAP, FinitePartialMap
from .ratcore import (
    Colour,
    Rat,
    RatInterval,
    colour,
    colour_witness,
    merge_intervals,
    nth_rational,
    rat_index,
)
from .topology import N_MAX, UltraMetricContext, automorphism_near, dist, lift_convergence

__all__ = [
    "RunConfig",
    "PropertyResult",
    "SuiteResult",
    "SUITE_NAMES",
    "run_suite",
    "random_monotone_endo",
    "random_interval_union",
    "prefix_approximant",
]

@dataclass(frozen=True)
class RunConfig:
    seed: int = 20260816
    budget: int = 300
    fmt: str = "text"
    # extra forest for the actions suite corpus (validated at parse time)
    extra_forest: Optional[LabelledForest] = None


@dataclass(frozen=True)
class PropertyResult:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    name: str
    properties: Tuple[PropertyResult, ...]

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.properties)

    def render(self, cfg: RunConfig) -> str:
        if cfg.fmt == "rows":
            return "\n".join(
                f"{self.name}\t{p.name}\t{'pass' if p.ok else 'fail'}\t{p.detail}"
                for p in self.properties)
        lines = [f"suite {self.name} "
                 f"(seed={cfg.seed}, budget={cfg.budget}, depth={N_MAX})"]
        for p in self.properties:
            status = "PASS" if p.ok else "FAIL"
            lines.append(f"  [{status}] {p.name}: {p.detail}")
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'} "
                     f"({len(self.properties)} properties)")
        return "\n".join(lines)


class _Check:
    """One property's counter: every check it runs and every failure.

    ``check(ok)`` records one check and returns ``ok``; ``all(oks)``
    records each check up to and including the first failure.  The
    property passes only when it ran at least one check and none failed,
    so an empty sample never prints PASS."""

    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures = 0

    def __call__(self, ok: bool) -> bool:
        self.checks += 1
        if not ok:
            self.failures += 1
        return ok

    def all(self, oks: Iterable[bool]) -> bool:
        return all(map(self, oks))

    def count(self, checks: int, failures: int) -> None:
        """Record a batch of checks that ran elsewhere."""
        self.checks += checks
        self.failures += failures

    def result(self, detail: str,
               noun: Optional[str] = "failures") -> PropertyResult:
        """The property's line: ``detail``, then "; N <noun>" unless
        ``noun`` is None."""
        if noun is not None:
            detail = f"{detail}; {self.failures} {noun}"
        return PropertyResult(
            self.name, self.checks > 0 and self.failures == 0, detail)


# ---------------------------------------------------------------------------
# random corpora
# ---------------------------------------------------------------------------

def random_fraction(rng: random.Random, lo: int = -8, hi: int = 8,
                    den: int = 6) -> Rat:
    d = rng.randint(1, den)
    return Rat(rng.randint(lo * d, hi * d), d)


def random_monotone_endo(rng: random.Random, max_cuts: int = 4,
                         injective: bool = False,
                         surjective: bool = False) -> PiecewiseEndo:
    """Weakly monotone piecewise map; optionally injective (no plateaus)
    or surjective (continuous, with sloped unbounded end pieces)."""
    ncuts = rng.randint(0, max_cuts)
    cuts: List[Rat] = []
    while len(cuts) < ncuts:
        c = random_fraction(rng)
        if c not in cuts:
            cuts.append(c)
    cuts.sort()
    slope_pool = [Rat(1, 2), Rat(1), Rat(2)]
    plateau_pool = slope_pool + [Rat(0)]
    pieces = []
    level = random_fraction(rng, -5, 5, 4)
    lo: Optional[Rat] = None
    lo_closed = False
    for i in range(ncuts + 1):
        hi = cuts[i] if i < ncuts else None
        allow_flat = (not injective) and (not surjective or 0 < i < ncuts)
        s = rng.choice(plateau_pool if allow_flat else slope_pool)
        anchor = lo if lo is not None else (hi - 1 if hi is not None else Rat(0))
        intercept = level - s * anchor
        hi_closed = i < ncuts and rng.random() < 0.5
        pieces.append(Piece(RatInterval(lo, hi, lo_closed, hi_closed), s, intercept))
        if hi is not None:
            jump = Rat(0) if surjective else \
                rng.choice([Rat(0), Rat(0), Rat(1, 2), Rat(2)])
            level = s * hi + intercept + jump
            lo, lo_closed = hi, not hi_closed
    return PiecewiseEndo(tuple(pieces))


def random_interval_union(rng: random.Random) -> tuple:
    """Up to three intervals cut at distinct random fractions, an end one
    perhaps unbounded, or the whole line when under two cuts are drawn.
    The cuts come from a set, so the union holds no isolated point.  With
    two, sim_related is not transitive: for A = {0} ∪ {2}, -1 ~ 1 and
    1 ~ 3 hold but -1 ~ 3 does not, and equivalence-laws would fail."""
    n = rng.randint(1, 3)
    cuts = sorted({random_fraction(rng, -6, 6, 4) for _ in range(2 * n)})
    it = iter(cuts)
    ivs = [RatInterval(a, b, rng.random() < 0.5, rng.random() < 0.5)
           for a, b in zip(it, it)]
    if ivs and rng.random() < 0.3:
        first = ivs[0]
        ivs[0] = RatInterval(None, first.hi, False, first.hi_closed)
    if ivs and rng.random() < 0.3:
        last = ivs[-1]
        ivs[-1] = RatInterval(last.lo, None, last.lo_closed, False)
    if not ivs:
        ivs = [RatInterval(None, None)]
    return merge_intervals(ivs)


# ---------------------------------------------------------------------------
# suite: ratcore (colour density)
# ---------------------------------------------------------------------------

def suite_ratcore(rng: random.Random, cfg: RunConfig) -> List[PropertyResult]:
    pts = sorted(nth_rational(i) for i in range(200))
    density = _Check("colour-density")
    for a, b in itertools.combinations(pts, 2):
        for col in (Colour.RED, Colour.BLUE):
            w = colour_witness(a, b, col)
            density(a < w < b and colour(w) == col)
    n = 2000
    seen = {nth_rational(i) for i in range(n)}
    enum = _Check("enumeration-roundtrip")
    enum(len(seen) == n and all(rat_index(nth_rational(i)) == i for i in range(n)))
    return [
        density.result(
            f"{math.comb(len(pts), 2)} pairs from the first {len(pts)} "
            "rationals, both colours strictly between each"),
        enum.result(
            f"first {n} enumerated rationals distinct, index roundtrip exact",
            noun=None)]


# ---------------------------------------------------------------------------
# suite: sim (gap-equivalence laws)
# ---------------------------------------------------------------------------

def suite_sim(rng: random.Random, cfg: RunConfig) -> List[PropertyResult]:
    corpus = [random_interval_union(rng) for _ in range(20)]
    per_union = 200
    eq, convex = _Check("equivalence-laws"), _Check("classes-convex")
    for A in corpus:
        for _ in range(per_union):
            x, y, z = (random_fraction(rng, -7, 7, 8) for _ in range(3))
            eq(sim_related(A, x, x))
            eq(sim_related(A, x, y) == sim_related(A, y, x))
            eq(not (sim_related(A, x, y) and sim_related(A, y, z))
               or sim_related(A, x, z))
            lo, mid, hi = sorted((x, y, z))
            convex(not sim_related(A, lo, hi)
                   or (sim_related(A, lo, mid) and sim_related(A, mid, hi)))
    return [
        eq.result(f"{len(corpus)} interval unions x {per_union} triples "
                  "(reflexive/symmetric/transitive)"),
        convex.result(f"{convex.checks} triples", noun="convexity failures")]


# ---------------------------------------------------------------------------
# suite: generic (certified embeddings, fresh and composed)
# ---------------------------------------------------------------------------

def _certificate_sample(check, cert, rng, spread, draws, npairs):
    """Shared sampling: ``draws`` draws among the first ``spread``
    rationals, whose images under the certified embedding land in pairwise
    distinct red classes, with a blue class strictly between any two.
    Each claim goes to ``check``; returns the sorted distinct points and
    their images."""
    points = sorted({nth_rational(rng.randrange(spread)) for _ in range(draws)})
    imgs = [cert.embedding.eval(x) for x in points]
    classes = [cert.class_of(y) for y in imgs]
    check(len(set(classes)) == len(classes))
    for q in classes:
        check(cert.colour_of_index(q) == Colour.RED)
    idx = list(range(len(points)))
    pairs = list(zip(idx, idx[1:]))
    while len(pairs) < npairs:
        pairs.append(tuple(sorted(rng.sample(idx, 2))))
    for i, j in pairs[:npairs]:
        blue = cert.blue_index_between(classes[i], classes[j])
        check(cert.colour_of_index(blue) == Colour.BLUE
              and classes[i] < blue < classes[j])
    return points, imgs


def _marker_bounds_ok(cert, imgs) -> bool:
    ok = True
    if cert.variant in ("plus", "pm"):
        frontier = next(iter(cert.class_points(Marker.MAX)))
        ok = ok and all(y < frontier for y in imgs)
    if cert.variant in ("minus", "pm"):
        frontier = next(iter(cert.class_points(Marker.MIN)))
        ok = ok and all(y > frontier for y in imgs)
    return ok


def suite_generic(rng: random.Random, cfg: RunConfig) -> List[PropertyResult]:
    props = []
    npairs = 100
    for variant in ("core", "plus", "minus", "pm"):
        _, cert = generic_embedding(variant)
        certificate = _Check(f"certificate-{variant}")
        xs, imgs = _certificate_sample(certificate, cert, rng, 120, 150, npairs)
        if variant == "core":
            certificate(
                next(iter(cert.image_points_between(max(imgs), None)), None)
                is not None
                and next(iter(cert.image_points_between(None, min(imgs))), None)
                is not None)
            bound_note = "image points exist beyond every sample (coterminal)"
        else:
            certificate(_marker_bounds_ok(cert, imgs))
            bound_note = "marker classes bound the image on the declared sides"
        props.append(certificate.result(
            f"{len(xs)} image points in distinct red classes, {npairs} pairs "
            f"with a blue class strictly between, {bound_note}"))

    absorbed = _Check("absorbed-certificates")
    nmaps = 20
    for _ in range(nmaps):
        f = random_monotone_endo(rng, injective=True)
        cert = absorb(f)
        absorbed(cert.variant == "core")
        xs, imgs = _certificate_sample(absorbed, cert, rng, 60, 40, npairs)
        top = cert.embedding.eval(max(xs) + 1)
        bot = cert.embedding.eval(min(xs) - 1)
        absorbed(all(bot < y < top for y in imgs))

    composed = _Check("composed-bounded-certificates")
    bounded_variants = [("plus", "minus", "pm")[i % 3] for i in range(10)]
    for variant in bounded_variants:
        _, inner = generic_embedding(variant)
        _, outer = generic_embedding(variant)
        cert = compose_certified(outer, inner)
        composed(cert.variant == variant)
        _, imgs = _certificate_sample(composed, cert, rng, 40, 25, npairs)
        composed(_marker_bounds_ok(cert, imgs))
    return props + [
        absorbed.result(
            f"{nmaps} random injective piecewise maps absorbed into certified "
            "composites, each re-passing the red/blue sampling with image "
            "points beyond every sample"),
        composed.result(
            f"{len(bounded_variants)} composites of bounded certified "
            "embeddings (variants plus/minus/pm) re-pass the red/blue "
            "sampling with marker bounds")]


# ---------------------------------------------------------------------------
# suite: recover (commuting extensions and recovery)
# ---------------------------------------------------------------------------

def _sample_witness_point(rng, cert):
    """An image, blue, or red non-image point near the embedding."""
    g = cert.embedding
    mode = rng.randrange(3)
    v = nth_rational(rng.randrange(40))
    y = g.eval(v)
    if mode == 0:
        return y
    if mode == 1:
        y2 = g.eval(v + 1)
        blue = cert.blue_index_between(cert.class_of(y), cert.class_of(y2))
        return next(iter(cert.class_points(blue)))
    q = cert.class_of(y)
    return next(p for p in cert.class_points(q) if p != y)


def _random_valid_pair(rng, cert) -> Tuple[FinitePartialMap, FinitePartialMap]:
    g = cert.embedding
    kind = rng.randrange(3)
    if kind == 0:
        us = sorted({nth_rational(rng.randrange(40))
                     for _ in range(rng.randint(1, 4))})
        a = FinitePartialMap.from_pairs([(g.eval(u), g.eval(u)) for u in us])
        b = FinitePartialMap.from_pairs([(u, u) for u in us])
        return a, b
    if kind == 1:
        return EMPTY_MAP, EMPTY_MAP
    u = nth_rational(rng.randrange(30))
    gu = g.eval(u)
    if rng.random() < 0.5:
        s = next(iter(cert.image_points_between(gu, None)))
        t = next(iter(cert.image_points_between(s, None)))
    else:
        s = next(iter(cert.image_points_between(None, gu)))
        t = next(iter(cert.image_points_between(None, s)))
    a = FinitePartialMap.from_pairs([(gu, gu), (s, t)])
    b = FinitePartialMap.from_pairs(
        [(u, u), (cert.inverse_image(s), cert.inverse_image(t))])
    return a, b


def suite_recover(rng: random.Random, cfg: RunConfig) -> List[PropertyResult]:
    g, cert = generic_embedding("core")
    probe = [nth_rational(i) for i in range(200)]
    samples = 50

    extend = _Check("commuting-extension")
    for _ in range(samples):
        a, b = _random_valid_pair(rng, cert)
        if not extend(not p_check(cert, a, b)):
            continue
        cp = extend_pair(cert, a, b)
        for x, y in a.pairs:
            extend(cp.alpha.eval(x) == y)
        for x, y in b.pairs:
            extend(cp.beta.eval(x) == y)
        extend.all(cp.alpha.eval(g.eval(x)) == g.eval(cp.beta.eval(x))
                   for x in probe)

    recover = _Check("recovery-witnesses")
    kinds = {"image": 0, "blue": 0, "red": 0}
    while recover.checks < samples:
        u = nth_rational(rng.randrange(30))
        s = _sample_witness_point(rng, cert)
        if s == g.eval(u):
            continue
        kinds["image" if cert.in_image(s) else str(cert.colour_of(s))] += 1
        cp = recover_witness(cert, u, s)
        recover(cp.beta.eval(u) == u and cp.alpha.eval(s) != s)

    fixes = _Check("alpha-fixes-image-of-fixed-points")
    for _ in range(samples):
        u = nth_rational(rng.randrange(30))
        s = _sample_witness_point(rng, cert)
        if s == g.eval(u):
            continue
        cp = recover_witness(cert, u, s)
        fixes(cp.beta.eval(u) != u or cp.alpha.eval(g.eval(u)) == g.eval(u))
    return [
        extend.result(
            f"{samples} valid seed pairs extended; containments and the "
            f"intertwining identity exact on the first {len(probe)} rationals"),
        recover.result(
            f"{recover.checks} samples with s distinct from g(u) (image "
            f"{kinds['image']}, blue {kinds['blue']}, red {kinds['red']}): "
            "beta fixes u while alpha moves s"),
        fixes.result(
            f"{samples} commuting pairs with beta fixing u: alpha fixes g(u)")]


# ---------------------------------------------------------------------------
# suite: factor (inverses, factorization, witnesses)
# ---------------------------------------------------------------------------

def suite_factor(rng: random.Random, cfg: RunConfig) -> List[PropertyResult]:
    ri = _Check("right-inverse")
    nsurj = 20
    ri_probe = [nth_rational(i) for i in range(500)]
    for _ in range(nsurj):
        gmap = random_monotone_endo(rng, surjective=True)
        h = right_inverse(gmap)
        ri.all(gmap.eval(h.eval(x)) == x for x in ri_probe)

    em = _Check("epi-mono-exact")
    mono = _Check("mono-strictly-monotone")
    pre = _Check("preimage-constructor")
    probe = [nth_rational(i) for i in range(300)]
    nmaps, nmono = 50, 40
    for _ in range(nmaps):
        h = random_monotone_endo(rng)
        fac = epi_mono_factorize(h)
        hc = h.canonical()
        em.all(fac.epi.eval(fac.mono.eval(x)) == hc.eval(x) for x in probe)
        vals = [fac.mono.eval(x) for x in sorted(probe[:nmono])]
        mono(all(a < b for a, b in zip(vals, vals[1:])))
        for _ in range(2):
            r = random_fraction(rng, -6, 6, 5)
            pre(fac.epi.eval(fac.preimage(r)) == r)

    witnesses = _Check("cancellability-witnesses")
    zero = _Check("left-zero-test")
    gs = [random_monotone_endo(rng) for _ in range(45)] + \
        [constant_map(random_fraction(rng)) for _ in range(5)]
    nclassified = 100
    for _ in range(nclassified):
        f = random_monotone_endo(rng)
        rep = classify(f)
        wit = cancellability_witness(f)
        witnesses((wit.left is None) == rep.kind.injective)
        witnesses((wit.right is None) == rep.kind.surjective)
        if wit.left is not None:
            u, v = wit.left
            witnesses(u.canonical() != v.canonical() and
                      compose(f, u).canonical() == compose(f, v).canonical())
        if wit.right is not None:
            j1, j2 = wit.right
            witnesses(j1.canonical() != j2.canonical() and
                      compose(j1, f).canonical() == compose(j2, f).canonical())
        is_left_zero = all(compose(f, gmap).canonical() == f.canonical()
                           for gmap in gs)
        zero(is_left_zero == rep.kind.constant)
    return [
        ri.result(f"{nsurj} surjective maps, composite is the identity on "
                  f"{len(ri_probe)} samples"),
        em.result(f"{nmaps} maps, composite equals the map on the first "
                  f"{len(probe)} rationals"),
        mono.result(f"spread part strictly increasing on {nmono} sorted "
                    "samples per map"),
        pre.result(f"{pre.checks} targets hit through the collapse part"),
        witnesses.result(
            f"{nclassified} maps: witness existence matches classification "
            "flags and witnesses verified by composition"),
        zero.result("constant flag coincides with absorbing all "
                    f"{len(gs)} right factors")]


# ---------------------------------------------------------------------------
# suite: actions (action laws at scale)
# ---------------------------------------------------------------------------

def _forest_corpus() -> List[LabelledForest]:
    return [
        LabelledForest.from_rows(
            [("root", None, 0), ("mid", "root", 1), ("top", "mid", 2)]),
        LabelledForest.from_rows(
            [("r", None, 0), ("a", "r", 1), ("b", "a", 2), ("c", "b", 3)]),
        LabelledForest.from_rows(
            [("r", None, 0), ("left", "r", 1), ("right", "r", 2)]),
    ]


# orbit point sets are drawn from random_fraction(rng, *ORBIT_DRAW), which
# takes ORBIT_RANK_LIMIT values: no set can fill a node labelled above that
ORBIT_DRAW = (-6, 6, 4)
ORBIT_RANK_LIMIT = len({Rat(n, d) for d in range(1, ORBIT_DRAW[2] + 1)
                        for n in range(ORBIT_DRAW[0] * d, ORBIT_DRAW[1] * d + 1)})


def _random_orbit_points(rng, forest, per_node) -> List[OrbitPoint]:
    """per_node random orbit points at each node of forest, in node order."""
    points = []
    for node in forest.nodes():
        rank = forest.label[node]
        for _ in range(per_node):
            B = set()
            while len(B) < rank:
                B.add(random_fraction(rng, *ORBIT_DRAW))
            points.append(OrbitPoint(node, tuple(sorted(B))))
    return points


def suite_actions(rng: random.Random, cfg: RunConfig) -> List[PropertyResult]:
    forests = _forest_corpus()
    if cfg.extra_forest is not None:
        forests.append(cfg.extra_forest)
    fs = [identity_map(), constant_map(Rat(2))] + \
        [random_monotone_endo(rng) for _ in range(13)]
    laws = _Check("action-laws")
    spec = _Check("same-size-specialization")
    contain = _Check("containment")
    for forest in forests:
        points = _random_orbit_points(rng, forest, 6)
        report = verify_action(forest, fs, points)
        laws.count(report.checks, report.failed)
        for f in fs:
            for p in points:
                imgs = {f.eval(b) for b in p.B}
                q = act(forest, f, p)
                spec(len(imgs) != len(p.B)
                     or (q.node == p.node and set(q.B) == imgs))
                contain(set(q.B) <= imgs)

    fix = _Check("finite-image-fixpoints")
    for forest in forests:
        for p in _random_orbit_points(rng, forest, 12):
            try:
                fixpoint_check(forest, p)
            except AssertionError:
                fix(False)
            else:
                fix(True)
    return [
        laws.result(f"{laws.checks} identity/composition checks across "
                    f"{len(forests)} forests"),
        spec.result(f"{spec.checks} samples: size-preserving images keep the "
                    "node and push the set forward"),
        contain.result(f"{contain.checks} samples: acted sets always inside "
                       "the pushed-forward image"),
        fix.result(f"{fix.checks} points stabilized by finite-image "
                   "idempotents")]


# ---------------------------------------------------------------------------
# suite: clone (grid characterization)
# ---------------------------------------------------------------------------

def suite_clone(rng: random.Random, cfg: RunConfig) -> List[PropertyResult]:
    combos = [(size, arity) for size in (2, 3, 4) for arity in (1, 2, 3)]

    char = _Check("either-equal-characterization")
    ntables = 500
    rebuilt = 0
    preserving = 0
    for _ in range(ntables):
        size, arity = combos[rng.randrange(len(combos))]
        grid = tuple(Rat(i) for i in range(size))
        table = {args: rng.choice(grid)
                 for args in itertools.product(grid, repeat=arity)}
        op = GridOp(arity, grid, table)
        lhs = preserves_either_equal(op).preserves
        char(lhs == (len(essential_positions(op)) <= 1))
        if lhs:
            preserving += 1
            rebuilt_as = unary_reconstruction(op)
            if char(rebuilt_as is not None):
                j, u = rebuilt_as
                if char(all(val == u[args[j - 1]] for args, val in op.rows())):
                    rebuilt += 1
    for size in (1, 2, 3, 4):
        for arity in (1, 2, 3):
            grid = tuple(Rat(i) for i in range(size))
            for j in range(1, arity + 1):
                op = GridOp.restriction(FinitaryOp(arity, j), grid)
                char(preserves_either_equal(op).preserves
                     and unary_reconstruction(op) is not None)
            for v in grid:
                op = GridOp.from_function(arity, grid, lambda *a: v)
                char(preserves_either_equal(op).preserves
                     and unary_reconstruction(op) is not None)

    closure = _Check("composition-closure")
    ncompositions = 200
    unaries = [identity_map(), constant_map(Rat(1))] + \
        [random_monotone_endo(rng, max_cuts=2) for _ in range(6)]
    grid3 = (Rat(0), Rat(1), Rat(2))
    for _ in range(ncompositions):
        f = FinitaryOp(2, rng.randint(1, 2), rng.choice(unaries))
        gs = [FinitaryOp(2, rng.randint(1, 2), rng.choice(unaries))
              for _ in range(2)]
        h = clone_compose(f, gs)
        closure(preserves_either_equal(GridOp.restriction(h, grid3)).preserves)
    return [
        char.result(
            f"{ntables} random tables (grids <= 4, arities <= 3, {preserving} "
            f"preserving, {rebuilt} rebuilt as unary-after-projection with "
            "matching tables) plus all projections and constants"),
        closure.result(f"{ncompositions} random compositions stay essentially "
                       "unary on the grid")]


# ---------------------------------------------------------------------------
# suite: topology (metric and convergence lifting)
# ---------------------------------------------------------------------------

def prefix_approximant(n: int, target) -> PiecewiseEndo:
    """A staircase agreeing with a strictly increasing target exactly on
    the first n enumerated rationals and nowhere else."""
    pts = sorted(nth_rational(i) for i in range(n))
    pieces: List[Piece] = []
    prev: Optional[Rat] = None
    for p in pts:
        pieces.append(Piece(RatInterval(prev, p, False, True),
                            Rat(0), target.eval(p)))
        prev = p
    tail_val = target.eval(prev) if prev is not None else Rat(1)
    pieces.append(Piece(RatInterval(prev, None, False, False),
                        Rat(0), tail_val))
    return PiecewiseEndo(tuple(pieces))


def suite_topology(rng: random.Random, cfg: RunConfig) -> List[PropertyResult]:
    ctx = UltraMetricContext()

    tri = _Check("ultrametric-inequality")
    ntriples = 500
    for _ in range(ntriples):
        f, gmap, h = (random_monotone_endo(rng, max_cuts=2) for _ in range(3))
        tri(dist(ctx, f, h).agreement >= min(dist(ctx, f, gmap).agreement,
                                             dist(ctx, gmap, h).agreement))

    lift = _Check("convergence-lifting")
    terms = 10
    for j, k in ((1, 2), (2, 2), (2, 3)):
        rep = lift_convergence(
            lambda n: prefix_approximant(n, identity_map()),
            identity_map(), j, k, terms - 1)
        lift(rep.ok)
        # each row's k-ary probe separates the rebuilt n-th term from the identity
        ident = FinitaryOp(k, j, identity_map())
        lift.all(ident.evaluate(dk.probe) != FinitaryOp(
            k, j, prefix_approximant(n, identity_map())).evaluate(dk.probe)
            for n, _, dk, _ in rep.rows)
        agree = [dk.agreement for _, _, dk, _ in rep.rows]
        lift(len(agree) == terms
             and all(a < b for a, b in zip(agree, agree[1:])))
        moduli = [m for _, _, _, m in rep.rows]
        lift(all(a < b for a, b in zip(moduli, moduli[1:])))

    dense = _Check("automorphism-density")
    nembeddings, depth = 20, 10
    for _ in range(nembeddings):
        emb = random_monotone_endo(rng, max_cuts=2, injective=True)
        for n in range(1, depth + 1):
            auto = automorphism_near(emb, n)
            dense(all(auto.eval(nth_rational(i)) == emb.eval(nth_rational(i))
                      for i in range(n)))
    return [
        tri.result(f"{ntriples} random triples"),
        lift.result(
            f"{terms}-term approximant sequences at three projection/arity "
            "choices: guaranteed moduli strictly increase and realized "
            "distances strictly shrink"),
        dense.result(f"{dense.checks} automorphisms within 2^-n of "
                     f"{nembeddings} embeddings (n <= {depth})")]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_SUITES: dict = {
    suite.__name__.removeprefix("suite_"): suite
    for suite in (suite_ratcore, suite_sim, suite_generic, suite_recover,
                  suite_factor, suite_actions, suite_clone, suite_topology)}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, cfg: Optional[RunConfig] = None) -> SuiteResult:
    """Run one suite on its own generator, seeded by the seed and the
    suite's name."""
    cfg = cfg or RunConfig()
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or 'all'")
    rng = random.Random(f"{cfg.seed}:{name}")
    return SuiteResult(name, tuple(_SUITES[name](rng, cfg)))
