"""Seeded property suites and random corpora.

Every randomized corpus derives from one seeded generator per suite, so a
given ``RunConfig`` always produces the identical report, byte for byte.
Suite names: ratcore, sim, generic, recover, factor, actions, clone,
topology, and the umbrella "all".
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .actions import LabelledForest, OrbitPoint, act, containment_check, fixpoint_check, verify_action
from .clone import (
    GridOp,
    clone_compose,
    essential_positions,
    lift_convergence,
    preserves_either_equal,
    projection,
    unary_op,
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
    PPair,
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
from .topology import N_MAX, UltraMetricContext, automorphism_near, dist

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

SUITE_NAMES = ("ratcore", "sim", "generic", "recover", "factor",
               "actions", "clone", "topology")


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


def _rng(cfg: RunConfig, suite: str) -> random.Random:
    return random.Random(f"{cfg.seed}:{suite}")


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


def random_interval_union(rng: random.Random, max_parts: int = 3) -> tuple:
    n = rng.randint(1, max_parts)
    cuts = sorted({random_fraction(rng, -6, 6, 4) for _ in range(2 * n)})
    ivs = []
    it = iter(cuts)
    for a, b in zip(it, it):
        if a == b:
            ivs.append(RatInterval(a, a, True, True))
        else:
            ivs.append(RatInterval(a, b, rng.random() < 0.5, rng.random() < 0.5))
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

def suite_ratcore(cfg: RunConfig) -> SuiteResult:
    pts = sorted(nth_rational(i) for i in range(200))
    fails = 0
    pairs = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            pairs += 1
            for col in (Colour.RED, Colour.BLUE):
                w = colour_witness(pts[i], pts[j], col)
                if not (pts[i] < w < pts[j] and colour(w) == col):
                    fails += 1
    density = PropertyResult(
        "colour-density", fails == 0,
        f"{pairs} pairs from the first 200 rationals, "
        f"both colours strictly between each; {fails} failures")
    seen = {nth_rational(i) for i in range(2000)}
    round_ok = len(seen) == 2000 and all(
        rat_index(nth_rational(i)) == i for i in range(2000))
    enum = PropertyResult(
        "enumeration-roundtrip", round_ok,
        "first 2000 enumerated rationals distinct, index roundtrip exact")
    return SuiteResult("ratcore", (density, enum))


# ---------------------------------------------------------------------------
# suite: sim (gap-equivalence laws)
# ---------------------------------------------------------------------------

def suite_sim(cfg: RunConfig) -> SuiteResult:
    rng = _rng(cfg, "sim")
    corpus = [random_interval_union(rng) for _ in range(20)]
    eq_fails = convex_fails = 0
    triples = 0
    for A in corpus:
        for _ in range(200):
            x, y, z = (random_fraction(rng, -7, 7, 8) for _ in range(3))
            triples += 1
            if not sim_related(A, x, x):
                eq_fails += 1
            if sim_related(A, x, y) != sim_related(A, y, x):
                eq_fails += 1
            if sim_related(A, x, y) and sim_related(A, y, z) \
                    and not sim_related(A, x, z):
                eq_fails += 1
            lo, mid, hi = sorted((x, y, z))
            if sim_related(A, lo, hi) and not (
                    sim_related(A, lo, mid) and sim_related(A, mid, hi)):
                convex_fails += 1
    eq = PropertyResult(
        "equivalence-laws", eq_fails == 0,
        f"{len(corpus)} interval unions x 200 triples "
        f"(reflexive/symmetric/transitive); {eq_fails} failures")
    convex = PropertyResult(
        "classes-convex", convex_fails == 0,
        f"{triples} triples; {convex_fails} convexity failures")
    return SuiteResult("sim", (eq, convex))


# ---------------------------------------------------------------------------
# suite: generic (certified embeddings, fresh and composed)
# ---------------------------------------------------------------------------

def _certificate_sample(cert, points, rng, npairs) -> int:
    """Shared sampling: image points of the certified embedding land in
    pairwise distinct red classes, with a blue class strictly between any
    two.  ``points`` must be sorted ascending.  Returns the failure count."""
    emb = cert.embedding
    order = cert.index_order
    imgs = [emb.eval(x) for x in points]
    classes = [cert.class_of(y) for y in imgs]
    fails = 0
    if len({order.format_el(q) for q in classes}) != len(classes):
        fails += 1
    for q in classes:
        if cert.colour_of_index(q) != Colour.RED:
            fails += 1
    idx = list(range(len(points)))
    pairs = list(zip(idx, idx[1:]))
    while len(pairs) < npairs:
        pairs.append(tuple(sorted(rng.sample(idx, 2))))
    for i, j in pairs[:npairs]:
        blue = cert.blue_index_between(classes[i], classes[j])
        if (cert.colour_of_index(blue) != Colour.BLUE
                or not classes[i] < blue < classes[j]):
            fails += 1
    return fails


def _marker_bounds_ok(cert, imgs) -> bool:
    ok = True
    if cert.variant in ("plus", "pm"):
        frontier = next(iter(cert.class_points(Marker.MAX)))
        ok = ok and all(y < frontier for y in imgs)
    if cert.variant in ("minus", "pm"):
        frontier = next(iter(cert.class_points(Marker.MIN)))
        ok = ok and all(y > frontier for y in imgs)
    return ok


def suite_generic(cfg: RunConfig) -> SuiteResult:
    rng = _rng(cfg, "generic")
    props = []
    for variant in ("core", "plus", "minus", "pm"):
        _, cert = generic_embedding(variant)
        xs = sorted({nth_rational(rng.randrange(120)) for _ in range(150)})
        fails = _certificate_sample(cert, xs, rng, 100)
        imgs = [cert.embedding.eval(x) for x in xs]
        if variant == "core":
            bounded_ok = (
                next(iter(cert.image_points_between(max(imgs), None)), None)
                is not None) and (
                next(iter(cert.image_points_between(None, min(imgs))), None)
                is not None)
            bound_note = "image points exist beyond every sample (coterminal)"
        else:
            bounded_ok = _marker_bounds_ok(cert, imgs)
            bound_note = "marker classes bound the image on the declared sides"
        props.append(PropertyResult(
            f"certificate-{variant}", fails == 0 and bounded_ok,
            f"{len(xs)} image points in distinct red classes, 100 pairs "
            f"with a blue class strictly between, {bound_note}; "
            f"{fails} failures"))

    absorbed_fails = 0
    for _ in range(20):
        f = random_monotone_endo(rng, injective=True)
        _, cert = absorb(f)
        if cert.variant != "core":
            absorbed_fails += 1
        xs = sorted({nth_rational(rng.randrange(60)) for _ in range(40)})
        absorbed_fails += _certificate_sample(cert, xs, rng, 100)
        top = cert.embedding.eval(max(xs) + 1)
        bot = cert.embedding.eval(min(xs) - 1)
        if not (all(top > y for y in (cert.embedding.eval(x) for x in xs))
                and all(bot < y for y in (cert.embedding.eval(x) for x in xs))):
            absorbed_fails += 1
    absorbed = PropertyResult(
        "absorbed-certificates", absorbed_fails == 0,
        "20 random injective piecewise maps absorbed into certified "
        "composites, each re-passing the red/blue sampling with image "
        f"points beyond every sample; {absorbed_fails} failures")

    composed_fails = 0
    bounded_variants = [("plus", "minus", "pm")[i % 3] for i in range(10)]
    for variant in bounded_variants:
        g1, cert1 = generic_embedding(variant)
        g2, cert2 = generic_embedding(variant)
        _, cert = compose_certified(g2, cert2, g1, cert1)
        if cert.variant != variant:
            composed_fails += 1
        xs = sorted({nth_rational(rng.randrange(40)) for _ in range(25)})
        composed_fails += _certificate_sample(cert, xs, rng, 100)
        imgs = [cert.embedding.eval(x) for x in xs]
        if not _marker_bounds_ok(cert, imgs):
            composed_fails += 1
    composed = PropertyResult(
        "composed-bounded-certificates", composed_fails == 0,
        "10 composites of bounded certified embeddings (variants "
        "plus/minus/pm) re-pass the red/blue sampling with marker bounds; "
        f"{composed_fails} failures")
    return SuiteResult("generic", tuple(props) + (absorbed, composed))


# ---------------------------------------------------------------------------
# suite: recover (commuting extensions and recovery)
# ---------------------------------------------------------------------------

def _sample_witness_points(rng, g, cert, count):
    """Mix of image, blue, and red-non-image points near the embedding."""
    out = []
    while len(out) < count:
        mode = rng.randrange(3)
        v = nth_rational(rng.randrange(40))
        y = g.eval(v)
        if mode == 0:
            out.append(y)
        elif mode == 1:
            y2 = g.eval(v + 1)
            qa, qb = cert.class_of(y), cert.class_of(y2)
            blue = cert.blue_index_between(qa, qb)
            out.append(next(iter(cert.class_points(blue))))
        else:
            q = cert.class_of(y)
            out.append(next(p for p in cert.class_points(q) if p != y))
    return out


def _random_valid_pair(rng, g, cert) -> PPair:
    kind = rng.randrange(3)
    if kind == 0:
        us = sorted({nth_rational(rng.randrange(40))
                     for _ in range(rng.randint(1, 4))})
        a = FinitePartialMap.from_pairs([(g.eval(u), g.eval(u)) for u in us])
        b = FinitePartialMap.from_pairs([(u, u) for u in us])
        return PPair(a, b)
    if kind == 1:
        return PPair(EMPTY_MAP, EMPTY_MAP)
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
    return PPair(a, b)


def suite_recover(cfg: RunConfig) -> SuiteResult:
    rng = _rng(cfg, "recover")
    g, cert = generic_embedding("core")
    probe = [nth_rational(i) for i in range(200)]

    pair_fails = 0
    for _ in range(50):
        p = _random_valid_pair(rng, g, cert)
        if p_check(g, cert, p):
            pair_fails += 1
            continue
        cp = extend_pair(g, cert, p)
        for x, y in p.a.pairs:
            if cp.alpha.eval(x) != y:
                pair_fails += 1
        for x, y in p.b.pairs:
            if cp.beta.eval(x) != y:
                pair_fails += 1
        for x in probe:
            if cp.alpha.eval(g.eval(x)) != g.eval(cp.beta.eval(x)):
                pair_fails += 1
                break
    extend = PropertyResult(
        "commuting-extension", pair_fails == 0,
        "50 valid seed pairs extended; containments and the intertwining "
        f"identity exact on the first {len(probe)} rationals; "
        f"{pair_fails} failures")

    fwd_fails = 0
    kinds = {"image": 0, "blue": 0, "red": 0}
    done = 0
    while done < 50:
        u = nth_rational(rng.randrange(30))
        s = _sample_witness_points(rng, g, cert, 1)[0]
        if s == g.eval(u):
            continue
        done += 1
        if cert.in_image(s):
            kinds["image"] += 1
        elif cert.colour_of(s) == Colour.BLUE:
            kinds["blue"] += 1
        else:
            kinds["red"] += 1
        cp = recover_witness(g, cert, u, s)
        if cp.beta.eval(u) != u or cp.alpha.eval(s) == s:
            fwd_fails += 1
    recover = PropertyResult(
        "recovery-witnesses", fwd_fails == 0,
        f"50 samples with s distinct from g(u) (image {kinds['image']}, "
        f"blue {kinds['blue']}, red {kinds['red']}): beta fixes u while "
        f"alpha moves s; {fwd_fails} failures")

    fixed_fails = 0
    for _ in range(50):
        u = nth_rational(rng.randrange(30))
        s = _sample_witness_points(rng, g, cert, 1)[0]
        if s == g.eval(u):
            continue
        cp = recover_witness(g, cert, u, s)
        if cp.beta.eval(u) == u and cp.alpha.eval(g.eval(u)) != g.eval(u):
            fixed_fails += 1
    fixes = PropertyResult(
        "alpha-fixes-image-of-fixed-points", fixed_fails == 0,
        "50 commuting pairs with beta fixing u: alpha fixes g(u); "
        f"{fixed_fails} failures")
    return SuiteResult("recover", (extend, recover, fixes))


# ---------------------------------------------------------------------------
# suite: factor (inverses, factorization, witnesses)
# ---------------------------------------------------------------------------

def suite_factor(cfg: RunConfig) -> SuiteResult:
    rng = _rng(cfg, "factor")

    ri_fails = 0
    for _ in range(20):
        gmap = random_monotone_endo(rng, surjective=True)
        h = right_inverse(gmap)
        for i in range(500):
            x = nth_rational(i)
            if gmap.eval(h.eval(x)) != x:
                ri_fails += 1
                break
    ri = PropertyResult(
        "right-inverse", ri_fails == 0,
        "20 surjective maps, composite is the identity on 500 samples; "
        f"{ri_fails} failures")

    em_fails = mono_fails = pre_fails = 0
    probe = [nth_rational(i) for i in range(300)]
    targets = 0
    for _ in range(50):
        h = random_monotone_endo(rng)
        fac = epi_mono_factorize(h)
        hc = h.canonical()
        for x in probe:
            if fac.epi.eval(fac.mono.eval(x)) != hc.eval(x):
                em_fails += 1
                break
        vals = [fac.mono.eval(x) for x in sorted(probe[:40])]
        if any(a >= b for a, b in zip(vals, vals[1:])):
            mono_fails += 1
        for _ in range(2):
            r = random_fraction(rng, -6, 6, 5)
            targets += 1
            if fac.epi.eval(fac.preimage(r)) != r:
                pre_fails += 1
    em = PropertyResult(
        "epi-mono-exact", em_fails == 0,
        f"50 maps, composite equals the map on the first {len(probe)} "
        f"rationals; {em_fails} failures")
    mono = PropertyResult(
        "mono-strictly-monotone", mono_fails == 0,
        "spread part strictly increasing on 40 sorted samples per map; "
        f"{mono_fails} failures")
    pre = PropertyResult(
        "preimage-constructor", pre_fails == 0,
        f"{targets} targets hit through the collapse part; {pre_fails} failures")

    wit_fails = 0
    zero_fails = 0
    gs = [random_monotone_endo(rng) for _ in range(45)] + \
        [constant_map(random_fraction(rng)) for _ in range(5)]
    for _ in range(100):
        f = random_monotone_endo(rng)
        rep = classify(f)
        wit = cancellability_witness(f)
        if (wit.left is None) != rep.kind.injective:
            wit_fails += 1
        if (wit.right is None) != rep.kind.surjective:
            wit_fails += 1
        if wit.left is not None:
            u, v = wit.left
            if u.canonical() == v.canonical() or \
                    compose(f, u).canonical() != compose(f, v).canonical():
                wit_fails += 1
        if wit.right is not None:
            j1, j2 = wit.right
            if j1.canonical() == j2.canonical() or \
                    compose(j1, f).canonical() != compose(j2, f).canonical():
                wit_fails += 1
        is_left_zero = all(compose(f, gmap).canonical() == f.canonical()
                           for gmap in gs)
        if is_left_zero != rep.kind.constant:
            zero_fails += 1
    wit = PropertyResult(
        "cancellability-witnesses", wit_fails == 0,
        "100 maps: witness existence matches classification flags and "
        f"witnesses verified by composition; {wit_fails} failures")
    zero = PropertyResult(
        "left-zero-test", zero_fails == 0,
        "constant flag coincides with absorbing all 50 right factors; "
        f"{zero_fails} failures")
    return SuiteResult("factor", (ri, em, mono, pre, wit, zero))


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


def suite_actions(cfg: RunConfig) -> SuiteResult:
    rng = _rng(cfg, "actions")
    forests = _forest_corpus()
    if cfg.extra_forest is not None:
        forests.append(cfg.extra_forest)
    fs = [identity_map(), constant_map(Rat(2))] + \
        [random_monotone_endo(rng) for _ in range(13)]
    total_checks = 0
    law_fails = 0
    spec_fails = 0
    contain_fails = 0
    sample_count = 0
    for forest in forests:
        points = []
        for node in forest.nodes():
            rank = forest.label[node]
            for _ in range(6):
                B = set()
                while len(B) < rank:
                    B.add(random_fraction(rng, -6, 6, 4))
                points.append(OrbitPoint(node, tuple(sorted(B))))
        report = verify_action(forest, fs, points)
        total_checks += report.checks
        if not report.ok:
            law_fails += len(report.failures)
        for f in fs:
            for p in points:
                sample_count += 1
                imgs = {f.eval(b) for b in p.B}
                q = act(forest, f, p)
                if len(imgs) == len(p.B) and (
                        q.node != p.node or set(q.B) != imgs):
                    spec_fails += 1
                if not containment_check(forest, f, p):
                    contain_fails += 1
    laws = PropertyResult(
        "action-laws", law_fails == 0,
        f"{total_checks} identity/composition checks across "
        f"{len(forests)} forests; {law_fails} failures")
    spec = PropertyResult(
        "same-size-specialization", spec_fails == 0,
        f"{sample_count} samples: size-preserving images keep the node and "
        f"push the set forward; {spec_fails} failures")
    contain = PropertyResult(
        "containment", contain_fails == 0,
        f"{sample_count} samples: acted sets always inside the "
        f"pushed-forward image; {contain_fails} failures")
    fix_fails = 0
    fixed = 0
    for forest in forests:
        for node in forest.nodes():
            rank = forest.label[node]
            for _ in range(12):
                B = set()
                while len(B) < rank:
                    B.add(random_fraction(rng, -6, 6, 4))
                p = OrbitPoint(node, tuple(sorted(B)))
                try:
                    fixpoint_check(forest, p)
                    fixed += 1
                except AssertionError:
                    fix_fails += 1
    fix = PropertyResult(
        "finite-image-fixpoints", fix_fails == 0,
        f"{fixed + fix_fails} points stabilized by finite-image idempotents; "
        f"{fix_fails} failures")
    return SuiteResult("actions", (laws, spec, contain, fix))


# ---------------------------------------------------------------------------
# suite: clone (grid characterization)
# ---------------------------------------------------------------------------

def suite_clone(cfg: RunConfig) -> SuiteResult:
    rng = _rng(cfg, "clone")
    combos = [(size, arity) for size in (2, 3, 4) for arity in (1, 2, 3)]

    char_fails = 0
    rebuilt = 0
    preserving = 0
    for _ in range(500):
        size, arity = combos[rng.randrange(len(combos))]
        grid = tuple(Rat(i) for i in range(size))
        table = {args: rng.choice(grid)
                 for args in itertools.product(grid, repeat=arity)}
        op = GridOp(arity, grid, table)
        lhs = preserves_either_equal(op).preserves
        rhs = len(essential_positions(op)) <= 1
        if lhs != rhs:
            char_fails += 1
        if lhs:
            preserving += 1
            rebuilt_as = unary_reconstruction(op)
            if rebuilt_as is None:
                char_fails += 1
            else:
                j, u = rebuilt_as
                if any(val != u[args[j - 1]] for args, val in op.rows()):
                    char_fails += 1
                else:
                    rebuilt += 1
    for size in (1, 2, 3, 4):
        for arity in (1, 2, 3):
            grid = tuple(Rat(i) for i in range(size))
            for j in range(1, arity + 1):
                op = GridOp.restriction(projection(arity, j), grid)
                if not preserves_either_equal(op).preserves or \
                        unary_reconstruction(op) is None:
                    char_fails += 1
            for v in grid:
                op = GridOp.from_function(arity, grid, lambda *a: v)
                if not preserves_either_equal(op).preserves or \
                        unary_reconstruction(op) is None:
                    char_fails += 1
    char = PropertyResult(
        "either-equal-characterization", char_fails == 0,
        f"500 random tables (grids <= 4, arities <= 3, {preserving} "
        f"preserving, {rebuilt} rebuilt as unary-after-projection with "
        f"matching tables) plus all projections and constants; "
        f"{char_fails} failures")

    closure_fails = 0
    unaries = [identity_map(), constant_map(Rat(1))] + \
        [random_monotone_endo(rng, max_cuts=2) for _ in range(6)]
    grid3 = (Rat(0), Rat(1), Rat(2))
    for _ in range(200):
        f = unary_op(2, rng.randint(1, 2), rng.choice(unaries))
        gs = [unary_op(2, rng.randint(1, 2), rng.choice(unaries))
              for _ in range(2)]
        h = clone_compose(f, gs)
        if not preserves_either_equal(GridOp.restriction(h, grid3)).preserves:
            closure_fails += 1
    closure = PropertyResult(
        "composition-closure", closure_fails == 0,
        "200 random compositions stay essentially unary on the grid; "
        f"{closure_fails} failures")
    return SuiteResult("clone", (char, closure))


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


def suite_topology(cfg: RunConfig) -> SuiteResult:
    rng = _rng(cfg, "topology")
    ctx = UltraMetricContext()

    tri_fails = 0
    for _ in range(500):
        f, gmap, h = (random_monotone_endo(rng, max_cuts=2) for _ in range(3))
        if dist(ctx, f, h).value > max(dist(ctx, f, gmap).value,
                                       dist(ctx, gmap, h).value):
            tri_fails += 1
    tri = PropertyResult(
        "ultrametric-inequality", tri_fails == 0,
        f"500 random triples; {tri_fails} failures")

    lift_fails = 0
    for j, k in ((1, 2), (2, 2), (2, 3)):
        rep = lift_convergence(
            lambda n: prefix_approximant(n, identity_map()),
            identity_map(), j, k, 9)
        if not rep.ok:
            lift_fails += 1
        vals = [dk.value for _, _, dk, _ in rep.rows]
        if len(vals) != 10 or any(a <= b for a, b in zip(vals, vals[1:])):
            lift_fails += 1
        moduli = [m for _, _, _, m in rep.rows]
        if any(m is None for m in moduli) or \
                any(a >= b for a, b in zip(moduli, moduli[1:])):
            lift_fails += 1
    lift = PropertyResult(
        "convergence-lifting", lift_fails == 0,
        "10-term approximant sequences at three projection/arity choices: "
        "guaranteed moduli strictly increase and realized distances "
        f"strictly shrink; {lift_fails} failures")

    dense_fails = 0
    built = 0
    for _ in range(20):
        emb = random_monotone_endo(rng, max_cuts=2, injective=True)
        for n in range(1, 11):
            auto = automorphism_near(emb, n)
            built += 1
            if any(auto.eval(nth_rational(i)) != emb.eval(nth_rational(i))
                   for i in range(n)):
                dense_fails += 1
    dense = PropertyResult(
        "automorphism-density", dense_fails == 0,
        f"{built} automorphisms within 2^-n of 20 embeddings (n <= 10); "
        f"{dense_fails} failures")
    return SuiteResult("topology", (tri, lift, dense))


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_SUITES: dict = {
    "ratcore": suite_ratcore,
    "sim": suite_sim,
    "generic": suite_generic,
    "recover": suite_recover,
    "factor": suite_factor,
    "actions": suite_actions,
    "clone": suite_clone,
    "topology": suite_topology,
}


def run_suite(name: str, cfg: Optional[RunConfig] = None) -> SuiteResult:
    cfg = cfg or RunConfig()
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)} or 'all'")
    return _SUITES[name](cfg)
