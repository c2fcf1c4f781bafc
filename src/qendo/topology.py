"""Pointwise-convergence ultrametric on maps of the rational line and on
the clone they generate.

Two k-ary operations are close when they agree on a long prefix of a fixed
enumeration of k-tuples of rationals; the distance is 2^(-n) for the least
enumeration index n where they differ.  The tuple at index
(i+j)(i+j+1)/2 + j is the (k-1)-tuple at i followed by the j-th rational,
so the enumeration is bijective, and ``axis_index`` is the closed-form
least index whose p-th coordinate is a given rational.  A clone operation
is a unary map after a projection, so its distance is its unary part's
distance moved along a coordinate axis.

Piecewise maps, and operations built from them, are compared symbolically
and exactly.  Distance zero is only semi-decidable for lazily defined
maps, so ``dist`` probes them at the first N_MAX rationals and says
"indistinguishable" rather than "equal" when no difference turns up.
``lift_convergence`` transports unary convergence to the precompositions
with a projection, with realized and guaranteed moduli.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable, Optional, Tuple

from .clone import FinitaryOp
from .endo import LazyEndo, PiecewiseEndo, _cut_cmp, constant_map, identity_map
from .lazyiso import FullQ, build
from .ratcore import (
    Rat,
    least_index_in_interval,
    nth_rational,
    rat_index,
)

__all__ = [
    "N_MAX",
    "DECIMAL_INDEX_BITS",
    "UltraMetricContext",
    "DistResult",
    "axis_index",
    "dist",
    "automorphism_near",
    "LiftReport",
    "lift_convergence",
]

N_MAX = 2048
# an enumeration index of at most this many bits is printed in decimal;
# a longer one as its bit length and the point it enumerates (_index_text)
DECIMAL_INDEX_BITS = 1024
_ZERO = Rat(0)


def axis_index(k: int, p: int, c: int) -> int:
    """The least index of a k-tuple whose p-th coordinate (1-indexed) is
    nth_rational(c).  The tuple there holds 0 at every other coordinate,
    and the index increases strictly with c.  ValueError unless
    1 <= p <= k and c >= 0."""
    if not 1 <= p <= k or c < 0:
        raise ValueError(f"no coordinate {p} of a {k}-tuple at index {c}")
    # the p-tuple (0, ..., 0, c) is the pair (0, c): index c(c+1)/2 + c
    i = c if p == 1 else c * (c + 3) // 2
    for _ in range(k - p):
        i = i * (i + 1) // 2  # the pair (i, 0)
    return i


@dataclass(frozen=True)
class UltraMetricContext:
    """The arity of the operations a distance compares."""

    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("arity must be at least 1")


@dataclass(frozen=True)
class DistResult:
    index: Optional[int]  # least differing enumeration index, if one was found
    probe: Optional[Tuple[Rat, ...]]
    verdict: str
    exact: bool

    @property
    def agreement(self):
        """How many leading enumeration entries the two maps agree on: the
        index, or math.inf when no difference was found.  Larger is closer,
        so distances compare through it without building 2^-index."""
        return inf if self.index is None else self.index

    def distance_text(self) -> str:
        """The distance 2^-index, printed with _index_text, or 0."""
        if self.index is None:
            return "0"
        return f"2^-{_index_text(self.index, _probe_text(self.probe))}"

    def __str__(self) -> str:
        return f"{self.distance_text()} ({self.verdict})"


def _probe_text(probe: Tuple[Rat, ...]) -> str:
    return str(probe[0]) if len(probe) == 1 else f"({', '.join(map(str, probe))})"


def _index_text(index: int, point: str) -> str:
    """An enumeration index, printed exactly at any size: in decimal when
    it has at most DECIMAL_INDEX_BITS bits, else as its bit length and the
    printed point it enumerates, which determines it.  Python refuses to
    print an int of more than 4300 digits in decimal, and the index of the
    integer n has n + 1 bits."""
    bits = index.bit_length()
    if bits <= DECIMAL_INDEX_BITS:
        return str(index)
    return f"<{bits}-bit index of {point}>"


def _piecewise_least_difference(f: PiecewiseEndo, g: PiecewiseEndo) -> Optional[int]:
    """Least enumeration index where the two maps differ; None if equal.

    Exact: the comparison is piece-by-piece on the common refinement, so
    the answer does not depend on any probe depth.  One pass visits the
    open regions between cuts and the cuts in increasing order, and skips
    whatever cannot beat the least index found so far, ``best``:
    - an open region is examined only when the index of its least element
      m is below best.  No element of the region has a lower index than m,
      so a skipped region holds no better answer.  m is the first element
      of the region's enumeration: on a bounded region its simplest
      rational, and on a half-line holding 0, 0 itself rather than the
      integer next to its bound.  Each map's formula there is found at m
      by one binary search, and the two formulas are compared at a point
      with _cut_cmp, in integers.  When they differ, the maps differ
      everywhere on the region except possibly at one crossing point, so
      m's index is the region's answer unless m is that point; only then
      does a witness scan run, and it stops at the region's second element.
    - a cut is examined only when its own index is below best.
    - the pass stops once best is 0, the least index there is.
    A region costs the first step of its enumeration and an index walk, a
    cut costs an index walk, and each one examined adds two binary
    searches, so the pass takes O((n + m) log(n + m)) steps over the
    n + m pieces of the two maps.
    The two maps' cuts are two sorted runs, which one sort merges in
    linear time; a cut that repeats is visited once.

    Before the pass, the two forms are compared at 0, the enumeration's
    index 0: when they differ there, that is the answer, at the cost of
    two binary searches and two evaluations, with no walk and no sort.
    """
    fc, gc = f.canonical(), g.canonical()
    if fc == gc:
        return None
    if fc.eval(_ZERO) != gc.eval(_ZERO):
        return 0
    best = inf
    lo = None
    for hi in sorted(fc._cuts + gc._cuts) + [None]:
        if lo is not None and hi == lo:
            continue  # a cut both maps make, or a one-point piece's repeat
        # the open region (lo, hi) lies inside one piece of each map
        m = least_index_in_interval(lo, hi)
        n = rat_index(m)
        if n < best:
            fp, gp = fc.pieces[fc.piece_index(m)], gc.pieces[gc.piece_index(m)]
            if (fp.slope, fp.intercept) != (gp.slope, gp.intercept):
                if not _cut_cmp(fp, gp, m):
                    n = rat_index(least_index_in_interval(
                        lo, hi, pred=lambda x: _cut_cmp(fp, gp, x)))
                best = min(best, n)
        if hi is not None:
            n = rat_index(hi)
            if n < best:
                fp, gp = fc.pieces[fc.piece_index(hi)], gc.pieces[gc.piece_index(hi)]
                if _cut_cmp(fp, gp, hi):
                    best = n
        if best == 0:
            break
        lo = hi
    if best == inf:
        raise AssertionError("distinct canonical forms differ nowhere")
    return best


def _unary_part(ctx: UltraMetricContext, op) -> Tuple[int, object]:
    """(j, u) for an operation u o pi_j of the context's arity: a bare
    projection has the identity for u, and a unary map u is u o pi_1."""
    j, arity, u = ((op.j, op.arity, op.unary) if isinstance(op, FinitaryOp)
                   else (1, 1, op))
    if arity != ctx.k:
        raise ValueError(
            f"arity mismatch: context is {ctx.k}-ary, operation is {arity}-ary")
    return j, identity_map() if u is None else u


def _unary_least_difference(f, g) -> Tuple[Optional[int], bool]:
    """The least enumeration index where unary maps differ, None if none
    was found, and whether that is exact.  Piecewise maps are compared
    symbolically, others at the first N_MAX rationals."""
    if isinstance(f, PiecewiseEndo) and isinstance(g, PiecewiseEndo):
        return _piecewise_least_difference(f, g), True
    for n in range(N_MAX):
        x = nth_rational(n)
        if f.eval(x) != g.eval(x):
            return n, True
    return None, False


def dist(ctx: UltraMetricContext, f, g) -> DistResult:
    """Ultrametric distance along the context's tuple enumeration.

    f and g are unary maps, or clone operations u o pi_j of the context's
    arity k.  On one projection j the operations first differ at the axis
    tuple holding, at coordinate j, the rational where the unary parts
    first differ.  On projections j1 != j2, with v = u1(0), a tuple
    separates them exactly when u1 or u2 leaves v at its own coordinate,
    so the first one is the least axis tuple where u1 or u2 differs from
    the constant v: the zero tuple when u2(0) != v.  A lazy side whose
    probe finds nothing bounds the answer from below only, by
    axis_index(k, j, N_MAX); an index is exact when below every such bound.
    """
    (j1, u1), (j2, u2) = _unary_part(ctx, f), _unary_part(ctx, g)
    if j1 == j2:
        sides = ((j1, u1, u2),)
    else:
        v = constant_map(u1.eval(Rat(0)))
        sides = ((j1, u1, v), (j2, u2, v))
    found, depth = [], inf  # (index, j, n) of each difference; least bound
    for j, u, w in sides:
        n, exact = _unary_least_difference(u, w)
        if n is not None:
            found.append((axis_index(ctx.k, j, n), j, n))
        elif not exact:
            depth = min(depth, axis_index(ctx.k, j, N_MAX))
    if found and min(found)[0] < depth:
        index, j, n = min(found)
        probe = tuple(nth_rational(n) if p == j else Rat(0)
                      for p in range(1, ctx.k + 1))
        shown = _probe_text(probe)
        return DistResult(index, probe,
                          f"differ at e({_index_text(index, shown)}) = {shown}", True)
    if depth < inf:
        return DistResult(None, None, f"indistinguishable at depth {depth}", False)
    return DistResult(None, None, "equal (symbolic)", True)


def automorphism_near(f, depth: int) -> LazyEndo:
    """An order-automorphism agreeing with f on the first ``depth`` probes.

    Exists whenever f is strictly monotone on those probe points; the
    back-and-forth completion supplies the rest of the bijection.  The
    result is then within 2^(-depth) of f.
    """
    seed = []
    for n in range(depth):
        x = nth_rational(n)
        seed.append((x, f.eval(x)))
    iso = build(FullQ(), FullQ(), seed=seed)
    return LazyEndo(iso.eval_fwd)


@dataclass(frozen=True)
class LiftReport:
    hypothesis_ok: bool
    hypothesis_note: str
    # rows: (n, unary distance, k-ary distance, guaranteed modulus m(n))
    rows: Tuple[Tuple[int, DistResult, DistResult, int], ...]

    @property
    def ok(self) -> bool:
        return self.hypothesis_ok and all(dk.agreement >= m
                                          for _, _, dk, m in self.rows)

    def __str__(self) -> str:
        if not self.hypothesis_ok:
            return f"hypothesis fails: {self.hypothesis_note}"
        lines = [f"{'n':>4}  {'unary dist':>12}  {'k-ary dist':>12}  guaranteed"]
        for n, d1, dk, m in self.rows:
            lines.append(f"{n:>4}  {d1.distance_text():>12}  "
                         f"{dk.distance_text():>12}  <= 2^-{m}")
        lines.append("lifted convergence holds" if self.ok
                     else "lifted convergence FAILS")
        return "\n".join(lines)


def lift_convergence(fs: Callable[[int], object], f, j: int, k: int,
                     N: int) -> LiftReport:
    """Transport unary convergence to the k-ary precompositions with pi_j.

    Hypothesis: the unary distance of fs(n) from f is at most 2^(-n) for
    each n <= N.  Conclusion: the k-ary distance of fs(n) o pi_j from
    f o pi_j is at most 2^(-m(n)), where m(n) = axis_index(k, j, n) is the
    least tuple index whose j-th coordinate lies outside the first n
    enumerated rationals.  fs(n) is called once per n, so both distances
    are about one map even when fs builds a fresh one on each call.
    N < 0 raises ValueError: a report with no rows would hold vacuously.
    """
    if N < 0:
        raise ValueError(f"need N >= 0, got {N}")
    ctx1 = UltraMetricContext(k=1)
    ctxk = UltraMetricContext(k=k)
    rows = []
    for n in range(N + 1):
        fn = fs(n)
        d1 = dist(ctx1, fn, f)
        if d1.agreement < n:
            return LiftReport(
                False,
                f"unary distance at n={n} is {d1} but must be at most 2^-{n}",
                tuple(rows))
        dk = dist(ctxk, FinitaryOp(k, j, fn), FinitaryOp(k, j, f))
        rows.append((n, d1, dk, axis_index(k, j, n)))
    return LiftReport(True, "", tuple(rows))
