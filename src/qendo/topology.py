"""Pointwise-convergence ultrametric on maps of the rational line.

Two k-ary operations are close when they agree on a long prefix of a fixed
enumeration of k-tuples of rationals; the distance is 2^(-n) for the least
enumeration index n where they differ.  The enumeration diagonalizes the
one-dimensional enumeration through an iterated pairing function, so it is
bijective and deterministic.

The true distance-zero question is only semi-decidable for lazily defined
maps, so ``dist`` probes a bounded prefix (default 2048 tuples) and says
"indistinguishable" rather than "equal" when no difference turns up.  For
finitely presented piecewise maps the comparison is symbolic and exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, isqrt
from typing import Optional, Tuple

from .endo import LazyEndo, PiecewiseEndo
from .lazyiso import FullQ, build
from .ratcore import (
    Rat,
    least_index_in_interval,
    nth_rational,
    rat_index,
    simplest_between,
)

__all__ = [
    "N_MAX",
    "UltraMetricContext",
    "DistResult",
    "dist",
    "automorphism_near",
]

N_MAX = 2048


def _unpair(n: int) -> Tuple[int, int]:
    # inverse of (i, j) -> (i+j)(i+j+1)/2 + j
    w = (isqrt(8 * n + 1) - 1) // 2
    j = n - w * (w + 1) // 2
    return w - j, j


@lru_cache(maxsize=65536)
def _tuple_at(k: int, n: int) -> Tuple[Rat, ...]:
    if k == 1:
        return (nth_rational(n),)
    i, j = _unpair(n)
    return _tuple_at(k - 1, i) + (nth_rational(j),)


@dataclass(frozen=True)
class UltraMetricContext:
    """Arity plus the induced enumeration of k-tuples of rationals."""

    k: int = 1
    depth: int = N_MAX

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("arity must be at least 1")

    def tuple_at(self, n: int) -> Tuple[Rat, ...]:
        return _tuple_at(self.k, n)

    def evaluate(self, op, args: Tuple[Rat, ...]) -> Rat:
        arity = getattr(op, "arity", 1)
        if arity != self.k:
            raise ValueError(
                f"arity mismatch: context is {self.k}-ary, operation is {arity}-ary")
        if hasattr(op, "evaluate"):
            return op.evaluate(args)
        return op.eval(args[0])


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

    @property
    def value(self) -> Rat:
        """2^-index, or 0 when no difference was found.  Built on read: an
        index can run to trillions, and then this has as many bits."""
        return Rat(0) if self.index is None else Rat(1, 2 ** self.index)

    def __str__(self) -> str:
        shown = "0" if self.index is None else f"2^-{self.index}"
        return f"{shown} ({self.verdict})"


def _piecewise_least_difference(f: PiecewiseEndo, g: PiecewiseEndo) -> Optional[int]:
    """Least enumeration index where the two maps differ; None if equal.

    Exact: the comparison is piece-by-piece on the common refinement, so
    the answer does not depend on any probe depth.  One pass visits the
    open regions between cuts and the cuts in increasing order, and skips
    whatever cannot beat the least index found so far, ``best``:
    - an open region is examined only when the index of its least element
      m is below best.  No element of the region has a lower index than m,
      so a skipped region holds no better answer.  m is the region's
      simplest rational when both its ends are finite; on an end region it
      is the first element of the region's enumeration, since a half-line
      holding 0 has least element 0, not the integer next to its bound.
      Each map's formula there is found at m by one binary search.  When
      they differ, the maps differ everywhere on the region except possibly
      at one crossing point, so m's index is the region's answer unless m
      is that point; only then does a witness scan run, and it stops at
      the region's second element.
    - a cut is examined only when its own index is below best.
    - the pass stops once best is 0, the least index there is.
    A region costs a simplest-rational walk (on an end region, the first
    step of its enumeration) and an index walk, a cut costs an index walk,
    and each one examined adds two binary searches, so the pass takes
    O((n + m) log(n + m)) steps over the n + m pieces of the two maps.
    The two maps' cuts are two sorted runs, which one sort merges in
    linear time; a cut that repeats is visited once.
    """
    fc, gc = f.canonical(), g.canonical()
    if fc == gc:
        return None
    best = inf
    lo = None
    for hi in sorted(fc._cuts + gc._cuts) + [None]:
        if lo is not None and hi == lo:
            continue  # a cut both maps make, or a one-point piece's repeat
        # the open region (lo, hi) lies inside one piece of each map
        if lo is None or hi is None:
            m = least_index_in_interval(lo, hi)
        else:
            m = simplest_between(lo, hi)
        n = rat_index(m)
        if n < best:
            fp, gp = fc.pieces[fc.piece_index(m)], gc.pieces[gc.piece_index(m)]
            if (fp.slope, fp.intercept) != (gp.slope, gp.intercept):
                if fp.value_at(m) == gp.value_at(m):
                    n = rat_index(least_index_in_interval(
                        lo, hi, pred=lambda x: fp.value_at(x) != gp.value_at(x)))
                best = min(best, n)
        if hi is not None:
            n = rat_index(hi)
            if n < best:
                fp, gp = fc.pieces[fc.piece_index(hi)], gc.pieces[gc.piece_index(hi)]
                if fp.value_at(hi) != gp.value_at(hi):
                    best = n
        if best == 0:
            break
        lo = hi
    if best == inf:
        raise AssertionError("distinct canonical forms differ nowhere")
    return best


def dist(ctx: UltraMetricContext, f, g) -> DistResult:
    """Ultrametric distance along the context's tuple enumeration."""
    if ctx.k == 1 and isinstance(f, PiecewiseEndo) and isinstance(g, PiecewiseEndo):
        n = _piecewise_least_difference(f, g)
        if n is None:
            return DistResult(None, None, "equal (symbolic)", True)
        probe = ctx.tuple_at(n)
        return DistResult(n, probe, f"differ at e({n}) = {probe[0]}", True)
    for n in range(ctx.depth):
        args = ctx.tuple_at(n)
        if ctx.evaluate(f, args) != ctx.evaluate(g, args):
            shown = ", ".join(map(str, args))
            return DistResult(n, args, f"differ at e({n}) = ({shown})", True)
    return DistResult(None, None, f"indistinguishable at depth {ctx.depth}", False)


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
