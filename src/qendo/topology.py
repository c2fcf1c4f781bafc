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
from math import isqrt
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
    value: Rat
    index: Optional[int]  # least differing enumeration index, if one was found
    probe: Optional[Tuple[Rat, ...]]
    verdict: str
    exact: bool

    def __str__(self) -> str:
        shown = "0" if self.value == 0 else f"2^-{self.index}"
        return f"{shown} ({self.verdict})"


def _piecewise_least_difference(f: PiecewiseEndo, g: PiecewiseEndo) -> Optional[int]:
    """Least enumeration index where the two maps differ; None if equal.

    Exact: the comparison is piece-by-piece on the common refinement, so
    the answer does not depend on any probe depth.  One pass visits each
    region's simplest point and each cut in increasing order and finds
    each map's piece there by one binary search, so the pass takes
    O((n + m) log(n + m)) steps over the n + m pieces, besides the witness
    scans of the regions where the formulas differ.
    """
    fc, gc = f.canonical(), g.canonical()
    if fc == gc:
        return None
    best: Optional[int] = None

    def offer(x: Rat) -> None:
        nonlocal best
        n = rat_index(x)
        if best is None or n < best:
            best = n

    cuts = sorted(set(fc._cuts + gc._cuts))
    lo = None
    for hi in cuts + [None]:
        # the open region (lo, hi) lies inside one piece of each map
        mid = simplest_between(lo, hi)
        fp, gp = fc.pieces[fc.piece_index(mid)], gc.pieces[gc.piece_index(mid)]
        if (fp.slope, fp.intercept) != (gp.slope, gp.intercept):
            # the maps differ everywhere on this open region except possibly
            # at one crossing point, so the witness scan ends quickly
            offer(least_index_in_interval(
                lo, hi, pred=lambda x: fp.value_at(x) != gp.value_at(x)))
        if hi is not None:
            fp, gp = fc.pieces[fc.piece_index(hi)], gc.pieces[gc.piece_index(hi)]
            if fp.value_at(hi) != gp.value_at(hi):
                offer(hi)
        lo = hi
    if best is None:
        raise AssertionError("distinct canonical forms differ nowhere")
    return best


def dist(ctx: UltraMetricContext, f, g) -> DistResult:
    """Ultrametric distance along the context's tuple enumeration."""
    if ctx.k == 1 and isinstance(f, PiecewiseEndo) and isinstance(g, PiecewiseEndo):
        n = _piecewise_least_difference(f, g)
        if n is None:
            return DistResult(Rat(0), None, None, "equal (symbolic)", True)
        probe = ctx.tuple_at(n)
        return DistResult(Rat(1, 2 ** n), n, probe,
                          f"differ at e({n}) = {probe[0]}", True)
    for n in range(ctx.depth):
        args = ctx.tuple_at(n)
        if ctx.evaluate(f, args) != ctx.evaluate(g, args):
            shown = ", ".join(map(str, args))
            return DistResult(Rat(1, 2 ** n), n, args,
                              f"differ at e({n}) = ({shown})", True)
    return DistResult(Rat(0), None, None,
                      f"indistinguishable at depth {ctx.depth}", False)


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
