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
from typing import Callable, List, Optional, Tuple

from .endo import LazyEndo, PiecewiseEndo
from .lazyiso import FullQ, build
from .ratcore import (
    Rat,
    format_rat,
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
    "subbasic_contains",
    "ConvergenceReport",
    "check_convergence",
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


def _boundary_points(f: PiecewiseEndo) -> List[Rat]:
    pts = []
    for p in f.pieces:
        if p.interval.lo is not None:
            pts.append(p.interval.lo)
        if p.interval.hi is not None:
            pts.append(p.interval.hi)
    return pts


def _formula_at(f: PiecewiseEndo, x: Rat) -> Tuple[Rat, Rat]:
    for p in f.pieces:
        if p.interval.contains(x):
            if p.interval.is_degenerate():
                return Rat(0), f.eval(x)
            return p.slope, p.intercept
    raise AssertionError("pieces tile the line")


def _piecewise_least_difference(f: PiecewiseEndo, g: PiecewiseEndo) -> Optional[int]:
    """Least enumeration index where the two maps differ; None if equal.

    Exact: the comparison is piece-by-piece on the common refinement, so
    the answer does not depend on any probe depth.
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

    cuts = sorted(set(_boundary_points(fc) + _boundary_points(gc)))
    for b in cuts:
        if fc.eval(b) != gc.eval(b):
            offer(b)
    regions = []
    prev = None
    for b in cuts:
        regions.append((prev, b))
        prev = b
    regions.append((prev, None))
    for lo, hi in regions:
        if lo is not None and hi is not None and lo >= hi:
            continue
        mid = simplest_between(lo, hi)
        if _formula_at(fc, mid) == _formula_at(gc, mid):
            continue
        # the maps differ everywhere on this open region except possibly
        # at one crossing point, so the witness scan ends quickly
        offer(least_index_in_interval(
            lo, hi, pred=lambda x: fc.eval(x) != gc.eval(x)))
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
                          f"differ at e({n}) = {format_rat(probe[0])}", True)
    for n in range(ctx.depth):
        args = ctx.tuple_at(n)
        if ctx.evaluate(f, args) != ctx.evaluate(g, args):
            shown = ", ".join(format_rat(a) for a in args)
            return DistResult(Rat(1, 2 ** n), n, args,
                              f"differ at e({n}) = ({shown})", True)
    return DistResult(Rat(0), None, None,
                      f"indistinguishable at depth {ctx.depth}", False)


def subbasic_contains(q: Rat, r: Rat, f) -> bool:
    """Membership in the sub-basic open set of maps sending q to r."""
    return f.eval(q) == r


@dataclass(frozen=True)
class ConvergenceReport:
    rows: Tuple[Tuple[int, DistResult], ...]

    @property
    def values(self) -> Tuple[Rat, ...]:
        return tuple(r.value for _, r in self.rows)

    def eventually_below(self, m: int) -> bool:
        """Does some tail of the table stay strictly below 2^(-m)?"""
        bound = Rat(1, 2 ** m)
        tail_max = None
        for _, r in reversed(self.rows):
            tail_max = r.value if tail_max is None else max(tail_max, r.value)
            if tail_max < bound:
                return True
        return False

    def sharpest_threshold(self, m_max: int) -> Optional[int]:
        best = None
        for m in range(m_max + 1):
            if self.eventually_below(m):
                best = m
            else:
                break
        return best

    def __str__(self) -> str:
        lines = [f"{'n':>4}  {'distance':>10}  verdict"]
        for n, r in self.rows:
            shown = "0" if r.value == 0 else f"2^-{r.index}"
            lines.append(f"{n:>4}  {shown:>10}  {r.verdict}")
        m = self.sharpest_threshold(N_MAX.bit_length() - 1)
        lines.append("tail below 2^-%s" % m if m is not None
                     else "no convergence threshold reached")
        return "\n".join(lines)


def check_convergence(seq: Callable[[int], object], limit, N: int,
                      ctx: Optional[UltraMetricContext] = None) -> ConvergenceReport:
    """Distance table of seq(n) against the limit for n = 0..N."""
    ctx = ctx or UltraMetricContext()
    rows = tuple((n, dist(ctx, seq(n), limit)) for n in range(N + 1))
    return ConvergenceReport(rows)


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
    return LazyEndo(iso.eval_fwd, f"automorphism within 2^-{depth}")
