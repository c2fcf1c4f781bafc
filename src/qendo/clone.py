"""Essentially unary operations, their closure laws, and finite proxies.

The clone generated by a monoid of unary maps consists of projections and
of unary maps precomposed with a projection.  ``FinitaryOp`` represents
exactly those; composition never leaves the class.

``GridOp`` is a finite table proxy for an arbitrary finitary operation.
On a grid every quantifier is exhaustive, which makes two classical facts
checkable: an operation preserves the "either-equal" quaternary relation
{(x,y,z,u) : x = y or z = u} precisely when it has at most one essential
argument position, and in that case it is a unary table composed with a
projection.  ``preserves_either_equal`` decides preservation exactly by a
lossless reformulation: a violating quadruple of argument rows exists if
and only if two value-changing row pairs have disjoint change supports.

``tuple_compose_identity`` checks the finite-image composition identity:
if two operations agree on the product of the images of finite-image
unary maps h_1..h_n, then composing either with (h_1, .., h_n) applied
coordinatewise gives the same function everywhere.

``lift_convergence`` transports a unary convergence hypothesis to k-ary
operations built by precomposition with a projection, reporting realized
and guaranteed moduli along the tuple enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .endo import ComposedEndo, PiecewiseEndo, classify, compose
from .ratcore import Rat, format_rat, nth_rational, parse_rat
from .topology import DistResult, UltraMetricContext, dist

__all__ = [
    "FinitaryOp",
    "projection",
    "unary_op",
    "clone_compose",
    "GridOp",
    "RhoReport",
    "preserves_either_equal",
    "essential_positions",
    "unary_reconstruction",
    "CompositionIdentityReport",
    "tuple_compose_identity",
    "LiftReport",
    "lift_convergence",
]


# ---------------------------------------------------------------------------
# essentially unary operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitaryOp:
    """A projection, or a unary map precomposed with a projection.

    ``j`` is 1-indexed.  ``unary`` is None for bare projections.
    """

    arity: int
    j: int
    unary: Optional[object] = None

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be at least 1")
        if not 1 <= self.j <= self.arity:
            raise ValueError(
                f"projection index {self.j} out of range for arity {self.arity}")

    def evaluate(self, args: Sequence[Rat]) -> Rat:
        if len(args) != self.arity:
            raise ValueError(
                f"expected {self.arity} arguments, got {len(args)}")
        x = args[self.j - 1]
        return x if self.unary is None else self.unary.eval(x)

    def __str__(self) -> str:
        core = f"pi_{self.j}^({self.arity})"
        return core if self.unary is None else f"u o {core}"


def projection(arity: int, j: int) -> FinitaryOp:
    return FinitaryOp(arity, j)


def unary_op(arity: int, j: int, u) -> FinitaryOp:
    return FinitaryOp(arity, j, u)


def _compose_unaries(outer, inner):
    if isinstance(outer, PiecewiseEndo) and isinstance(inner, PiecewiseEndo):
        return compose(outer, inner)
    return ComposedEndo((outer, inner))


def clone_compose(f: FinitaryOp, gs: Sequence[FinitaryOp]) -> FinitaryOp:
    """Compose f with a tuple of inner operations; stays essentially unary."""
    if len(gs) != f.arity:
        raise ValueError(
            f"arity mismatch: outer operation takes {f.arity} arguments, "
            f"got {len(gs)} inner operations")
    k = gs[0].arity
    if any(g.arity != k for g in gs):
        raise ValueError("arity mismatch: inner operations disagree")
    inner = gs[f.j - 1]
    if f.unary is None:
        return inner
    if inner.unary is None:
        return FinitaryOp(k, inner.j, f.unary)
    return FinitaryOp(k, inner.j, _compose_unaries(f.unary, inner.unary))


# ---------------------------------------------------------------------------
# grid proxies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridOp:
    """Total operation on a finite grid of rationals, given by its table."""

    arity: int
    grid: Tuple[Rat, ...]
    table: Dict[Tuple[Rat, ...], Rat]

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(sorted(set(self.grid))))
        if self.arity < 1:
            raise ValueError("arity must be at least 1")
        if not self.grid:
            raise ValueError("grid must be non-empty")
        want = set(itertools.product(self.grid, repeat=self.arity))
        have = set(self.table)
        if have != want:
            missing = next(iter(want - have), None)
            extra = next(iter(have - want), None)
            if missing is not None:
                raise ValueError(f"table misses row {missing}")
            raise ValueError(f"table has a row off the grid: {extra}")

    @staticmethod
    def from_function(arity: int, grid: Iterable[Rat], fn) -> "GridOp":
        grid = tuple(sorted(set(grid)))
        table = {args: fn(*args) for args in itertools.product(grid, repeat=arity)}
        return GridOp(arity, grid, table)

    @staticmethod
    def restriction(op: FinitaryOp, grid: Iterable[Rat]) -> "GridOp":
        return GridOp.from_function(op.arity, grid,
                                    lambda *args: op.evaluate(args))

    def rows(self) -> List[Tuple[Tuple[Rat, ...], Rat]]:
        return sorted(self.table.items())

    def __str__(self) -> str:
        lines = ["grid: " + ", ".join(format_rat(x) for x in self.grid),
                 f"arity: {self.arity}"]
        for args, val in self.rows():
            lines.append(" ".join(format_rat(a) for a in args)
                         + " -> " + format_rat(val))
        return "\n".join(lines)

    @staticmethod
    def parse(text: str) -> "GridOp":
        grid: Optional[Tuple[Rat, ...]] = None
        arity: Optional[int] = None
        table: Dict[Tuple[Rat, ...], Rat] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("grid:"):
                grid = tuple(parse_rat(t.strip())
                             for t in line[len("grid:"):].split(","))
                continue
            if line.startswith("arity:"):
                arity = int(line[len("arity:"):].strip())
                continue
            if "->" not in line:
                raise ValueError(f"line {lineno}: expected 'args -> value'")
            left, right = line.split("->")
            args = tuple(parse_rat(t) for t in left.split())
            table[args] = parse_rat(right.strip())
        if grid is None or arity is None:
            raise ValueError("grid and arity headers are required")
        return GridOp(arity, grid, table)


# ---------------------------------------------------------------------------
# the either-equal relation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RhoReport:
    preserves: bool
    # on failure: four argument rows and their values, displayed as the
    # quadruple ((x, f(x)), (x', f(x')), (z, f(z)), (z', f(z'))) where the
    # first two rows differ at one position, the last two at another
    witness: Optional[Tuple[Tuple[Tuple[Rat, ...], Rat], ...]] = None

    def __str__(self) -> str:
        if self.preserves:
            return "preserves either-equal"
        lines = ["violates either-equal:"]
        for args, val in self.witness:
            lines.append("  f(" + ", ".join(format_rat(a) for a in args)
                         + ") = " + format_rat(val))
        return "\n".join(lines)


def _change_pairs(op: GridOp):
    """All pairs of argument rows with different values, with their
    difference supports as bitmasks."""
    rows = list(itertools.product(op.grid, repeat=op.arity))
    for a, b in itertools.combinations(rows, 2):
        if op.table[a] != op.table[b]:
            mask = 0
            for i in range(op.arity):
                if a[i] != b[i]:
                    mask |= 1 << i
            yield a, b, mask


def _single_step(op: GridOp, a: Tuple[Rat, ...], b: Tuple[Rat, ...]):
    """Walk from row a to row b one coordinate at a time and return a
    value-changing step differing in exactly one position."""
    cur = a
    for i in range(op.arity):
        if cur[i] == b[i]:
            continue
        nxt = cur[:i] + (b[i],) + cur[i + 1:]
        if op.table[cur] != op.table[nxt]:
            return cur, nxt, i
        cur = nxt
    raise AssertionError("endpoints with different values admit a changing step")


def preserves_either_equal(op: GridOp) -> RhoReport:
    """Exhaustively decide preservation of {(x,y,z,u): x = y or z = u}.

    A violating quadruple of rows exists iff two value-changing row pairs
    have disjoint change supports (each column of the quadruple must then
    hold the equality on the side it is free in), so the decision runs
    over row pairs instead of row quadruples — same quantifier, factored.
    """
    seen: List[Tuple[Tuple[Rat, ...], Tuple[Rat, ...], int]] = []
    for a, b, mask in _change_pairs(op):
        for a2, b2, mask2 in seen:
            if mask & mask2 == 0:
                # reduce both pairs to single-coordinate changes for the
                # witness display; supports stay disjoint so the changing
                # positions differ
                x, x2, i = _single_step(op, a2, b2)
                z, z2, j = _single_step(op, a, b)
                if i > j:
                    x, x2, z, z2 = z, z2, x, x2
                return RhoReport(False, (
                    (x, op.table[x]), (x2, op.table[x2]),
                    (z, op.table[z]), (z2, op.table[z2])))
        seen.append((a, b, mask))
    return RhoReport(True)


def essential_positions(op: GridOp) -> Tuple[int, ...]:
    """1-indexed positions where changing only that argument can change
    the value."""
    essential = set()
    for args in itertools.product(op.grid, repeat=op.arity):
        val = op.table[args]
        for i in range(op.arity):
            if i + 1 in essential:
                continue
            for v in op.grid:
                if v != args[i] and op.table[args[:i] + (v,) + args[i + 1:]] != val:
                    essential.add(i + 1)
                    break
    return tuple(sorted(essential))


def unary_reconstruction(op: GridOp) -> Optional[Tuple[int, Dict[Rat, Rat]]]:
    """Present op as a unary table composed with a projection, if possible.

    Succeeds exactly when at most one position is essential; the unary
    table is the diagonal v -> op(v, .., v).
    """
    ess = essential_positions(op)
    if len(ess) > 1:
        return None
    j = ess[0] if ess else 1
    u = {v: op.table[(v,) * op.arity] for v in op.grid}
    for args in itertools.product(op.grid, repeat=op.arity):
        if op.table[args] != u[args[j - 1]]:
            return None
    return j, u


# ---------------------------------------------------------------------------
# the finite-image composition identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositionIdentityReport:
    hypothesis_holds: bool
    composites_agree: Optional[bool]
    checked: int

    @property
    def implication_holds(self) -> bool:
        return (not self.hypothesis_holds) or bool(self.composites_agree)

    def __bool__(self) -> bool:
        return self.implication_holds

    def __str__(self) -> str:
        if not self.hypothesis_holds:
            return "hypothesis false: the operations differ on the image product"
        verdict = "agree" if self.composites_agree else "DISAGREE"
        return (f"operations agree on the image product; composites {verdict} "
                f"on {self.checked} sampled tuples")


def tuple_compose_identity(f: GridOp, f2: GridOp,
                           hs: Sequence[PiecewiseEndo],
                           samples: int = 200) -> CompositionIdentityReport:
    """Check that agreement on the product of the unary images transfers
    to the full composites f(h_1 x_1, ..., h_n x_n)."""
    if f.arity != f2.arity or len(hs) != f.arity:
        raise ValueError("arity mismatch")
    if f.grid != f2.grid:
        raise ValueError("operations live on different grids")
    images: List[Tuple[Rat, ...]] = []
    for idx, h in enumerate(hs, start=1):
        image = classify(h).image
        if not all(iv.is_degenerate() for iv in image):
            raise ValueError(f"map #{idx} does not have finite image")
        pts = tuple(iv.lo for iv in image)
        stray = next((p for p in pts if p not in f.grid), None)
        if stray is not None:
            raise ValueError(
                f"image point {format_rat(stray)} of map #{idx} is off the grid")
        images.append(pts)
    hypothesis = all(f.table[args] == f2.table[args]
                     for args in itertools.product(*images))
    if not hypothesis:
        return CompositionIdentityReport(False, None, 0)
    ctx = UltraMetricContext(k=f.arity)
    agree = True
    for n in range(samples):
        args = ctx.tuple_at(n)
        inner = tuple(h.eval(x) for h, x in zip(hs, args))
        if f.table[inner] != f2.table[inner]:
            agree = False
            break
    return CompositionIdentityReport(True, agree, samples)


# ---------------------------------------------------------------------------
# lifting convergence through projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftReport:
    hypothesis_ok: bool
    hypothesis_note: str
    # rows: (n, unary distance, k-ary distance, guaranteed modulus m(n))
    rows: Tuple[Tuple[int, DistResult, DistResult, Optional[int]], ...]

    @property
    def ok(self) -> bool:
        if not self.hypothesis_ok:
            return False
        for _, _, dk, m in self.rows:
            if m is not None and dk.value > Rat(1, 2 ** m):
                return False
        return True

    def __str__(self) -> str:
        if not self.hypothesis_ok:
            return f"hypothesis fails: {self.hypothesis_note}"
        lines = [f"{'n':>4}  {'unary dist':>12}  {'k-ary dist':>12}  guaranteed"]
        for n, d1, dk, m in self.rows:
            s1 = "0" if d1.value == 0 else f"2^-{d1.index}"
            sk = "0" if dk.value == 0 else f"2^-{dk.index}"
            bound = f"<= 2^-{m}" if m is not None else "-"
            lines.append(f"{n:>4}  {s1:>12}  {sk:>12}  {bound}")
        lines.append("lifted convergence holds" if self.ok
                     else "lifted convergence FAILS")
        return "\n".join(lines)


def lift_convergence(fs: Callable[[int], object], f, j: int, k: int,
                     N: int) -> LiftReport:
    """Transport unary convergence to the k-ary precompositions with pi_j.

    Hypothesis: the unary distance of fs(n) from f is at most 2^(-n) for
    each n <= N.  Conclusion, checked by evaluation: the k-ary distance of
    fs(n) o pi_j from f o pi_j is at most 2^(-m(n)), where m(n) is the
    first tuple index whose j-th component lies outside the first n
    enumerated rationals.
    """
    ctx1 = UltraMetricContext(k=1)
    ctxk = UltraMetricContext(k=k)
    rows = []
    for n in range(N + 1):
        d1 = dist(ctx1, fs(n), f)
        if d1.value > Rat(1, 2 ** n):
            return LiftReport(
                False,
                f"unary distance at n={n} is {d1} but must be at most 2^-{n}",
                tuple(rows))
        gn = FinitaryOp(k, j, fs(n))
        g = FinitaryOp(k, j, f)
        dk = dist(ctxk, gn, g)
        prefix = {nth_rational(i) for i in range(n)}
        m = next((t for t in range(ctxk.depth)
                  if ctxk.tuple_at(t)[j - 1] not in prefix), None)
        rows.append((n, d1, dk, m))
    return LiftReport(True, "", tuple(rows))
