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

``topology`` measures the distance between ``FinitaryOp``s through their
unary parts and lifts convergence with the modulus axis_index(k, j, n).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .endo import ComposedEndo, PiecewiseEndo, compose
from .ratcore import Rat

__all__ = [
    "FinitaryOp",
    "clone_compose",
    "GridOp",
    "RhoReport",
    "preserves_either_equal",
    "essential_positions",
    "unary_reconstruction",
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
            lines.append("  f(" + ", ".join(map(str, args))
                         + ") = " + str(val))
        return "\n".join(lines)


def _change_pairs(op: GridOp):
    """All pairs of argument rows with different values, with their
    difference supports as bitmasks, in itertools.combinations order.

    Each row is encoded once as an integer with one bit field per
    coordinate (the grid position of its value), so two rows differ
    exactly at the fields where their codes' XOR is nonzero; each XOR is
    turned into a support mask once."""
    arity = op.arity
    position = {v: i for i, v in enumerate(op.grid)}
    width = len(op.grid).bit_length()
    field = (1 << width) - 1
    rows = list(itertools.product(op.grid, repeat=arity))
    # the same product over each coordinate's shifted bit fields
    fields = [[position[v] << width * i for v in op.grid] for i in range(arity)]
    codes = [sum(t) for t in itertools.product(*fields)]
    values = [op.table[row] for row in rows]
    masks: Dict[int, int] = {}  # code XOR -> support mask
    for j, (a, code_a, value_a) in enumerate(zip(rows, codes, values)):
        for k in range(j + 1, len(rows)):
            if values[k] != value_a:
                diff = code_a ^ codes[k]
                mask = masks.get(diff)
                if mask is None:
                    mask = masks[diff] = sum(1 << i for i in range(arity)
                                             if diff >> width * i & field)
                yield a, rows[k], mask


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
    One pass: each change pair is checked against the first pair of every
    support seen so far, at most 2^arity - 1 of them, oldest first.  The
    first pair of a support comes no later than any other pair with it, so
    the witness is the one a scan over all earlier pairs finds: the first
    pair that has a disjoint earlier pair, with the earliest of those.
    """
    # support mask -> its first change pair; a dict keeps insertion order
    first: Dict[int, Tuple[Tuple[Rat, ...], Tuple[Rat, ...]]] = {}
    for a, b, mask in _change_pairs(op):
        for mask2, (a2, b2) in first.items():
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
        first.setdefault(mask, (a, b))
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

    Succeeds exactly when at most one position j is essential (1 if none);
    the unary table u is the diagonal v -> op(v, .., v).  Only position j
    changes the value, so every row agrees with u and none is re-checked.
    """
    ess = essential_positions(op)
    if len(ess) > 1:
        return None
    j = ess[0] if ess else 1
    return j, {v: op.table[(v,) * op.arity] for v in op.grid}
