"""Monoid actions on forest-indexed orbits of finite rational sets.

A labelled forest assigns to each node a natural-number rank, strictly
increasing away from the roots, with every root ranked 0.  The points of
the induced orbit space pair a node with a finite set of rationals whose
size equals the node's rank.  A monotone self-map of the rationals acts by
pushing the finite set forward and, when the image is smaller, cascading
down the branch to the deepest ancestor whose rank still fits.

``verify_action`` checks the identity and composition laws by direct
evaluation and reports counterexamples instead of assuming them away:
forests in which a rank jumps by two or more above a node of rank at
least two admit genuine composition failures (see
``tests/test_actions.py`` for an explicit one), while ``is_cascade_safe``
recognises the forests where the laws are guaranteed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .endo import ComposedEndo, PiecewiseEndo, constant_map, idempotent_with_image, identity_map
from .ratcore import Rat, format_rat

__all__ = [
    "LabelledForest",
    "OrbitPoint",
    "ActionReport",
    "act",
    "verify_action",
    "containment_check",
    "fixpoint_check",
]


class ForestError(ValueError):
    """Raised when node data violates the labelled-forest invariants."""


@dataclass(frozen=True)
class LabelledForest:
    """Finite labelled forest: ``parent[node]`` is None for roots."""

    parent: Dict[str, Optional[str]]
    label: Dict[str, int]

    @staticmethod
    def from_rows(rows: Iterable[Tuple[str, Optional[str], int]]) -> "LabelledForest":
        parent: Dict[str, Optional[str]] = {}
        label: Dict[str, int] = {}
        for node, par, lab in rows:
            node = str(node)
            if node in parent:
                raise ForestError(f"node {node!r} declared twice")
            if not isinstance(lab, int) or lab < 0:
                raise ForestError(f"label of {node!r} must be a natural number")
            parent[node] = None if par is None else str(par)
            label[node] = lab
        for node, par in parent.items():
            if par is not None and par not in parent:
                raise ForestError(f"parent {par!r} of {node!r} is not a node")
        forest = LabelledForest(parent, label)
        for node in parent:
            chain = forest.ancestry(node)  # also detects cycles
            root = chain[-1]
            if label[root] != 0:
                raise ForestError(f"root {root!r} must carry label 0")
            for below, above in zip(chain[1:], chain):
                if label[below] >= label[above]:
                    raise ForestError(
                        f"label of {above!r} must exceed the label of its "
                        f"parent {below!r}")
        return forest

    def ancestry(self, node: str) -> List[str]:
        """Node first, then its parent, up to the root."""
        if node not in self.parent:
            raise ForestError(f"unknown node {node!r}")
        chain = [node]
        seen = {node}
        cur = self.parent[node]
        while cur is not None:
            if cur in seen:
                raise ForestError(f"cycle through node {cur!r}")
            chain.append(cur)
            seen.add(cur)
            cur = self.parent[cur]
        return chain

    def nodes(self) -> Tuple[str, ...]:
        return tuple(self.parent)

    def roots(self) -> Tuple[str, ...]:
        return tuple(n for n, p in self.parent.items() if p is None)

    def is_cascade_safe(self) -> bool:
        """True when no branch jumps a rank above a node of rank >= 2.

        On such forests the composition law holds for all weakly monotone
        maps; elsewhere it can fail.
        """
        for node, par in self.parent.items():
            if par is None:
                continue
            if self.label[par] >= 2 and self.label[node] > self.label[par] + 1:
                return False
        return True

    def __str__(self) -> str:
        lines = []
        for node, par in self.parent.items():
            lines.append(f"{node} {'-' if par is None else par} {self.label[node]}")
        return "\n".join(lines)

    @staticmethod
    def parse(text: str) -> "LabelledForest":
        rows: List[Tuple[str, Optional[str], int]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ForestError(
                    f"line {lineno}: expected 'id parent label', got {raw!r}")
            node, par, lab = parts
            try:
                labnum = int(lab)
            except ValueError:
                raise ForestError(f"line {lineno}: label {lab!r} is not an integer")
            rows.append((node, None if par == "-" else par, labnum))
        return LabelledForest.from_rows(rows)


@dataclass(frozen=True)
class OrbitPoint:
    """A forest node together with a finite set of rationals of its rank."""

    node: str
    B: Tuple[Rat, ...]

    def __post_init__(self):
        object.__setattr__(self, "B", tuple(sorted(set(self.B))))

    def __str__(self) -> str:
        inner = ", ".join(format_rat(b) for b in self.B)
        return f"({self.node}; {{{inner}}})"


def _validate_point(forest: LabelledForest, p: OrbitPoint) -> None:
    if p.node not in forest.parent:
        raise ForestError(f"unknown node {p.node!r}")
    want = forest.label[p.node]
    if len(p.B) != want:
        raise ForestError(
            f"point at {p.node!r} needs {want} elements, got {len(p.B)}")


def act(forest: LabelledForest, f, p: OrbitPoint) -> OrbitPoint:
    """Push the point's set through ``f`` and cascade down the branch.

    The target node is the deepest ancestor-or-self whose rank is at most
    the size of the image set; its rank many smallest image elements form
    the new set.  Total because every root has rank 0.
    """
    _validate_point(forest, p)
    image = sorted({f.eval(b) for b in p.B})
    for node in forest.ancestry(p.node):
        if forest.label[node] <= len(image):
            return OrbitPoint(node, tuple(image[: forest.label[node]]))
    raise AssertionError("unreachable: roots have rank 0")


@dataclass(frozen=True)
class ActionReport:
    checks: int
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        head = f"{self.checks} action-law checks: " + (
            "all hold" if self.ok else f"{len(self.failures)} failures")
        return "\n".join([head, *self.failures])


def verify_action(forest: LabelledForest, fs: Sequence, points: Sequence[OrbitPoint],
                  max_failures: int = 10) -> ActionReport:
    """Check the identity and composition laws by direct evaluation."""
    ident = identity_map()
    checks = 0
    failures: List[str] = []

    def note(msg: str) -> None:
        if len(failures) < max_failures:
            failures.append(msg)

    for p in points:
        checks += 1
        q = act(forest, ident, p)
        if q != p:
            note(f"identity law: {p} became {q}")
    for i, f in enumerate(fs):
        for j, g in enumerate(fs):
            fg = ComposedEndo((f, g))
            for p in points:
                checks += 1
                two_step = act(forest, f, act(forest, g, p))
                one_step = act(forest, fg, p)
                if two_step != one_step:
                    note(
                        f"composition law at {p} with maps #{i} after #{j}: "
                        f"stepwise {two_step}, composite {one_step}")
    return ActionReport(checks, tuple(failures))


def containment_check(forest: LabelledForest, f, p: OrbitPoint) -> bool:
    """The acted point's set is always contained in the image of the old set."""
    q = act(forest, f, p)
    image = {f.eval(b) for b in p.B}
    return set(q.B) <= image


def fixpoint_check(forest: LabelledForest, p: OrbitPoint) -> PiecewiseEndo:
    """A finite-image idempotent that fixes the point, verified by acting.

    Rank-0 points are fixed by any constant; the constant-0 map is
    returned for them.
    """
    _validate_point(forest, p)
    h = idempotent_with_image(p.B) if p.B else constant_map(Rat(0))
    fixed = act(forest, h, p)
    if fixed != p:
        raise AssertionError(f"stabilizer failed: {p} became {fixed}")
    return h
