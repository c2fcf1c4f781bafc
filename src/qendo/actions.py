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
from .ratcore import Rat, content_lines

__all__ = [
    "LabelledForest",
    "OrbitPoint",
    "ActionReport",
    "act",
    "verify_action",
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
        for lineno, line in content_lines(text):
            parts = line.split()
            if len(parts) != 3:
                raise ForestError(
                    f"line {lineno}: expected 'id parent label', got {line!r}")
            node, par, lab = parts
            try:
                labnum = int(lab)
            except ValueError:
                raise ForestError(f"line {lineno}: label {lab!r} is not an integer")
            rows.append((node, None if par == "-" else par, labnum))
        return LabelledForest.from_rows(rows)


@dataclass(frozen=True)
class OrbitPoint:
    """A forest node together with a finite set of rationals of its rank.

    B may be any iterable of rationals; it is stored as a sorted tuple of
    `Rat`s.  A value given twice raises ValueError, since the set it
    describes would be smaller than the values given; the message names
    the first value, in the order given, that repeats an earlier one."""

    node: str
    B: Tuple[Rat, ...]

    def __post_init__(self):
        B = tuple(self.B)
        for v in B:
            if type(v) is not Rat:
                B = tuple(map(Rat, B))  # Rat(v) is v for a Rat
                break
        # increasing input passes after len(B) - 1 comparisons
        for i in range(1, len(B)):
            if B[i] <= B[i - 1]:
                given, B = B, tuple(sorted(B))
                if any(a == b for a, b in zip(B, B[1:])):
                    seen = set()
                    for v in given:
                        if v in seen:
                            raise ValueError(f"value {v} is repeated")
                        seen.add(v)
                break
        object.__setattr__(self, "B", B)

    def __str__(self) -> str:
        inner = ", ".join(map(str, self.B))
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

    ``f`` must be weakly monotone, as every map qendo builds or reads is:
    the sorted set goes through it in one pass, equal images are
    neighbours and are kept once, and an image below the one before it
    raises ValueError naming the point where ``f`` decreases.  The target
    node is the deepest ancestor-or-self whose rank is at most the size of
    the image set; its rank many smallest image elements form the new set.
    Total because every root has rank 0.
    """
    _validate_point(forest, p)
    image: List[Rat] = []
    for b in p.B:
        y = f.eval(b)
        if not image or image[-1] < y:
            image.append(y)
        elif y < image[-1]:
            raise ValueError(
                f"the map decreases at {b}: {y} is below the image "
                f"{image[-1]} of a smaller point")
    for node in forest.ancestry(p.node):
        if forest.label[node] <= len(image):
            return OrbitPoint(node, tuple(image[: forest.label[node]]))
    raise AssertionError("unreachable: roots have rank 0")


MAX_FAILURE_MESSAGES = 10


@dataclass(frozen=True)
class ActionReport:
    """``failed`` counts every failed check; ``failures`` keeps the first
    ``MAX_FAILURE_MESSAGES`` messages.  A report of no checks is not ok."""

    checks: int
    failed: int
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.checks > 0 and self.failed == 0

    def __str__(self) -> str:
        head = f"{self.checks} action-law checks: " + (
            "nothing was checked" if not self.checks
            else "all hold" if self.ok else f"{self.failed} failures")
        return "\n".join([head, *self.failures])


def verify_action(forest: LabelledForest, fs: Sequence,
                  points: Sequence[OrbitPoint]) -> ActionReport:
    """Check the identity and composition laws by direct evaluation.

    Each act(g, p) is computed once, where the pass for the first f needs
    it, and reused by later passes, so every map is evaluated at the same
    points in the same order as if each pass recomputed it (a lazily built
    map picks its values by that order).  The composite act(f∘g, p) is the
    law being checked and is evaluated every time."""
    ident = identity_map()
    checks = 0
    failed = 0
    failures: List[str] = []

    def note(msg: str) -> None:
        nonlocal failed
        failed += 1
        if len(failures) < MAX_FAILURE_MESSAGES:
            failures.append(msg)

    for p in points:
        checks += 1
        q = act(forest, ident, p)
        if q != p:
            note(f"identity law: {p} became {q}")
    gp = {}  # (j, k) -> act(forest, fs[j], points[k])
    for i, f in enumerate(fs):
        for j, g in enumerate(fs):
            fg = ComposedEndo((f, g))
            for k, p in enumerate(points):
                checks += 1
                if i == 0:
                    gp[j, k] = act(forest, g, p)
                two_step = act(forest, f, gp[j, k])
                one_step = act(forest, fg, p)
                if two_step != one_step:
                    note(
                        f"composition law at {p} with maps #{i} after #{j}: "
                        f"stepwise {two_step}, composite {one_step}")
    return ActionReport(checks, failed, tuple(failures))


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
