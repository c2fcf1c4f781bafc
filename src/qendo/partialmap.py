"""Finite partial order-isomorphisms of the rational line.

A finite partial map is stored as a tuple of (x, y) pairs sorted by x.  The
only maps of interest here are the strictly increasing injective ones --
finite partial automorphisms of the dense order -- and the module provides
their construction and validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from .ratcore import Rat


class MergeConflictError(ValueError):
    """A point is given two different images."""


@dataclass(frozen=True)
class FinitePartialMap:
    pairs: Tuple[Tuple[Rat, Rat], ...]

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[Rat, Rat]]) -> "FinitePartialMap":
        seen = {}
        for x, y in pairs:
            if x in seen and seen[x] != y:
                raise MergeConflictError(f"conflicting images for {x}: {seen[x]} vs {y}")
            seen[x] = y
        ordered = tuple(sorted(seen.items()))
        return FinitePartialMap(ordered)

    def is_partial_automorphism(self) -> bool:
        """Strictly increasing (hence injective) on its domain."""
        ys = [y for _, y in self.pairs]  # pairs already sorted by x
        return all(a < b for a, b in zip(ys, ys[1:]))

    def __str__(self):
        return ", ".join(f"{x} -> {y}" for x, y in self.pairs)


EMPTY_MAP = FinitePartialMap(())
