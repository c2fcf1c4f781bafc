"""Finite partial order-isomorphisms of the rational line.

A finite partial map is stored as a tuple of (x, y) pairs sorted by x.  The
only maps of interest here are the strictly increasing injective ones --
finite partial automorphisms of the dense order -- and the module provides
validation and inversion for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

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

    def domain(self):
        return tuple(x for x, _ in self.pairs)

    def image(self):
        return tuple(sorted(y for _, y in self.pairs))

    def __len__(self):
        return len(self.pairs)

    def apply(self, x: Rat) -> Optional[Rat]:
        for a, b in self.pairs:
            if a == x:
                return b
        return None

    def inverse(self) -> "FinitePartialMap":
        if not self.is_partial_automorphism():
            raise ValueError("only partial automorphisms invert cleanly")
        return FinitePartialMap.from_pairs((y, x) for x, y in self.pairs)

    def __str__(self):
        return ", ".join(f"{x} -> {y}" for x, y in self.pairs)


EMPTY_MAP = FinitePartialMap(())
