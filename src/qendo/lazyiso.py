"""Demand-driven order isomorphisms between countable dense linear orders.

An OrderSpec describes a countable linear order operationally: membership,
strict comparison, and `enum_in_gap(lo, hi)`, the elements strictly between
lo and hi (None = unbounded side) in the order's own deterministic
enumeration.  `enum()` is that whole enumeration, `enum_in_gap(None, None)`,
and `index_of(el)`, where defined, is el's position in it, from 0.  A
LexSum asks index_of of its index order and of each fibre on its own, so
a fibre's index_of counts positions inside that fibre only.

A LazyIso holds a growing finite partial isomorphism between two specs
and extends it on demand: evaluating at a fresh point inserts the
admissible partner of least index in the other spec's own enumeration
(back-and-forth, made deterministic).  Constraint hooks restrict
admissibility — label preservation and setwise stabilization — and may
route the candidate search to a denser sub-stream.

All element values are immutable; a LazyIso mutates only its memo, so one
instance must not be shared between concurrent evaluations.
"""

from __future__ import annotations

import heapq
import itertools
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .ratcore import (
    Colour,
    Rat,
    RatInterval,
    colour,
    enumerated_in_interval,
    intersect_intervals,
    interval_rationals,
    rat_index,
)

FAULT_CAP = 100_000


class Marker(Enum):
    """Adjoined endpoint elements for index orders; always coloured blue."""
    MIN = "min"
    MAX = "max"

    def __str__(self):
        return "-end" if self is Marker.MIN else "+end"


def _cantor(i: int, j: int) -> int:
    return (i + j) * (i + j + 1) // 2 + j


# ---------------------------------------------------------------------------
# order descriptions
# ---------------------------------------------------------------------------

class OrderSpec:
    """Operational description of a countable linear order; the contract
    is in the module docstring."""

    has_min = False
    has_max = False
    min_el = None
    max_el = None

    def contains(self, el) -> bool:
        raise NotImplementedError

    def less(self, a, b) -> bool:
        raise NotImplementedError

    def enum(self) -> Iterator:
        return self.enum_in_gap(None, None)

    def enum_in_gap(self, lo, hi) -> Iterator:
        """Elements strictly between lo and hi (None = unbounded side), in
        the order of enum()."""
        raise NotImplementedError

    def colour_label(self, el) -> Optional[Colour]:
        return None

    def format_el(self, el) -> str:
        return str(el)

    def index_of(self, el) -> int:
        """Position in enum() (used by LexSum)."""
        raise NotImplementedError


class FullQ(OrderSpec):
    def contains(self, el):
        return isinstance(el, Fraction)

    def less(self, a, b):
        return a < b

    def enum_in_gap(self, lo, hi):
        return enumerated_in_interval(lo, hi)

    def index_of(self, el):
        return rat_index(el)

    def __repr__(self):
        return "FullQ"


class ColouredQ(OrderSpec):
    """The rationals with the dense two-colouring, optionally with adjoined
    blue endpoints.  Endpoints enumerate first, so any constrained iso pins
    them immediately."""

    def __init__(self, with_min=False, with_max=False):
        self.with_min = with_min
        self.with_max = with_max
        self.has_min = with_min
        self.has_max = with_max
        self.min_el = Marker.MIN if with_min else None
        self.max_el = Marker.MAX if with_max else None

    def contains(self, el):
        if el is Marker.MIN:
            return self.with_min
        if el is Marker.MAX:
            return self.with_max
        return isinstance(el, Fraction)

    def less(self, a, b):
        if a is Marker.MIN:
            return b is not Marker.MIN
        if a is Marker.MAX:
            return False
        if b is Marker.MIN:
            return False
        if b is Marker.MAX:
            return True
        return a < b

    def _markers(self):
        out = []
        if self.with_min:
            out.append(Marker.MIN)
        if self.with_max:
            out.append(Marker.MAX)
        return out

    def enum_in_gap(self, lo, hi):
        for m in self._markers():
            if (lo is None or self.less(lo, m)) and (hi is None or self.less(m, hi)):
                yield m
        rlo = None if (lo is None or lo is Marker.MIN) else lo
        rhi = None if (hi is None or hi is Marker.MAX) else hi
        if lo is Marker.MAX or hi is Marker.MIN:
            return
        yield from enumerated_in_interval(rlo, rhi)

    def colour_label(self, el):
        if isinstance(el, Marker):
            return Colour.BLUE
        return colour(el)

    def index_of(self, el):
        markers = self._markers()
        if isinstance(el, Marker):
            return markers.index(el)
        return len(markers) + rat_index(el)

    def __repr__(self):
        tags = [t for t, on in (("min", self.with_min), ("max", self.with_max)) if on]
        return "ColouredQ(%s)" % ",".join(tags) if tags else "ColouredQ"


class QMinusFinite(OrderSpec):
    def __init__(self, excluded):
        self.excluded = frozenset(excluded)

    def contains(self, el):
        return isinstance(el, Fraction) and el not in self.excluded

    def less(self, a, b):
        return a < b

    def enum_in_gap(self, lo, hi):
        return (x for x in enumerated_in_interval(lo, hi)
                if x not in self.excluded)

    def __repr__(self):
        return f"QMinusFinite({sorted(self.excluded)})"


class IntervalQ(OrderSpec):
    """The rationals of one RatInterval, in global enumeration order.
    index_of scans that enumeration once, resuming where it last stopped.
    The scan starts on first use: most fibres are only asked `contains`."""

    def __init__(self, interval: RatInterval):
        self.interval = interval
        self._scan = None
        self._index = {}

    def contains(self, el):
        return isinstance(el, Fraction) and self.interval.contains(el)

    def less(self, a, b):
        return a < b

    def enum_in_gap(self, lo, hi):
        window = intersect_intervals(self.interval, RatInterval(lo, hi))
        return iter(()) if window is None else interval_rationals(window)

    def index_of(self, el):
        if self._scan is None:
            self._scan = enumerate(interval_rationals(self.interval))
        index = self._index
        while el not in index:
            j, y = next(self._scan)
            index[y] = j
        return index[el]


class PointOrder(OrderSpec):
    """The one-element order {'pt'}."""

    def contains(self, el):
        return el == "pt"

    def less(self, a, b):
        return False

    def enum_in_gap(self, lo, hi):
        return iter(("pt",) if lo is None and hi is None else ())

    def index_of(self, el):
        return 0


class LexSum(OrderSpec):
    """Lexicographic sum of the orders fibre(a) over an index order.

    Elements are pairs (a, b) with b in fibre(a), compared by a first and
    then inside fibre(a).  The enumeration runs along the Cantor diagonal:
    index_of((a, b)) = cantor(index.index_of(a), fibre(a).index_of(b)).
    A lexicographic product is the sum with the same fibre everywhere.
    The sum is taken to be endpoint-free: where the index order has a
    least (greatest) element, the fibre over it must have none.
    """

    def __init__(self, index: OrderSpec, fibre: Callable[[object], OrderSpec]):
        self.index = index
        self.fibre = fibre

    def contains(self, el):
        return (isinstance(el, tuple) and len(el) == 2
                and self.index.contains(el[0])
                and self.fibre(el[0]).contains(el[1]))

    def less(self, a, b):
        if a[0] != b[0]:
            return self.index.less(a[0], b[0])
        return self.fibre(a[0]).less(a[1], b[1])

    def index_of(self, el):
        return _cantor(self.index.index_of(el[0]),
                       self.fibre(el[0]).index_of(el[1]))

    def _lane(self, a, lo, hi):
        # (index, element) for the fibre over a, strictly inside (lo, hi)
        ia = self.index.index_of(a)
        fibre = self.fibre(a)
        for b in fibre.enum_in_gap(lo, hi):
            yield _cantor(ia, fibre.index_of(b)), (a, b)

    def _merge_lanes(self, index_elements):
        # whole fibres over index_elements, merged by index.  A whole fibre
        # starts at fibre index 0, so lane heads ascend: the next lane is
        # due only once the newest lane's head has been yielded.
        heap = []

        def spawn():
            for a in index_elements:
                lane = self._lane(a, None, None)
                head = next(lane, None)
                if head is not None:
                    heapq.heappush(heap, (head[0], head[1], True, lane))
                    return

        spawn()
        while heap:
            key, el, is_head, lane = heapq.heappop(heap)
            yield key, el
            if is_head:
                spawn()
            nxt = next(lane, None)
            if nxt is not None:
                heapq.heappush(heap, (nxt[0], nxt[1], False, lane))

    def enum_in_gap(self, lo, hi):
        a1 = None if lo is None else lo[0]
        a2 = None if hi is None else hi[0]
        if lo is not None and hi is not None and a1 == a2:
            lanes = [self._lane(a1, lo[1], hi[1])]  # both ends in one fibre
        else:
            lanes = [self._merge_lanes(self.index.enum_in_gap(a1, a2))]
            if lo is not None:
                lanes.append(self._lane(a1, lo[1], None))
            if hi is not None:
                lanes.append(self._lane(a2, None, hi[1]))
        # indices are distinct, so the merge never compares elements
        return (el for _, el in heapq.merge(*lanes))

    def format_el(self, el):
        a, b = el
        return f"({self.index.format_el(a)},{self.fibre(a).format_el(b)})"

    def __repr__(self):
        return f"{type(self).__name__}({self.index!r})"


class FactorOrder(LexSum):
    """The order that factors a weakly monotone map h: the sum over FullQ
    whose fibre over q is the (convex) solution interval of h(y) = q, with
    elements (q, y), or the one element (q, 'pt') when q is never attained.
    Fibres are built once per q."""

    def __init__(self, point_preimage: Callable[[Rat], Optional[RatInterval]]):
        self.point_preimage = point_preimage
        self._fibres = {}
        super().__init__(FullQ(), self._fibre)

    def _fibre(self, q):
        fibre = self._fibres.get(q)
        if fibre is None:
            iv = self.point_preimage(q)
            fibre = self._fibres[q] = PointOrder() if iv is None else IntervalQ(iv)
        return fibre

    def format_el(self, el):
        q, y = el
        return f"pt:{q}" if y == "pt" else f"im:{q}@{y}"


class RedPoints(OrderSpec):
    """Suborder of the red elements of a coloured spec (dense, endpoint-free:
    adjoined endpoints are blue by construction)."""

    def __init__(self, base: OrderSpec):
        self.base = base

    def contains(self, el):
        return self.base.contains(el) and self.base.colour_label(el) == Colour.RED

    def less(self, a, b):
        return self.base.less(a, b)

    def enum_in_gap(self, lo, hi):
        return (el for el in self.base.enum_in_gap(lo, hi)
                if self.base.colour_label(el) == Colour.RED)

    def colour_label(self, el):
        return Colour.RED

    def format_el(self, el):
        return self.base.format_el(el)

    def __repr__(self):
        return f"RedPoints({self.base!r})"


class SuborderOfCert(OrderSpec):
    """A suborder carved out of a certified generic embedding's structure;
    the certificate supplies the oracles, this class only adapts them."""

    def __init__(self, name, contains, less, enum_in_gap, colour_label=None,
                 format_el=None, has_min=False, has_max=False,
                 min_el=None, max_el=None):
        self.name = name
        self._contains = contains
        self._less = less
        self._enum_in_gap = enum_in_gap
        self._colour_label = colour_label
        self._format_el = format_el
        self.has_min = has_min
        self.has_max = has_max
        self.min_el = min_el
        self.max_el = max_el

    def contains(self, el):
        return self._contains(el)

    def less(self, a, b):
        return self._less(a, b)

    def enum_in_gap(self, lo, hi):
        return self._enum_in_gap(lo, hi)

    def colour_label(self, el):
        return self._colour_label(el) if self._colour_label else None

    def format_el(self, el):
        return self._format_el(el) if self._format_el else str(el)

    def __repr__(self):
        return f"SuborderOfCert({self.name})"


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

class ConstraintViolation(ValueError):
    """A seed pair breaks a named constraint."""


class Constraint:
    name = "constraint"

    def admissible(self, x, y) -> bool:
        raise NotImplementedError

    def candidate_stream(self, x, lo, hi, side):
        """Optional routing: a denser stream of candidates for the partner
        of x within the (lo, hi) gap on the given side ('target' for
        forward evaluation, 'source' for backward).  None defers to the
        spec's own gap enumeration."""
        return None


class LabelConstraint(Constraint):
    """Preserve a unary label, e.g. colour or a class index."""

    def __init__(self, name, source_label, target_label):
        self.name = name
        self.source_label = source_label
        self.target_label = target_label

    def admissible(self, x, y):
        return self.source_label(x) == self.target_label(y)


class SetStabilization(Constraint):
    """Keep a decidable set invariant: members pair with members,
    non-members with non-members.  Member candidates are routed through
    the set's own in-gap enumeration, which realizes 'map to the
    least-index point of the set in the correct gap'."""

    def __init__(self, name, source_member, target_member,
                 source_in_gap=None, target_in_gap=None):
        self.name = name
        self.source_member = source_member
        self.target_member = target_member
        self.source_in_gap = source_in_gap
        self.target_in_gap = target_in_gap

    def admissible(self, x, y):
        return self.source_member(x) == self.target_member(y)

    def candidate_stream(self, x, lo, hi, side):
        if side == "target":
            if self.source_member(x) and self.target_in_gap is not None:
                return self.target_in_gap(lo, hi)
        else:
            if self.target_member(x) and self.source_in_gap is not None:
                return self.source_in_gap(lo, hi)
        return None


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class LazyIso:
    """Growing partial isomorphism between two OrderSpecs.

    The memo is a list of pairs sorted by the source order (hence also by
    the target order), plus both lookup directions.  Every evaluation
    either hits the memo or inserts one new pair chosen deterministically.
    """

    def __init__(self, source: OrderSpec, target: OrderSpec, seed=(),
                 constraints=()):
        self.source = source
        self.target = target
        self.constraints = tuple(constraints)
        self._pairs = []  # sorted by source order
        self._fwd = {}
        self._bwd = {}
        if source.has_min != target.has_min or source.has_max != target.has_max:
            raise ValueError("endpoint-incompatible order specs")
        endpoint_pairs = []
        if source.has_min:
            endpoint_pairs.append((source.min_el, target.min_el))
        if source.has_max:
            endpoint_pairs.append((source.max_el, target.max_el))
        for x, y in itertools.chain(endpoint_pairs, seed):
            self._insert_seed(x, y)

    def _insert_seed(self, x, y):
        if x in self._fwd:
            if self._fwd[x] != y:
                raise ConstraintViolation(f"seed conflict at {self.source.format_el(x)}")
            return
        if not self.source.contains(x) or not self.target.contains(y):
            raise ConstraintViolation(
                f"seed pair outside orders: {self.source.format_el(x)} -> "
                f"{self.target.format_el(y)}")
        for c in self.constraints:
            if not c.admissible(x, y):
                raise ConstraintViolation(
                    f"seed pair {self.source.format_el(x)} -> "
                    f"{self.target.format_el(y)} violates {c.name}")
        i = self._locate(x, key_idx=0, less=self.source.less)
        # order-compatibility with both neighbours
        if i > 0 and not self.target.less(self._pairs[i - 1][1], y):
            raise ConstraintViolation(
                f"seed not order-preserving at {self.source.format_el(x)}")
        if i < len(self._pairs) and not self.target.less(y, self._pairs[i][1]):
            raise ConstraintViolation(
                f"seed not order-preserving at {self.source.format_el(x)}")
        self._pairs.insert(i, (x, y))
        self._fwd[x] = y
        self._bwd[y] = x

    def _locate(self, el, key_idx, less):
        lo, hi = 0, len(self._pairs)
        while lo < hi:
            mid = (lo + hi) // 2
            if less(self._pairs[mid][key_idx], el):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _extend(self, el, side):
        # side 'target': el is a source point needing an image; 'source':
        # el is a target point needing a preimage
        if side == "target":
            key_idx, val_idx = 0, 1
            less, other = self.source.less, self.target
        else:
            key_idx, val_idx = 1, 0
            less, other = self.target.less, self.source
        i = self._locate(el, key_idx, less)
        lo = self._pairs[i - 1][val_idx] if i > 0 else None
        hi = self._pairs[i][val_idx] if i < len(self._pairs) else None

        stream = None
        for c in self.constraints:
            stream = c.candidate_stream(el, lo, hi, side)
            if stream is not None:
                break
        if stream is None:
            stream = other.enum_in_gap(lo, hi)

        ok = ((lambda x, y: all(c.admissible(x, y) for c in self.constraints))
              if side == "target"
              else (lambda y, x: all(c.admissible(x, y) for c in self.constraints)))
        for steps, cand in enumerate(stream):
            if steps > FAULT_CAP:
                break
            if not other.contains(cand):
                continue
            if ok(el, cand):
                if side == "target":
                    pair = (el, cand)
                else:
                    pair = (cand, el)
                self._pairs.insert(i, pair)
                self._fwd[pair[0]] = pair[1]
                self._bwd[pair[1]] = pair[0]
                return cand
        raise RuntimeError(
            "back-and-forth search exhausted; specs are not dense-compatible "
            "under the given constraints")

    def eval_fwd(self, x):
        if x in self._fwd:
            return self._fwd[x]
        if not self.source.contains(x):
            raise ValueError(f"not in source order: {x!r}")
        return self._extend(x, "target")

    def eval_bwd(self, y):
        if y in self._bwd:
            return self._bwd[y]
        if not self.target.contains(y):
            raise ValueError(f"not in target order: {y!r}")
        return self._extend(y, "source")

    def memo_pairs(self):
        return tuple(self._pairs)

    def memo_dump(self) -> str:
        return ", ".join(
            f"{self.source.format_el(x)} -> {self.target.format_el(y)}"
            for x, y in self._pairs)


def build(source, target, seed=(), constraints=()) -> LazyIso:
    """Seeded constrained iso; seeds violating a constraint are rejected
    with the constraint named."""
    return LazyIso(source, target, seed=seed, constraints=constraints)
