"""Demand-driven order isomorphisms between countable dense linear orders.

An OrderSpec describes a countable linear order operationally: membership,
strict comparison, and `enum_in_gap(lo, hi)`, the elements strictly between
lo and hi (None = unbounded side) in the order's own deterministic
enumeration.  A gap with both ends given and lo not below hi is an error:
enum_in_gap raises ValueError, at the call or at the first next().  A gap
with an unbounded side is never an error, only possibly empty, as (max,
None) is.  `enum()` is the whole enumeration, `enum_in_gap(None, None)`,
and `index_of(el)`, where defined, is el's position in it, from 0.  A
LexSum asks index_of of its index order and of each fibre on its own, so
a fibre's index_of counts positions inside that fibre only.  `min_el` and
`max_el` are the order's least and greatest elements, None where there
is none.

A LazyIso holds a growing finite partial isomorphism between two specs
and extends it on demand: evaluating at a fresh point inserts the
admissible partner of least index in the other spec's own enumeration
(back-and-forth, made deterministic).  Each Constraint admits a pair
(x, y) when x's source key equals y's target key (a colour, membership
of a set, the class a block map prescribes), and may route the candidate
search to a denser sub-stream.

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
    SearchExhausted,
    colour,
    enumerated_in_interval,
    intersect_intervals,
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
        self.min_el = Marker.MIN if with_min else None
        self.max_el = Marker.MAX if with_max else None
        self._markers = tuple(m for m in (self.min_el, self.max_el) if m is not None)

    def contains(self, el):
        if el is Marker.MIN or el is Marker.MAX:
            return el is self.min_el or el is self.max_el
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

    def enum_in_gap(self, lo, hi):
        if lo is Marker.MAX or hi is Marker.MIN:
            # nothing lies above +end or below -end
            if lo is not None and hi is not None:
                raise ValueError(f"empty gap ({lo}, {hi})")
            return
        for m in self._markers:
            if (lo is None or self.less(lo, m)) and (hi is None or self.less(m, hi)):
                yield m
        rlo = None if (lo is None or lo is Marker.MIN) else lo
        rhi = None if (hi is None or hi is Marker.MAX) else hi
        yield from enumerated_in_interval(rlo, rhi)

    def colour_label(self, el):
        if isinstance(el, Marker):
            return Colour.BLUE
        return colour(el)

    def index_of(self, el):
        if isinstance(el, Marker):
            return self._markers.index(el)
        return len(self._markers) + rat_index(el)

    def __repr__(self):
        tags = ",".join(m.value for m in self._markers)
        return f"ColouredQ({tags})" if tags else "ColouredQ"


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
        w = intersect_intervals(self.interval, RatInterval(lo, hi))
        if w is None:
            return iter(())
        return enumerated_in_interval(w.lo, w.hi, w.lo_closed, w.hi_closed)

    def index_of(self, el):
        if self._scan is None:
            iv = self.interval
            self._scan = enumerate(enumerated_in_interval(
                iv.lo, iv.hi, iv.lo_closed, iv.hi_closed))
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
        if lo is not None and hi is not None:
            raise ValueError("empty gap (pt, pt)")
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

    def _merge_lanes(self, index_elements, lanes):
        # the given lanes and the whole fibres over index_elements, merged
        # by index.  A whole fibre starts at fibre index 0, so whole-fibre
        # lane heads ascend: the next one is due only once the newest one's
        # head has been yielded.  Indices are distinct, so the heap never
        # compares elements.
        heap = []

        def push(lane, is_head):
            head = next(lane, None)
            if head is not None:
                heapq.heappush(heap, (head[0], head[1], is_head, lane))
            return head is not None

        def spawn():
            for a in index_elements:
                if push(self._lane(a, None, None), True):
                    return

        for lane in lanes:
            push(lane, False)
        spawn()
        while heap:
            _, el, is_head, lane = heapq.heappop(heap)
            yield el
            if is_head:
                spawn()
            push(lane, False)

    def enum_in_gap(self, lo, hi):
        a1 = None if lo is None else lo[0]
        a2 = None if hi is None else hi[0]
        if lo is not None and hi is not None and a1 == a2:
            # both ends in one fibre
            return (el for _, el in self._lane(a1, lo[1], hi[1]))
        lanes = []
        if lo is not None:
            lanes.append(self._lane(a1, lo[1], None))
        if hi is not None:
            lanes.append(self._lane(a2, None, hi[1]))
        return self._merge_lanes(self.index.enum_in_gap(a1, a2), lanes)

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

    def format_el(self, el):
        return self.base.format_el(el)

    def __repr__(self):
        return f"RedPoints({self.base!r})"


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

class ConstraintViolation(ValueError):
    """A seed pair breaks a named constraint."""


class Constraint:
    """Admit the pair (x, y) when source_key(x) == target_key(y); the
    source key is computed first.

    A stream, where given, routes the candidate search: stream(x, lo, hi)
    returns a denser stream of candidates for the partner of x within the
    (lo, hi) gap, or None to defer to the spec's own gap enumeration.
    target_stream serves forward evaluation (x a source point) and
    source_stream backward evaluation (x a target point)."""

    def __init__(self, name, source_key, target_key,
                 source_stream=None, target_stream=None):
        self.name = name
        self.source_key = source_key
        self.target_key = target_key
        self.source_stream = source_stream
        self.target_stream = target_stream

    def admissible(self, x, y) -> bool:
        return self.source_key(x) == self.target_key(y)

    def candidate_stream(self, x, lo, hi, side):
        """The stream for the given side ('target' for forward evaluation,
        'source' for backward), or None when there is none."""
        stream = self.target_stream if side == "target" else self.source_stream
        return None if stream is None else stream(x, lo, hi)


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
        ends = [(x, y) for x, y in ((source.min_el, target.min_el),
                                    (source.max_el, target.max_el))
                if x is not None or y is not None]
        if any(x is None or y is None for x, y in ends):
            raise ValueError("endpoint-incompatible order specs")
        for x, y in itertools.chain(ends, seed):
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
        self._insert(i, x, y)

    def _insert(self, i, x, y):
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
        forward = side == "target"
        if forward:
            key_idx, val_idx, own, other = 0, 1, self.source, self.target
        else:
            key_idx, val_idx, own, other = 1, 0, self.target, self.source
        i = self._locate(el, key_idx, own.less)
        lo = self._pairs[i - 1][val_idx] if i > 0 else None
        hi = self._pairs[i][val_idx] if i < len(self._pairs) else None

        stream = None
        for c in self.constraints:
            stream = c.candidate_stream(el, lo, hi, side)
            if stream is not None:
                break
        if stream is None:
            stream = other.enum_in_gap(lo, hi)

        for steps, cand in enumerate(stream):
            if steps > FAULT_CAP:
                break
            if not other.contains(cand):
                continue
            x, y = (el, cand) if forward else (cand, el)
            if all(c.admissible(x, y) for c in self.constraints):
                self._insert(i, x, y)
                return cand
        raise SearchExhausted(
            f"back-and-forth search for a partner of {own.format_el(el)}",
            f"FAULT_CAP={FAULT_CAP}", lo, hi, other.format_el)

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
