"""Demand-driven order isomorphisms between countable dense linear orders.

An OrderSpec describes a countable linear order operationally: membership,
`contains(el)`, and `enum_in_gap(lo, hi)`, the elements strictly between
lo and hi (None = unbounded side) in the order they take in the order's
own deterministic enumeration, `enum_in_gap(None, None)`.  A gap with
both ends given and lo not below hi is an error: enum_in_gap raises
ValueError, at the call or at the first next().  A gap with an unbounded
side is never an error, only possibly empty, as (max, None) is.

An order that serves as a LexSum's index (FullQ, ColouredQ) also has
`index_of(el)`, el's position in the whole enumeration, from 0; a fibre
needs none, as a sum orders each fibre's lane by position in the lane.
`min_el` and `max_el` are the order's least and greatest elements, None
where there is none.  Elements of one spec compare with Python's `<` in
the spec's order: rationals are Fractions, the adjoined endpoints are
Markers that sort below (MIN) or above (MAX) everything else, and a
LexSum's pairs compare as tuples.

FullQ is the rationals in ratcore's enumeration.  ColouredQ adds the
dense two-colouring and optional blue endpoints; its red elements are
RedQ, the rationals whose numerator and denominator sum to an odd number,
enumerated as FullQ's stream with the blue ones left out.

A LazyIso holds a growing finite partial isomorphism between two specs
and extends it on demand: evaluating at a fresh point inserts the first
admissible partner in the other spec's stream of the gap
(back-and-forth, made deterministic).  An iso may carry one Constraint,
which admits a pair (x, y) when x's source key equals y's target key,
such as a colour.  The search scans the other spec's gap enumeration,
which yields members only, and tests each candidate against the
constraint, if any; after ratcore.SEARCH_CAP + 1 candidates it raises
SearchExhausted.

All element values are immutable; a LazyIso mutates only its memo, so one
instance must not be shared between concurrent evaluations.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Optional

from . import ratcore
from .ratcore import (
    Colour,
    Rat,
    RatInterval,
    colour,
    enumerated_in_interval,
    intersect_intervals,
    rat_index,
)

# memo pair -> its source / target element, the bisect keys of the memo
_SOURCE = itemgetter(0)
_TARGET = itemgetter(1)


@functools.total_ordering
class Marker(Enum):
    """Adjoined endpoint elements for index orders; always coloured blue.
    MIN sorts below and MAX above every other element: a Fraction's
    comparison with a Marker falls through to the Marker's reflected one."""
    MIN = "min"
    MAX = "max"

    def __str__(self):
        return "-end" if self is Marker.MIN else "+end"

    def __lt__(self, other):
        return self is Marker.MIN and other is not Marker.MIN


def _cantor(i: int, j: int) -> int:
    return (i + j) * (i + j + 1) // 2 + j


# ---------------------------------------------------------------------------
# order descriptions
# ---------------------------------------------------------------------------

class OrderSpec:
    """Operational description of a countable linear order; the contract
    is in the module docstring.  Elements carry their own order: `a < b`
    on two elements of one spec is the spec's strict order."""

    min_el = None
    max_el = None

    def format_el(self, el) -> str:
        return str(el)


class FullQ(OrderSpec):
    def contains(self, el):
        # `type(el) is Rat` first: isinstance against Fraction goes
        # through ABCMeta
        return type(el) is Rat or isinstance(el, Fraction)

    def enum_in_gap(self, lo, hi):
        return enumerated_in_interval(lo, hi)

    def index_of(self, el):
        return rat_index(el)


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
        return type(el) is Rat or isinstance(el, Fraction)

    def enum_in_gap(self, lo, hi):
        # the markers inside the gap, then the rationals: ratcore's stream
        # itself when no marker is inside
        if not self._markers:  # then no gap end is a marker either
            return enumerated_in_interval(lo, hi)
        if lo is Marker.MAX or hi is Marker.MIN:
            # nothing lies above +end or below -end
            if lo is not None and hi is not None:
                raise ValueError(f"empty gap ({lo}, {hi})")
            return iter(())
        rationals = enumerated_in_interval(
            None if lo is Marker.MIN else lo, None if hi is Marker.MAX else hi)
        markers = [m for m in self._markers
                   if (lo is None or lo < m) and (hi is None or m < hi)]
        return itertools.chain(markers, rationals) if markers else rationals

    def colour_label(self, el):
        if type(el) is Rat:  # ratcore.colour's parity rule, as in RedQ
            return Colour.RED if (el._numerator + el._denominator) % 2 else Colour.BLUE
        if el is Marker.MIN or el is Marker.MAX:
            return Colour.BLUE
        return colour(el)

    def index_of(self, el):
        if el is Marker.MIN or el is Marker.MAX:
            return self._markers.index(el)
        return len(self._markers) + rat_index(el)


class RedQ(OrderSpec):
    """The red rationals: the red elements of every ColouredQ, whose
    adjoined endpoints are blue.  Dense and endpoint-free.  The parity
    tests are ratcore.colour's rule, inlined for Rat."""

    def contains(self, el):
        if type(el) is Rat:
            return (el._numerator + el._denominator) % 2 == 1
        return isinstance(el, Fraction) and colour(el) is Colour.RED

    def enum_in_gap(self, lo, hi):
        return (x for x in enumerated_in_interval(lo, hi)
                if (x._numerator + x._denominator) % 2)


class IntervalQ(OrderSpec):
    """The rationals of one RatInterval, in global enumeration order."""

    def __init__(self, interval: RatInterval):
        self.interval = interval

    def contains(self, el):
        return ((type(el) is Rat or isinstance(el, Fraction))
                and self.interval.contains(el))

    def enum_in_gap(self, lo, hi):
        w = intersect_intervals(self.interval, RatInterval(lo, hi))
        if w is None:
            return iter(())
        return enumerated_in_interval(w.lo, w.hi, w.lo_closed, w.hi_closed)


class PointOrder(OrderSpec):
    """The one-element order {'pt'}."""

    def contains(self, el):
        return el == "pt"

    def enum_in_gap(self, lo, hi):
        if lo is not None and hi is not None:
            raise ValueError("empty gap (pt, pt)")
        return iter(("pt",) if lo is None and hi is None else ())


class LexSum(OrderSpec):
    """Lexicographic sum of the orders fibre(a) over an index order.

    Elements are tuples (a, b) with b in fibre(a), so tuple order compares
    a first and then b inside fibre(a): a fibre's elements are all of one
    type.  A gap's stream merges lanes, one per index element a that the
    gap meets: the lane is fibre(a)'s own stream of the gap's part over a,
    and its j-th element has the key cantor(index.index_of(a), j).  A
    whole fibre's lane is its whole enumeration, so enum_in_gap(None,
    None) runs along the Cantor diagonal of index and fibre positions.
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

    def _lane(self, a, lo, hi):
        # (key, element) for the fibre over a, strictly inside (lo, hi)
        ia = self.index.index_of(a)
        for j, b in enumerate(self.fibre(a).enum_in_gap(lo, hi)):
            yield _cantor(ia, j), (a, b)

    def _merge_lanes(self, index_elements, lanes):
        # the given lanes and the whole fibres over index_elements, merged
        # by key.  Every lane starts at place 0 and index_elements come in
        # index order, so whole-fibre lane heads ascend: the next one is
        # due only once the newest one's head has been yielded.  Keys are
        # distinct, so the heap never compares elements.
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


class FactorOrder(LexSum):
    """The order that factors a weakly monotone map h: the sum over FullQ
    whose fibre over q is the (convex) solution interval of h(y) = q, with
    elements (q, y), or the one element (q, 'pt') when q is never attained.

    FactorOrder(h) takes any h with `eval` and `point_preimage`.  A pair
    (q, y) with y rational is a member exactly when h.eval(y) == q, one
    evaluation and no fibre; (q, 'pt') and gap enumeration go through the
    fibres, built once per q from h.point_preimage.  A gap stream draws
    only from the fibres' own streams of the gap, so each candidate costs
    a bounded number of enumeration steps at any depth."""

    def __init__(self, h):
        # fibre is a method, not a callable stored as LexSum stores it: a
        # bound method stored on its own instance is a reference cycle
        self.index = FullQ()
        self.h = h
        self._fibres = {}

    def contains(self, el):
        if not (isinstance(el, tuple) and len(el) == 2):
            return False
        q, y = el
        if not (type(q) is Rat or isinstance(q, Fraction)):
            return False
        if type(y) is Rat or isinstance(y, Fraction):
            return self.h.eval(y) == q
        return self.fibre(q).contains(y)

    def fibre(self, q):
        fibre = self._fibres.get(q)
        if fibre is None:
            iv = self.h.point_preimage(q)
            fibre = self._fibres[q] = PointOrder() if iv is None else IntervalQ(iv)
        return fibre

    def format_el(self, el):
        q, y = el
        return f"pt:{q}" if y == "pt" else f"im:{q}@{y}"


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

class ConstraintViolation(ValueError):
    """A seed pair breaks a named constraint."""


class Constraint:
    """Admit the pair (x, y) when source_key(x) == target_key(y); the
    source key is computed first."""

    def __init__(self, name, source_key, target_key):
        self.name = name
        self.source_key = source_key
        self.target_key = target_key

    def admissible(self, x, y) -> bool:
        return self.source_key(x) == self.target_key(y)


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
                 constraint: Optional[Constraint] = None):
        self.source = source
        self.target = target
        self.constraint = constraint
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
        c = self.constraint
        if c is not None and not c.admissible(x, y):
            raise ConstraintViolation(
                f"seed pair {self.source.format_el(x)} -> "
                f"{self.target.format_el(y)} violates {c.name}")
        i = bisect_left(self._pairs, x, key=_SOURCE)
        # order-compatibility with both neighbours
        if i > 0 and not self._pairs[i - 1][1] < y:
            raise ConstraintViolation(
                f"seed not order-preserving at {self.source.format_el(x)}")
        if i < len(self._pairs) and not y < self._pairs[i][1]:
            raise ConstraintViolation(
                f"seed not order-preserving at {self.source.format_el(x)}")
        self._insert(i, x, y)

    def _insert(self, i, x, y):
        self._pairs.insert(i, (x, y))
        self._fwd[x] = y
        self._bwd[y] = x

    def _extend(self, el, side):
        # side 'target': el is a source point needing an image; 'source':
        # el is a target point needing a preimage.  The cost: one bisect of
        # the memo, one gap stream of the other spec (members only, so no
        # membership test), each candidate checked against the constraint,
        # and at most ratcore.SEARCH_CAP + 1 candidates scanned.
        pairs = self._pairs
        c = self.constraint
        forward = side == "target"
        if forward:
            own, other, val_idx = self.source, self.target, 1
            i = bisect_left(pairs, el, key=_SOURCE)
        else:
            own, other, val_idx = self.target, self.source, 0
            i = bisect_left(pairs, el, key=_TARGET)
        lo = pairs[i - 1][val_idx] if i else None
        hi = pairs[i][val_idx] if i < len(pairs) else None

        steps, cap = 0, ratcore.SEARCH_CAP
        for cand in other.enum_in_gap(lo, hi):
            if steps > cap:
                break
            steps += 1
            x, y = (el, cand) if forward else (cand, el)
            if c is None or c.admissible(x, y):
                self._insert(i, x, y)
                return cand
        raise ratcore.SearchExhausted(
            f"back-and-forth search for a partner of {own.format_el(el)}",
            lo, hi, other.format_el)

    def eval_fwd(self, x):
        y = self._fwd.get(x)  # memo values are never None
        if y is not None:
            return y
        if not self.source.contains(x):
            raise ValueError(f"not in source order: {x!r}")
        return self._extend(x, "target")

    def eval_bwd(self, y):
        x = self._bwd.get(y)
        if x is not None:
            return x
        if not self.target.contains(y):
            raise ValueError(f"not in target order: {y!r}")
        return self._extend(y, "source")

    def memo_pairs(self):
        return tuple(self._pairs)

    def memo_dump(self) -> str:
        return ", ".join(
            f"{self.source.format_el(x)} -> {self.target.format_el(y)}"
            for x, y in self._pairs)


def build(source, target, seed=(), constraint=None) -> LazyIso:
    """Seeded iso under at most one constraint; a seed pair violating it
    is rejected with the constraint named."""
    return LazyIso(source, target, seed=seed, constraint=constraint)
