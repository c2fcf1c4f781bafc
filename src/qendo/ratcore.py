"""Exact rational groundwork: enumeration, two-colouring, intervals.

Everything downstream works over plain `fractions.Fraction` values (aliased
`Rat`).  The module fixes one global enumeration of the rationals (signed
breadth-first walk of the mediant tree), a parity two-colouring whose colour
classes are both dense, and an exact interval type used by the piecewise
machinery.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Optional

Rat = Fraction


class Colour(Enum):
    RED = "red"
    BLUE = "blue"

    def __str__(self):
        return self.value


def colour(x: Rat) -> Colour:
    """Colour of a rational: red iff numerator+denominator is odd.

    Reduced fractions never have both parts even, so the remaining case
    (both odd) is blue.  Both classes are dense and coterminal; see
    colour_witness for the constructive density search.
    """
    return Colour.RED if (x.numerator + x.denominator) % 2 == 1 else Colour.BLUE


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _positive_index(x: Rat) -> int:
    # 1-based position of a positive rational in the breadth-first walk of
    # the mediant tree, via run-length compressed parent steps.
    p, q = x.numerator, x.denominator
    runs = []  # bottom-up (bit, count)
    while (p, q) != (1, 1):
        if p > q:
            k = (p - 1) // q
            runs.append(("1", k))
            p -= k * q
        else:
            k = (q - 1) // p
            runs.append(("0", k))
            q -= k * p
    bits = "1" + "".join(bit * k for bit, k in reversed(runs))
    return int(bits, 2)


def _positive_value(k: int) -> Rat:
    # inverse of _positive_index: walk the tree top-down along k's bits
    p, q = 1, 1
    for bit in bin(k)[3:]:
        if bit == "1":
            p += q
        else:
            q += p
    return Fraction(p, q)


def nth_rational(n: int) -> Rat:
    """The global enumeration: 0, 1, -1, 1/2, -1/2, 2, -2, 1/3, ...

    Index 0 is 0; odd indices walk the positive mediant tree breadth
    first, even indices mirror them negatively.
    """
    if n < 0:
        raise ValueError("enumeration index must be >= 0")
    if n == 0:
        return Fraction(0)
    k = (n + 1) // 2
    v = _positive_value(k)
    return v if n % 2 == 1 else -v


def rat_index(x: Rat) -> int:
    """Inverse of nth_rational (exact, total)."""
    if x == 0:
        return 0
    k = _positive_index(abs(x))
    return 2 * k - 1 if x > 0 else 2 * k


# ---------------------------------------------------------------------------
# density searches
# ---------------------------------------------------------------------------

def simplest_between(lo: Optional[Rat], hi: Optional[Rat]) -> Rat:
    """Smallest-denominator rational strictly inside an open interval.

    None bounds mean the interval is unbounded on that side.  The search
    is the usual mediant descent, so successive refinements stay on the
    Stern-Brocot path.
    """
    if lo is not None and hi is not None and lo >= hi:
        raise ValueError("empty open interval")
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        f = math.floor(hi)
        return Fraction(f if f < hi else f - 1)
    if hi is None:
        return Fraction(math.floor(lo) + 1)
    if lo < 0 < hi:
        return Fraction(0)
    if hi <= 0:
        return -simplest_between(-hi, -lo)
    n = math.floor(lo)
    if n + 1 < hi:
        return Fraction(n + 1)
    if lo == n:
        # (n, hi) with hi <= n+1: reciprocal of the fractional part is
        # unbounded above
        return n + 1 / Fraction(math.floor(1 / (hi - n)) + 1)
    return n + 1 / simplest_between(1 / (hi - n), 1 / (lo - n))


DENOMINATOR_BOUND = 10 ** 6


def colour_witness(lo: Rat, hi: Rat, want: Colour) -> Rat:
    """A rational of the requested colour strictly between lo and hi.

    Breadth-first over mediant refinements; denominators provably stay
    tiny in practice but DENOMINATOR_BOUND is enforced as a hard stop.
    """
    if lo >= hi:
        raise ValueError("need lo < hi")
    queue = deque([(lo, hi)])
    while queue:
        a, b = queue.popleft()
        m = simplest_between(a, b)
        if m.denominator > DENOMINATOR_BOUND:
            raise RuntimeError("colour witness search exceeded denominator bound")
        if colour(m) == want:
            return m
        queue.append((a, m))
        queue.append((m, b))
    raise RuntimeError("unreachable")  # pragma: no cover


def _meeting_node(lo: Optional[Rat], hi: Optional[Rat]) -> Rat:
    # shallowest mediant-tree node strictly inside a positive open interval
    p_lo, q_lo, p_hi, q_hi = 0, 1, 1, 0
    p, q = 1, 1
    while True:
        m = Fraction(p, q)
        if lo is not None and m <= lo:
            p_lo, q_lo = p, q
        elif hi is not None and m >= hi:
            p_hi, q_hi = p, q
        else:
            return m
        p, q = p_lo + p_hi, q_lo + q_hi


def enumerated_in_interval(lo: Optional[Rat], hi: Optional[Rat]) -> Iterator[Rat]:
    """Rationals strictly inside an open interval, in enumeration order.

    Lazy heap walk of the mediant tree: a subinterval's shallowest node has
    the least enumeration index in it, and splitting at that node covers
    the rest.  Used for least-index witness selection.
    """
    heap = []

    def push_value(x):
        heapq.heappush(heap, (rat_index(x), 0, x, None, None))

    def push_interval(a, b, sign):
        # positive-side open interval (a, b), emitted values multiplied by sign
        if a is not None and b is not None and a >= b:
            return
        m = _meeting_node(a, b)
        heapq.heappush(heap, (rat_index(sign * m), 1, sign * m, a, b))

    zero = Fraction(0)
    inside_zero = (lo is None or lo < 0) and (hi is None or hi > 0)
    if inside_zero:
        push_value(zero)
    # positive side: (max(lo,0), hi) intersected with (0, inf)
    plo = None if (lo is None or lo <= 0) else lo
    phi = None if hi is None else hi
    if phi is None or phi > 0:
        push_interval(plo, phi, 1)
    # negative side reflected: x in (lo, min(hi,0)) <=> -x in (max(-hi... )
    nlo = None if (hi is None or hi >= 0) else -hi
    nhi = None if lo is None else -lo
    if nhi is None or nhi > 0:
        push_interval(nlo, nhi, -1)

    while heap:
        _, tag, x, a, b = heapq.heappop(heap)
        yield x
        if tag == 1:
            sign = 1 if x > 0 else -1
            m = abs(x)
            push_interval(a, m, sign)
            push_interval(m, b, sign)


def least_index_in_interval(lo, hi, pred: Optional[Callable[[Rat], bool]] = None,
                            limit: int = 200000) -> Rat:
    """Least-enumeration-index rational in the open interval (lo, hi)
    satisfying pred.  Deterministic; raises if the scan cap is hit."""
    for i, x in enumerate(enumerated_in_interval(lo, hi)):
        if pred is None or pred(x):
            return x
        if i >= limit:
            break
    raise RuntimeError("witness search exhausted")


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RatInterval:
    """Interval of rationals; None endpoints are infinite and always open."""

    lo: Optional[Rat]
    hi: Optional[Rat]
    lo_closed: bool = False
    hi_closed: bool = False

    def __post_init__(self):
        if self.lo is None and self.lo_closed:
            raise ValueError("-inf endpoint must be open")
        if self.hi is None and self.hi_closed:
            raise ValueError("+inf endpoint must be open")
        if self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                raise ValueError("interval bounds out of order")
            if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
                raise ValueError("empty interval")

    def contains(self, x: Rat) -> bool:
        if self.lo is not None:
            if x < self.lo or (x == self.lo and not self.lo_closed):
                return False
        if self.hi is not None:
            if x > self.hi or (x == self.hi and not self.hi_closed):
                return False
        return True

    def is_degenerate(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def sample_point(self) -> Rat:
        """Canonical member."""
        if self.is_degenerate():
            return self.lo
        if self.lo is None and self.hi is None:
            return Fraction(0)
        if self.lo is None:
            return self.hi - 1
        if self.hi is None:
            return self.lo + 1
        if self.lo_closed:
            return self.lo
        if self.hi_closed:
            return self.hi
        return (self.lo + self.hi) / 2

    def __str__(self):
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"{left}{lo},{hi}{right}"

    @staticmethod
    def parse(text: str) -> "RatInterval":
        s = text.strip()
        if len(s) < 2 or s[0] not in "([" or s[-1] not in ")]":
            raise ValueError(f"bad interval: {text!r}")
        body = s[1:-1]
        if "," not in body:
            raise ValueError(f"bad interval: {text!r}")
        lo_s, hi_s = (part.strip() for part in body.split(",", 1))
        lo = None if lo_s in ("-inf", "-oo") else parse_rat(lo_s)
        hi = None if hi_s in ("+inf", "inf", "oo", "+oo") else parse_rat(hi_s)
        return RatInterval(lo, hi, s[0] == "[", s[-1] == "]")


FULL_LINE = RatInterval(None, None)


def point_interval(x: Rat) -> RatInterval:
    return RatInterval(x, x, True, True)


# ---------------------------------------------------------------------------
# interval unions, exactly
# ---------------------------------------------------------------------------
# Boundary positions form a linear order finer than Q: (1, x, -1) sits just
# below x, (1, x, 0) at x, (1, x, +1) just above; (0,) and (2,) are the
# infinities.  Intervals are [start, end] in position space, which turns
# union/complement bookkeeping into order arithmetic.

_NEG = (0,)
_POS = (2,)


def _start_pos(iv: RatInterval):
    if iv.lo is None:
        return _NEG
    return (1, iv.lo, 0 if iv.lo_closed else 1)


def _end_pos(iv: RatInterval):
    if iv.hi is None:
        return _POS
    return (1, iv.hi, 0 if iv.hi_closed else -1)


def _pos_le(p, q) -> bool:
    if p[0] != q[0]:
        return p[0] < q[0]
    if p[0] != 1:
        return True
    return (p[1], p[2]) <= (q[1], q[2])


def _joinable(end, start) -> bool:
    # can [.., end] and [start, ..] be one interval? overlap or exact touch
    if _pos_le(start, end):
        return True
    if end[0] == 1 and start[0] == 1 and end[1] == start[1]:
        return (end[2], start[2]) in ((-1, 0), (0, 1))
    return False


def _interval_from_positions(p, q) -> Optional[RatInterval]:
    if not _pos_le(p, q):
        return None
    lo, lo_closed = (None, False) if p == _NEG else (p[1], p[2] == 0)
    hi, hi_closed = (None, False) if q == _POS else (q[1], q[2] == 0)
    if p != _NEG and p[2] not in (0, 1):
        raise AssertionError("bad start position")
    if q != _POS and q[2] not in (-1, 0):
        raise AssertionError("bad end position")
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
            return None
    return RatInterval(lo, hi, lo_closed, hi_closed)


def merge_intervals(intervals) -> tuple:
    """Canonical form of a union: sorted, disjoint, non-touching."""
    ivs = sorted(intervals, key=_start_pos)
    out = []
    for iv in ivs:
        if out and _joinable(_end_pos(out[-1]), _start_pos(iv)):
            prev = out[-1]
            if _pos_le(_end_pos(iv), _end_pos(prev)):
                continue
            out[-1] = _interval_from_positions(_start_pos(prev), _end_pos(iv))
        else:
            out.append(iv)
    return tuple(out)


def union_contains(canonical, x: Rat) -> bool:
    return any(iv.contains(x) for iv in canonical)


def _succ(pos):
    if pos[2] == -1:
        return (1, pos[1], 0)
    if pos[2] == 0:
        return (1, pos[1], 1)
    raise AssertionError("no adjacent successor")


def _pred(pos):
    if pos[2] == 1:
        return (1, pos[1], 0)
    if pos[2] == 0:
        return (1, pos[1], -1)
    raise AssertionError("no adjacent predecessor")


def union_gaps(canonical) -> tuple:
    """Complement of a canonical union, as a canonical union."""
    if not canonical:
        return (FULL_LINE,)
    gaps = []
    first, last = canonical[0], canonical[-1]
    if _start_pos(first) != _NEG:
        gaps.append(_interval_from_positions(_NEG, _pred(_start_pos(first))))
    for cur, nxt in zip(canonical, canonical[1:]):
        gaps.append(_interval_from_positions(_succ(_end_pos(cur)),
                                             _pred(_start_pos(nxt))))
    if _end_pos(last) != _POS:
        gaps.append(_interval_from_positions(_succ(_end_pos(last)), _POS))
    return tuple(g for g in gaps if g is not None)


def intersect_intervals(a: RatInterval, b: RatInterval) -> Optional[RatInterval]:
    start = _start_pos(a) if _pos_le(_start_pos(b), _start_pos(a)) else _start_pos(b)
    end = _end_pos(a) if _pos_le(_end_pos(a), _end_pos(b)) else _end_pos(b)
    return _interval_from_positions(start, end)


def gap_witness_point(iv: RatInterval) -> Rat:
    """Deterministic representative of a nonempty interval: the point itself
    when degenerate, otherwise the simplest rational of the open interior."""
    if iv.is_degenerate():
        return iv.lo
    return simplest_between(iv.lo, iv.hi)


def union_difference_witness(a_union, b_union) -> Optional[Rat]:
    """A point of ∪a not in ∪b, or None if ∪a ⊆ ∪b (exact)."""
    b_gaps = union_gaps(merge_intervals(b_union))
    for a_iv in merge_intervals(a_union):
        for gap in b_gaps:
            hit = intersect_intervals(a_iv, gap)
            if hit is not None:
                return gap_witness_point(hit)
    return None


def interval_rationals(iv: RatInterval) -> Iterator[Rat]:
    """All rationals in an interval (endpoints included where closed), in
    global enumeration order."""
    streams = [enumerated_in_interval(iv.lo, iv.hi)]
    if iv.lo is not None and iv.lo_closed:
        streams.append(iter([iv.lo]))
    if iv.hi is not None and iv.hi_closed and iv.hi != iv.lo:
        streams.append(iter([iv.hi]))
    return heapq.merge(*streams, key=rat_index)


def parse_rat(text: str) -> Rat:
    """Parse 'p/q' or 'p' exactly (no floats)."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational: {text!r}") from exc


def format_rat(x: Rat) -> str:
    return str(x)
