"""Exact rational groundwork: enumeration, two-colouring, intervals.

Everything downstream works over `Rat` values: a `fractions.Fraction`
subclass whose comparisons, arithmetic and hash skip the generic
`numbers.Rational` protocol.  Plain `Fraction` input is accepted wherever
a rational is, and `Rat(x)` converts it.  The module fixes one global
enumeration of the rationals (0, then the breadth-first Calkin-Wilf order,
each positive value followed by its negative), a parity two-colouring
whose colour classes are both dense, and an exact interval type used by
the piecewise machinery.

A positive rational's Calkin-Wilf index, in binary, is a leading 1 followed
by its Stern-Brocot path read backwards (1 for a right move, 0 for a left
move): the first move from the root is the lowest bit.  So the shallowest
Stern-Brocot node of a positive interval has the least index in it, and
the interval searches below are one integer walk down the Stern-Brocot
tree, `_descend`, that makes a `Rat` only at the API boundary, with no
gcd: every node of the tree is in lowest terms (Graham, Knuth and
Patashnik, Concrete Mathematics 4.5).
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Optional

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf
# denominator -> _inverse(denominator), for Rat.__hash__; emptied when it
# reaches _DINV_CAP entries, so it stays bounded
_DINV = {}
_DINV_CAP = 1 << 14


class Rat(Fraction):
    """An exact rational: a `Fraction` that is always in lowest terms.

    Comparisons and `+ - * /` take a fast path when the other operand is
    exactly a `Rat`, a `Fraction` or an `int` (tested with `type(...) is`,
    since `isinstance` against `Fraction` goes through `ABCMeta`), and the
    arithmetic, unary `-` and `abs` return `Rat`, reduced with one gcd.
    Every other operator, and any other operand type, is `Fraction`'s.  The
    hash equals `Fraction`'s, so equal values of either type are one dict
    key; the repr is `Fraction`'s too.  `Rat(x)` is `x` when x is a `Rat`
    already.
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        if denominator is None:
            t = type(numerator)
            if t is Rat:
                return numerator
            if t is int:
                return _rat(numerator, 1)
            if t is Fraction:
                return _rat(numerator._numerator, numerator._denominator)
        elif type(numerator) is int and type(denominator) is int:
            if denominator == 0:
                raise ZeroDivisionError(f"Fraction({numerator}, 0)")
            return _reduced(numerator, denominator)
        return super().__new__(cls, numerator, denominator)

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    def __hash__(self):
        # Fraction.__hash__: |n| times the inverse of d, modulo the modulus
        n, d = self._numerator, self._denominator
        if d == 1:
            return hash(n)
        try:
            dinv = _DINV[d]
        except KeyError:
            dinv = _inverse(d)
        if not dinv:
            return _HASH_INF if n > 0 else -_HASH_INF
        if n > 0:
            return hash(n * dinv)
        h = -hash(-n * dinv)
        return -2 if h == -1 else h

    def __eq__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if t is int:
            return a._denominator == 1 and a._numerator == b
        return Fraction.__eq__(a, b)

    def __lt__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return a._numerator * b._denominator < b._numerator * a._denominator
        if t is int:
            return a._numerator < b * a._denominator
        return Fraction.__lt__(a, b)

    def __le__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return a._numerator * b._denominator <= b._numerator * a._denominator
        if t is int:
            return a._numerator <= b * a._denominator
        return Fraction.__le__(a, b)

    def __gt__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return a._numerator * b._denominator > b._numerator * a._denominator
        if t is int:
            return a._numerator > b * a._denominator
        return Fraction.__gt__(a, b)

    def __ge__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return a._numerator * b._denominator >= b._numerator * a._denominator
        if t is int:
            return a._numerator >= b * a._denominator
        return Fraction.__ge__(a, b)

    def __add__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            da, db = a._denominator, b._denominator
            return _reduced(a._numerator * db + b._numerator * da, da * db)
        if t is int:
            return _rat(a._numerator + b * a._denominator, a._denominator)
        return Fraction.__add__(a, b)

    def __radd__(a, b):
        t = type(b)
        if t is Fraction or t is int:
            return a + b
        return Fraction.__radd__(a, b)

    def __sub__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            da, db = a._denominator, b._denominator
            return _reduced(a._numerator * db - b._numerator * da, da * db)
        if t is int:
            return _rat(a._numerator - b * a._denominator, a._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(a, b):
        t = type(b)
        if t is Fraction:
            da, db = a._denominator, b._denominator
            return _reduced(b._numerator * da - a._numerator * db, da * db)
        if t is int:
            return _rat(b * a._denominator - a._numerator, a._denominator)
        return Fraction.__rsub__(a, b)

    def __mul__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return _reduced(a._numerator * b._numerator, a._denominator * b._denominator)
        if t is int:
            return _reduced(a._numerator * b, a._denominator)
        return Fraction.__mul__(a, b)

    def __rmul__(a, b):
        t = type(b)
        if t is Fraction or t is int:
            return a * b
        return Fraction.__rmul__(a, b)

    def __truediv__(a, b):
        t = type(b)
        if t is Rat or t is Fraction:
            return _quotient(a._numerator * b._denominator, a._denominator * b._numerator)
        if t is int:
            return _quotient(a._numerator, a._denominator * b)
        return Fraction.__truediv__(a, b)

    def __rtruediv__(a, b):
        t = type(b)
        if t is Fraction:
            return _quotient(b._numerator * a._denominator, b._denominator * a._numerator)
        if t is int:
            return _quotient(b * a._denominator, a._numerator)
        return Fraction.__rtruediv__(a, b)

    def __neg__(a):
        return _rat(-a._numerator, a._denominator)

    def __abs__(a):
        return _rat(abs(a._numerator), a._denominator)


def _inverse(d: int) -> int:
    # d's inverse modulo _HASH_MODULUS, or 0 when d is a multiple of it
    if len(_DINV) >= _DINV_CAP:
        _DINV.clear()
    try:
        dinv = pow(d, -1, _HASH_MODULUS)
    except ValueError:
        dinv = 0
    _DINV[d] = dinv
    return dinv


def _rat(n: int, d: int) -> Rat:
    # n/d with d > 0 and gcd(n, d) == 1 already: no gcd, no checks
    r = object.__new__(Rat)
    r._numerator = n
    r._denominator = d
    return r


def _reduced(n: int, d: int) -> Rat:
    # n/d in lowest terms, for d != 0
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    return _rat(n // g, d // g)


def _quotient(n: int, d: int) -> Rat:
    if d == 0:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    return _reduced(n, d)


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

def _descend(a, b, left, right):
    """Shallowest Stern-Brocot node strictly between the open bounds a < b.

    The search runs in the subtree (left, right), whose root is their
    mediant, where left <= a and b <= right.  Values are (p, q) integer
    pairs, 1/0 being +inf.  Each step takes a whole run of same-direction
    moves with one floor division (Graham, Knuth and Patashnik, Concrete
    Mathematics 4.5).  Returns the node, its subtree bounds and the runs
    taken, top-down, as (is_right, length) pairs.
    """
    (an, ad), (bn, bd), (ln, ld), (rn, rd) = a, b, left, right
    runs = []
    while True:
        j = (an * ld - ln * ad) // (rn * ad - an * rd)  # left + j*right <= a
        if j:
            ln, ld = ln + j * rn, ld + j * rd
            runs.append((True, j))
        j = (rn * bd - bn * rd) // (bn * ld - ln * bd)  # j*left + right >= b
        if not j:
            return (ln + rn, ld + rd), (ln, ld), (rn, rd), runs
        rn, rd = rn + j * ln, rd + j * ld
        runs.append((False, j))


def _positive_index(x: Rat) -> int:
    # 1-based Calkin-Wilf position of a positive rational: its Stern-Brocot
    # path, run by run (the continued-fraction terms), each run's bits
    # going above the bits before it
    p, q = x.numerator, x.denominator
    k = d = 0
    while p != q:
        if p > q:
            j = (p - 1) // q
            p -= j * q
            k |= ((1 << j) - 1) << d
        else:
            j = (q - 1) // p
            q -= j * p
        d += j
    return k | 1 << d


def _positive_value(k: int) -> Rat:
    # inverse of _positive_index: walk the tree top-down along k's bits
    p, q = 1, 1
    for bit in bin(k)[3:]:
        if bit == "1":
            p += q
        else:
            q += p
    return _rat(p, q)


def nth_rational(n: int) -> Rat:
    """The global enumeration: 0, 1, -1, 1/2, -1/2, 2, -2, 1/3, ...

    Index 0 is 0; odd index 2k-1 is the k-th node of the Calkin-Wilf tree
    in breadth-first order, and even index 2k is its negative.  The bits
    of k after its leading 1 are the Stern-Brocot path of the value read
    backwards.
    """
    if n < 0:
        raise ValueError("enumeration index must be >= 0")
    if n == 0:
        return _rat(0, 1)
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

class SearchExhausted(RuntimeError):
    """A bounded search reached its cap; the message names the cap and the
    gap searched, whose bounds are printed by fmt (None is infinite)."""

    def __init__(self, search: str, cap: str, lo, hi, fmt=str):
        lo = "-inf" if lo is None else fmt(lo)
        hi = "+inf" if hi is None else fmt(hi)
        super().__init__(f"{search} found nothing within {cap} in the gap ({lo}, {hi})")


def simplest_between(lo: Optional[Rat], hi: Optional[Rat]) -> Rat:
    """Smallest-denominator rational strictly inside an open interval.

    None bounds mean the interval is unbounded on that side.  An interval
    unbounded on one side gives the integer next to its finite bound, and
    one around 0 gives 0.  Otherwise the answer is the interval's
    shallowest Stern-Brocot node (reflected for a negative interval), found
    by one integer walk from the root that takes whole runs of moves.
    """
    if lo is not None and hi is not None and lo >= hi:
        raise ValueError("empty open interval")
    if lo is None and hi is None:
        return Rat(0)
    if lo is None:
        f = math.floor(hi)
        return Rat(f if f < hi else f - 1)
    if hi is None:
        return Rat(math.floor(lo) + 1)
    if lo < 0 < hi:
        return Rat(0)
    if hi <= 0:
        return -simplest_between(-hi, -lo)
    (p, q), _, _, _ = _descend(lo.as_integer_ratio(), hi.as_integer_ratio(),
                               (0, 1), (1, 0))
    return _rat(p, q)


DENOMINATOR_BOUND = 10 ** 6


def colour_witness(lo: Rat, hi: Rat, want: Colour) -> Rat:
    """A rational of the requested colour strictly between lo and hi.

    Breadth-first over mediant refinements; denominators provably stay
    tiny in practice but DENOMINATOR_BOUND is enforced as a hard stop.
    """
    if lo >= hi:
        raise ValueError("need lo < hi")
    queue = deque([(lo, hi)])
    while True:  # the queue never empties: each pop adds two gaps
        a, b = queue.popleft()
        m = simplest_between(a, b)
        if m.denominator > DENOMINATOR_BOUND:
            raise SearchExhausted(f"colour witness search for {want}",
                                  f"DENOMINATOR_BOUND={DENOMINATOR_BOUND}",
                                  lo, hi)
        if colour(m) == want:
            return m
        queue.append((a, m))
        queue.append((m, b))


def enumerated_in_interval(lo: Optional[Rat], hi: Optional[Rat],
                           lo_closed: bool = False,
                           hi_closed: bool = False) -> Iterator[Rat]:
    """Rationals in an interval, in enumeration order.

    None bounds are infinite, and a finite end is in the interval where it
    is closed; [x, x] yields x alone, and an empty interval raises
    ValueError on the first next().
    0 comes first when it is inside.  Each side of 0 is a lazy heap walk of
    the Stern-Brocot tree, the negative side reflected: the least-index
    element of an open subinterval is its shallowest node, `_descend` finds
    it, and popping it splits the subinterval there, each half walking on
    from that node within the node's subtree.  A heap entry carries the
    node's index, extended by the runs of its walk, so no index is ever
    recomputed from the value.  A closed end other than 0 enters the same
    heap, keyed by its own index, as an entry whose gap is empty, so
    popping it pushes nothing.  Used for least-index witness selection.
    """
    heap = []

    def push(sign, k, a, b, left, right):
        # gap (a, b) of the subtree (left, right) whose root has index k,
        # times sign; each run goes above the bits so far, below the top 1.
        # Returns whether the gap has a node.
        if a[0] * b[1] >= b[0] * a[1]:
            return False
        node, left, right, runs = _descend(a, b, left, right)
        d = k.bit_length() - 1
        k ^= 1 << d
        for is_right, j in runs:
            if is_right:
                k |= ((1 << j) - 1) << d
            d += j
        k |= 1 << d
        heapq.heappush(heap, (2 * k - (sign > 0), sign, k, node, left, right, a, b))
        return True

    if ((lo is None or lo < 0 or lo_closed and lo == 0)
            and (hi is None or hi > 0 or hi_closed and hi == 0)):
        yield _rat(0, 1)
    zero, inf = (0, 1), (1, 0)
    positive = push(1, 1, zero if lo is None or lo <= 0 else lo.as_integer_ratio(),
                    inf if hi is None else hi.as_integer_ratio(), zero, inf)
    negative = push(-1, 1, zero if hi is None or hi >= 0 else (-hi).as_integer_ratio(),
                    inf if lo is None else (-lo).as_integer_ratio(), zero, inf)
    # an interval without interior points is empty unless it is [x, x]
    if not (positive or negative or lo == hi and lo_closed and hi_closed):
        raise ValueError("empty interval" if lo_closed or hi_closed
                         else "empty open interval")
    for x, closed in ((lo, lo_closed), (hi, hi_closed and hi != lo)):
        if closed and x != 0:
            node = abs(x).as_integer_ratio()
            heapq.heappush(heap, (rat_index(x), 1 if x > 0 else -1, 0, node,
                                  None, None, node, node))
    while heap:
        _, sign, k, node, left, right, a, b = heapq.heappop(heap)
        yield _rat(sign * node[0], node[1])
        push(sign, k, a, node, left, right)
        push(sign, k, node, b, left, right)


def least_index_in_interval(lo, hi, pred: Optional[Callable[[Rat], bool]] = None,
                            limit: int = 200000) -> Rat:
    """Least-enumeration-index rational in the open interval (lo, hi)
    satisfying pred.  Deterministic; raises ValueError when the interval is
    empty and SearchExhausted when the scan passes `limit` candidates."""
    for i, x in enumerate(enumerated_in_interval(lo, hi)):
        if pred is None or pred(x):
            return x
        if i >= limit:
            break
    raise SearchExhausted("least-index witness search", f"limit={limit}",
                          lo, hi)


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
            return Rat(0)
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
# union/complement bookkeeping into order arithmetic; the encoding makes
# that order plain tuple comparison.

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


def _joinable(end, start) -> bool:
    # can [.., end] and [start, ..] be one interval? overlap or exact touch
    if start <= end:
        return True
    if end[0] == 1 and start[0] == 1 and end[1] == start[1]:
        return (end[2], start[2]) in ((-1, 0), (0, 1))
    return False


def _interval_from_positions(p, q) -> Optional[RatInterval]:
    if p > q:
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
            if _end_pos(iv) <= _end_pos(prev):
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
    return _interval_from_positions(max(_start_pos(a), _start_pos(b)),
                                    min(_end_pos(a), _end_pos(b)))


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


def parse_rat(text: str) -> Rat:
    """Parse 'p/q' or 'p' exactly (no floats)."""
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            return Rat(int(num.strip()), int(den.strip()))
        return Rat(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational: {text!r}") from exc


def format_rat(x: Rat) -> str:
    return str(x)
