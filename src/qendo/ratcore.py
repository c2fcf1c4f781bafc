"""Exact rational groundwork: enumeration, two-colouring, intervals.

Everything downstream works over `Rat` values: a `fractions.Fraction`
subclass whose comparisons, arithmetic and hash skip the generic
`numbers.Rational` protocol.  Plain `Fraction` input is accepted wherever
a rational is, and `Rat(x)` converts it.  The module fixes one global
enumeration of the rationals (0, then the breadth-first Calkin-Wilf order,
each positive value followed by its negative), a parity two-colouring
whose colour classes are both dense, and an exact interval type used by
the piecewise machinery.

A positive rational's Calkin-Wilf index (Calkin and Wilf, 2000), in binary,
is a leading 1 followed by its Stern-Brocot path read backwards (1 for a
right move, 0 for a left move): the first move from the root is the lowest
bit.  So the shallowest Stern-Brocot node of a positive interval has the
least index in it, and the interval searches below are one integer walk
down the Stern-Brocot tree, `_descend`, that builds the node's index as it
goes when asked, and makes a `Rat` only at the API boundary, with no gcd:
every node of the tree is in lowest terms (Concrete Mathematics 4.5).

Every bounded search in the package stops after SEARCH_CAP + 1 candidates
(or gap splits) and raises SearchExhausted; each search reads the cap from
this module when it starts, so one patch of it reaches them all.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import heappop, heappush
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
    if type(x) is not Rat:
        x = Rat(x)
    return Colour.RED if (x._numerator + x._denominator) % 2 == 1 else Colour.BLUE


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _descend(a, b, left, right, k=0):
    """Shallowest Stern-Brocot node strictly between the open bounds a < b.

    The search runs in the subtree (left, right), whose root is their
    mediant, where left <= a and b <= right.  Values are (p, q) integer
    pairs, 1/0 being +inf.  Each step takes a whole run of same-direction
    moves with one floor division (Graham, Knuth and Patashnik, Concrete
    Mathematics 4.5), and puts the run's bits into k, the subtree root's
    index, above the bits so far and below the top 1.  Returns the node,
    its subtree bounds and its index; k = 0 asks for none and gets 0.
    """
    (an, ad), (bn, bd), (ln, ld), (rn, rd) = a, b, left, right
    t = 1 << k.bit_length() >> 1  # the top 1 of k, 0 when k is
    while True:
        j = (an * ld - ln * ad) // (rn * ad - an * rd)  # left + j*right <= a
        if j:  # j right moves: j ones under the top 1, which moves up j places
            ln, ld = ln + j * rn, ld + j * rd
            k, t = k + 2 * ((t << j) - t), t << j
        j = (rn * bd - bn * rd) // (bn * ld - ln * bd)  # j*left + right >= b
        if not j:
            return (ln + rn, ld + rd), (ln, ld), (rn, rd), k
        rn, rd = rn + j * ln, rd + j * ld
        k, t = k + (t << j) - t, t << j  # j left moves: j zeros under it


def _positive_index(p: int, q: int) -> int:
    # 1-based Calkin-Wilf position of the positive rational p/q in lowest
    # terms: its Stern-Brocot path, run by run (the continued-fraction
    # terms), each run's bits going above the bits before it
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
    if type(x) is not Rat:
        x = Rat(x)
    n = x._numerator
    if n == 0:
        return 0
    k = _positive_index(abs(n), x._denominator)
    return 2 * k - 1 if n > 0 else 2 * k


# ---------------------------------------------------------------------------
# density searches
# ---------------------------------------------------------------------------

SEARCH_CAP = 100_000


class SearchExhausted(RuntimeError):
    """A bounded search reached SEARCH_CAP; the message names it and the gap
    searched, whose bounds are printed by fmt (None is infinite)."""

    def __init__(self, search: str, lo, hi, fmt=str):
        lo = "-inf" if lo is None else fmt(lo)
        hi = "+inf" if hi is None else fmt(hi)
        super().__init__(f"{search} found nothing within SEARCH_CAP={SEARCH_CAP} "
                         f"in the gap ({lo}, {hi})")


def simplest_between(lo: Optional[Rat], hi: Optional[Rat]) -> Rat:
    """Smallest-denominator rational strictly inside an open interval.

    None bounds mean the interval is unbounded on that side.  An interval
    unbounded on one side gives the integer next to its finite bound, even
    when it holds 0: (None, 3) gives 2, not its least-index element 0.  A
    bounded interval around 0, and the whole line, give 0.  Otherwise the
    answer is the interval's shallowest Stern-Brocot node (reflected for a
    negative interval), which is also its least-index element, found by
    one integer walk from the root that takes whole runs of moves.
    """
    if lo is not None and type(lo) is not Rat:
        lo = Rat(lo)
    if hi is not None and type(hi) is not Rat:
        hi = Rat(hi)
    if lo is None:
        if hi is None:
            return _rat(0, 1)
        hn, hd = hi._numerator, hi._denominator
        f = hn // hd
        return _rat(f if f * hd < hn else f - 1, 1)
    ln, ld = lo._numerator, lo._denominator
    if hi is None:
        return _rat(ln // ld + 1, 1)
    hn, hd = hi._numerator, hi._denominator
    if ln * hd >= hn * ld:
        raise ValueError("empty open interval")
    if ln < 0 < hn:
        return _rat(0, 1)
    if hn <= 0:
        (p, q), _, _, _ = _descend((-hn, hd), (-ln, ld), (0, 1), (1, 0))
        return _rat(-p, q)
    (p, q), _, _, _ = _descend((ln, ld), (hn, hd), (0, 1), (1, 0))
    return _rat(p, q)


def colour_witness(lo: Rat, hi: Rat, want: Colour) -> Rat:
    """A rational of the requested colour strictly between lo and hi.

    Breadth-first over gaps, each split at its simplest rational; after
    SEARCH_CAP + 1 splits without a witness it raises SearchExhausted.
    A gap around 0 splits at 0; any other gap is searched on its side of 0,
    the negative side reflected, as one integer walk: `_descend` finds a
    gap's simplest rational within the Stern-Brocot subtree it lies in,
    and each half of the split lies in one of that node's two subtrees.
    The colour is the parity of the node's integer parts, and the answer
    is the one Rat built.  It keeps this walk rather than calling
    `least_index_in_interval` with a colour predicate: on the ratcore
    suite's 39,800 calls that took 0.151-0.171 s against 0.093-0.095 s, and
    returned a different witness in 9,312 of them.
    """
    if lo is None or hi is None:
        raise ValueError("need finite lo and hi")
    lo, hi = Rat(lo), Rat(hi)
    ln, ld, hn, hd = lo._numerator, lo._denominator, hi._numerator, hi._denominator
    if ln * hd >= hn * ld:
        raise ValueError("need lo < hi")
    red = want is Colour.RED  # red iff numerator + denominator is odd
    zero, inf = (0, 1), (1, 0)
    splits = SEARCH_CAP + 1
    if ln < 0 < hn:  # the first split is at 0, which is red
        if red:
            return _rat(0, 1)
        splits -= 1
        queue = deque([(-1, zero, (-ln, ld), zero, inf), (1, zero, (hn, hd), zero, inf)])
    elif hn > 0:
        queue = deque([(1, (ln, ld), (hn, hd), zero, inf)])
    else:
        queue = deque([(-1, (-hn, hd), (-ln, ld), zero, inf)])
    # each entry is a gap (a, b) of the subtree (left, right), times sign
    for _ in range(splits):  # each pop adds two gaps
        sign, a, b, left, right = queue.popleft()
        m, left, right, _ = _descend(a, b, left, right)
        if (m[0] + m[1]) % 2 == red:
            return _rat(sign * m[0], m[1])
        lower, upper = (sign, a, m, left, m), (sign, m, b, m, right)
        # the line's order: a reflected gap's upper half lies below
        queue.extend((lower, upper) if sign > 0 else (upper, lower))
    raise SearchExhausted(f"colour witness search for {want}", lo, hi)


def _push(heap, sign, k, a, b, left, right) -> None:
    # the nonempty open gap (a, b) of the subtree (left, right) whose root
    # has index k, times sign, as a heap entry keyed by its node's index
    node, left, right, k = _descend(a, b, left, right, k)
    heappush(heap, (2 * k - (sign > 0), sign, k, node, left, right, a, b))


def enumerated_in_interval(lo: Optional[Rat], hi: Optional[Rat]) -> Iterator[Rat]:
    """Rationals in the open interval (lo, hi), in enumeration order.

    None bounds are infinite.  An empty interval raises ValueError on the
    first next(), found by one cross-multiplication before anything is
    yielded.  0 comes first when it is inside.  Each side of 0 is a lazy
    heap walk of the Stern-Brocot tree, the negative side reflected: the
    least-index element of an open gap is its shallowest node, `_descend`
    finds it, and popping it splits the gap there into two nonempty open
    gaps, each walking on from that node within the node's subtree.  A
    heap entry carries the node's index, which `_descend` builds from the
    subtree root's index as it walks.  Used for least-index witness
    selection.
    """
    # the bounds as Rat, and the integer parts of the finite ones
    if lo is not None:
        if type(lo) is not Rat:
            lo = Rat(lo)
        ln, ld = lo._numerator, lo._denominator
    if hi is not None:
        if type(hi) is not Rat:
            hi = Rat(hi)
        hn, hd = hi._numerator, hi._denominator
        if lo is not None and ln * hd >= hn * ld:
            raise ValueError("empty open interval")
    heap = []
    zero, inf = (0, 1), (1, 0)
    # a side of 0 is walked only where the interval reaches past 0
    if lo is None or ln < 0:
        if hi is None or hn > 0:
            yield _rat(0, 1)
        _push(heap, -1, 1, zero if hi is None or hn >= 0 else (-hn, hd),
              inf if lo is None else (-ln, ld), zero, inf)
    if hi is None or hn > 0:
        _push(heap, 1, 1, zero if lo is None or ln <= 0 else (ln, ld),
              inf if hi is None else (hn, hd), zero, inf)
    while heap:
        _, sign, k, node, left, right, a, b = heappop(heap)
        yield _rat(sign * node[0], node[1])
        _push(heap, sign, k, a, node, left, right)
        _push(heap, sign, k, node, b, left, right)


def least_index_in_interval(lo, hi,
                            pred: Optional[Callable[[Rat], bool]] = None) -> Rat:
    """Least-enumeration-index rational in the open interval (lo, hi)
    satisfying pred.  Deterministic; raises ValueError when the interval is
    empty and SearchExhausted when the scan passes SEARCH_CAP
    candidates."""
    cap = SEARCH_CAP
    for i, x in enumerate(enumerated_in_interval(lo, hi)):
        if pred is None or pred(x):
            return x
        if i >= cap:
            break
    raise SearchExhausted("least-index witness search", lo, hi)


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
        """Bounds are kept as Rat, so they reach results with Rat's fast
        paths; only a bound that is not a Rat already is converted.  Two
        finite bounds are ordered by one integer cross-multiplication,
        which is exact as both are in lowest terms: equal products mean
        equal bounds."""
        lo, hi = self.lo, self.hi
        if lo is None:
            if self.lo_closed:
                raise ValueError("-inf endpoint must be open")
        elif type(lo) is not Rat:
            lo = Rat(lo)
            object.__setattr__(self, "lo", lo)
        if hi is None:
            if self.hi_closed:
                raise ValueError("+inf endpoint must be open")
        elif type(hi) is not Rat:
            hi = Rat(hi)
            object.__setattr__(self, "hi", hi)
        if lo is not None and hi is not None:
            a, b = lo._numerator * hi._denominator, hi._numerator * lo._denominator
            if a > b:
                raise ValueError("interval bounds out of order")
            if a == b and not (self.lo_closed and self.hi_closed):
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
    # a start sits at or just above its point and an end at or just below,
    # so a start p <= an end q at one point means both are at it: every
    # p <= q is a nonempty interval
    if p > q:
        return None
    lo, lo_closed = (None, False) if p == _NEG else (p[1], p[2] == 0)
    hi, hi_closed = (None, False) if q == _POS else (q[1], q[2] == 0)
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


def union_gaps(canonical) -> tuple:
    """Complement of a canonical union, as a canonical union.  Each gap
    runs between the ends of its neighbours, closed where they are open;
    canonical neighbours do not touch, so no gap is empty."""
    if not canonical:
        return (FULL_LINE,)
    first, last = canonical[0], canonical[-1]
    gaps = [RatInterval(cur.hi, nxt.lo, not cur.hi_closed, not nxt.lo_closed)
            for cur, nxt in zip(canonical, canonical[1:])]
    if first.lo is not None:
        gaps.insert(0, RatInterval(None, first.lo, False, not first.lo_closed))
    if last.hi is not None:
        gaps.append(RatInterval(last.hi, None, not last.hi_closed, False))
    return tuple(gaps)


def gap_witness_point(iv: RatInterval) -> Rat:
    """Deterministic representative of a nonempty interval: the point itself
    when degenerate, otherwise the simplest rational of the open interior."""
    if iv.is_degenerate():
        return iv.lo
    return simplest_between(iv.lo, iv.hi)


def content_lines(text: str):
    """(line number, the text before any '#', stripped) for each line of
    text that has content; line numbers count from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if line:
            yield lineno, line


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

