"""Machine-speed reference: a fixed stdlib computation timed during a pass.

The CPU a pass runs on changes speed from second to second and from
minute to minute (shared hosts), by as much as a third, which is more than
any regression bound the benchmark could use.  So the worker samples the
speed while it measures: a SIGALRM timer interrupts the pass every
INTERVAL_S and times one reference chunk, a few milliseconds of Fraction
arithmetic and dict traffic that uses no qendo code.  The chunk's own time
is removed from every measured interval it fell into, and a pass's times
are reported scaled by REF_S / (mean chunk time during the pass): seconds
at the speed where one chunk takes REF_S.  A change to qendo moves the
scaled times as much as the raw ones; a change of machine speed moves
both the pass and the chunks and cancels out.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REF_S = 0.004  # nominal duration of one chunk
INTERVAL_S = 0.1
BURST = 10  # chunks timed back to back to scale a set-up
_TARGETS = (Fraction(355, 113), Fraction(-89, 55), Fraction(1, 97), Fraction(144, 233))


def chunk(reps=5):
    """Stern-Brocot walks to fixed targets with Fraction objects and a dict."""
    seen = {}
    for _ in range(reps):
        for target in _TARGETS:
            lo_p, lo_q, hi_p, hi_q = -1000, 1, 1000, 1
            while True:
                m = Fraction(lo_p + hi_p, lo_q + hi_q)
                seen[m] = seen.get(m, 0) + 1
                if m < target:
                    lo_p, lo_q = m.numerator, m.denominator
                elif m > target:
                    hi_p, hi_q = m.numerator, m.denominator
                else:
                    break
    return len(seen)


def timed_chunk():
    start = time.perf_counter()
    chunk()
    return start, time.perf_counter()


def burst():
    """Mean duration of BURST chunks run back to back."""
    times = [end - start for start, end in (timed_chunk() for _ in range(BURST))]
    return sum(times) / len(times)


class Sampler:
    """Times one chunk every INTERVAL_S of wall time while running."""

    def __init__(self):
        self.samples = []  # (start, end) of each chunk, in time order

    def _on_alarm(self, signum, frame):
        self.samples.append(timed_chunk())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
