"""Arithmetic the benchmark reports with: percentiles, medians, failure ratio.

Kept free of any qendo import so that its tests run without the package.
"""

from __future__ import annotations

import math
from typing import Sequence

# A percentile is reported as supported only with this many samples beyond it.
MIN_TAIL = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the value at rank ceil(q * n), 1-based."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly past the nearest-rank q-percentile."""
    return n - max(1, math.ceil(q * n))


def supported(n: int, q: float) -> bool:
    """Whether the q-percentile of n samples has MIN_TAIL samples beyond it."""
    return samples_beyond(n, q) >= MIN_TAIL


def median(values: Sequence[float]) -> float:
    """Median of a run's passes (mean of the middle two for an even count)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def without_samples(intervals, samples):
    """Duration of each (start, end) interval less the reference samples
    that fell inside it.  Both lists are in time order; a sample runs in a
    signal handler, so it lies wholly inside one interval or outside all."""
    out = []
    j = 0
    for start, end in intervals:
        while j < len(samples) and samples[j][0] < start:
            j += 1
        taken = 0.0
        while j < len(samples) and samples[j][1] <= end:
            taken += samples[j][1] - samples[j][0]
            j += 1
        out.append(end - start - taken)
    return out


class Checks:
    """Counts correctness checks and keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failures = []

    def check(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(what)
        return ok


def fail_ratio(self) -> float:
        return fail_ratio(self.failed, self.attempted)


class _Guard:
    # counts one attempted check, failed when the body raises; the
    # exception is swallowed so the pass goes on with the next op
    def __init__(self, checks: Checks, what: str):
        self.checks = checks
        self.what = what
        self.raised = False

    def __enter__(self):
        self.checks.attempted += 1
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            return False
        if not issubclass(exc_type, Exception):
            return False
        self.raised = True
        self.checks._fail(f"{self.what}: {exc_type.__name__}: {exc}")
        return True


def fail_ratio(failed: int, attempted: int) -> float:
    """Failed checks over checks attempted; no attempts is an error."""
    if attempted < 1:
        raise ValueError("no checks attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return failed / attempted
