"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from metrics import (Checks, fail_ratio, median, percentile, samples_beyond, supported,
                     without_samples)
from reference import Sampler, chunk
from tracing import Tracer, install

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- percentiles ------------------------------------------------------------

def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(values, 1.0) == 100
    assert percentile([3, 1, 2], 0.5) == 2
    assert percentile([7], 0.9) == 7


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1, 2], 0)


def test_percentile_support_needs_ten_samples_beyond():
    assert samples_beyond(100, 0.9) == 10
    assert supported(100, 0.9)
    assert samples_beyond(99, 0.9) == 9
    assert not supported(99, 0.9)
    assert samples_beyond(16, 0.9) == 1
    assert not supported(16, 0.9)
    assert supported(20, 0.5)
    assert not supported(19, 0.5)


def test_median_of_passes():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


# -- reference samples ----------------------------------------------------------

def test_samples_are_taken_out_of_the_intervals_they_fell_in():
    ops = [(0.0, 1.0), (2.0, 5.0), (6.0, 7.0)]
    samples = [(0.5, 0.75), (1.5, 1.75), (3.0, 3.5), (4.0, 4.25), (7.5, 8.0)]
    assert without_samples(ops, samples) == [0.75, 2.25, 1.0]
    assert without_samples([(0.0, 8.0)], samples) == [6.25]
    assert without_samples(ops, []) == [1.0, 3.0, 1.0]


def test_sampler_times_chunks_while_running():
    import time

    with Sampler() as sampler:
        deadline = time.perf_counter() + 0.35
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.samples) >= 2
    assert all(start < end for start, end in sampler.samples)
    assert chunk() == chunk()


# -- failure counting ---------------------------------------------------------

def test_fail_ratio_counts_mismatches_and_exceptions():
    from workloads import DeepEmbed

    # an op that raised left its exception where its image belongs
    w = DeepEmbed()
    w.input_seed = 0
    w.points = [Fraction(0), Fraction(1), Fraction(2)]
    w.images = [Fraction(0), ZeroDivisionError("boom"), Fraction(5)]
    checks = Checks()
    w.verify(checks)
    # 3 ops (1 raised), 2 adjacent pairs (both touch the failed op), 1 digest
    assert (checks.attempted, checks.failed) == (6, 4)
    assert fail_ratio(checks.failed, checks.attempted) == 4 / 6
    assert checks.first_failures[0] == "eval raised ZeroDivisionError('boom')"


def test_fail_ratio_needs_attempts():
    assert fail_ratio(0, 5) == 0
    with pytest.raises(ValueError):
        fail_ratio(0, 0)
    with pytest.raises(ValueError):
        fail_ratio(3, 2)


# -- spans and self time ------------------------------------------------------

def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.wrap("leaf", lambda: clock.advance(2))

    def body():
        clock.advance(1)
        leaf()
        clock.advance(3)
        leaf()

    outer = tracer.wrap("outer", body)
    tracer.op = 7
    outer()
    assert tracer.calls("outer") == 1
    assert tracer.self_s("outer") == 4  # 8 s span, 4 s in children
    assert tracer.calls("leaf") == 2
    assert tracer.self_s("leaf") == 4
    names = [(s[0], s[1], s[2], s[4], s[5]) for s in tracer.spans]
    # spans close child first; parents are span ids, op ids are kept
    outer_id = next(s[3] for s in tracer.spans if s[0] == "outer")
    assert names == [("leaf", 1, 3, outer_id, 7), ("leaf", 6, 8, outer_id, 7),
                     ("outer", 0, 8, -1, 7)]


def test_direct_recursion_folds_into_one_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def countdown(n):
        clock.advance(1)
        if n:
            traced(n - 1)

    traced = tracer.wrap("countdown", countdown)
    traced(3)
    assert tracer.calls("countdown") == 1
    assert tracer.self_s("countdown") == 4


def test_iterator_spans_count_items():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    child = tracer.wrap("child", lambda: clock.advance(1))

    def gen(n):
        for i in range(n):
            clock.advance(2)
            child()
            yield i

    traced = tracer.wrap_iter("gen", gen)
    assert list(traced(3)) == [0, 1, 2]
    assert tracer.counts["gen.items"] == 3
    assert tracer.calls("gen") == 4  # three items and the final StopIteration
    assert tracer.self_s("gen") == 6
    assert tracer.calls("child") == 3


def test_span_cap_keeps_stats_complete():
    tracer = Tracer(clock=FakeClock(), span_cap=2)
    f = tracer.wrap("f", lambda: None)
    for _ in range(5):
        f()
    assert len(tracer.spans) == 2
    assert tracer.n_spans == 5
    assert tracer.calls("f") == 5


def test_install_patches_every_importer_and_counts_extensions():
    from qendo import lazyiso, ratcore, topology
    original = ratcore.rat_index
    tracer = Tracer()
    inst = install(tracer)
    try:
        # lazyiso and topology imported these names from ratcore
        assert lazyiso.rat_index is ratcore.rat_index is topology.rat_index
        assert ratcore.rat_index is not original
        iso = lazyiso.build(lazyiso.FullQ(), lazyiso.FullQ())
        for n in range(20):
            iso.eval_fwd(ratcore.nth_rational(n))
        for n in range(20):
            iso.eval_fwd(ratcore.nth_rational(n))
        assert tracer.counts["lazyiso.isos"] == 1
        assert tracer.calls("lazyiso.eval") == 40
        assert tracer.calls("lazyiso.extend") == 20
        assert tracer.counts["lazyiso.candidates"] >= 20
        assert tracer.maxima["lazyiso.memo_max"] == 20
        assert tracer.calls("ratcore.nth_rational") == 40
        assert tracer.counts["ratcore.enumerated_in_interval.items"] >= 20
        assert ratcore.simplest_between(Fraction(1, 3), Fraction(1, 2)) == Fraction(2, 5)
        assert tracer.calls("ratcore.simplest_between") == 1
    finally:
        inst.remove()
    assert ratcore.rat_index is original is lazyiso.rat_index is topology.rat_index
