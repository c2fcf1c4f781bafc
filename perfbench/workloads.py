"""The three workloads: inputs made from a seed, one timed pass, checks.

Each workload maps the benchmark seed onto one of INPUT_SETS input sets,
so every run can compare its output digest with one recorded in
digests.json (see record_digests.py).  qendo is reached through module
attributes, never names imported here, so that a traced pass sees the
wrappers tracing.install puts in place.

The checks do not trust the code under test: suite reports are compared
byte for byte with recorded digests, embedding images are compared in
order, and piecewise maps are evaluated by the benchmark's own reference
evaluator over the piece tables it generated.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import time
from fractions import Fraction as F
from pathlib import Path

INPUT_SETS = 8
DIGESTS = Path(__file__).with_name("digests.json")

# suite_all: the CLI's default seed and seven more
SUITE_SEEDS = (20260816, 1, 2, 3, 4, 5, 6, 7)
# deep_embed: points per pass, drawn from the first DEEP_SPREAD * DEEP_POINTS
# enumeration indices
DEEP_POINTS = 6000
DEEP_SPREAD = 4
# wide_maps: maps per pass and pieces per map
WIDE_MAPS = 40
WIDE_PIECES = (20, 30, 40, 50, 60)  # map i has WIDE_PIECES[i % 5] pieces
WIDE_KINDS = ("injective", "surjective", "any")  # map i is of kind i % 3
WIDE_PROBES = 40
WIDE_FACTOR_PROBES = 10

_PROPERTY = re.compile(r"^  \[(PASS|FAIL)\] ", re.MULTILINE)


def recorded_digest(workload, input_seed):
    table = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    return table.get(workload, {}).get(str(input_seed))


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class SuiteAll:
    """`qendo --seed S suite all` in process, through qendo.cli.main.

    The op is the whole invocation, as a user runs it: the eight suites
    differ too much from each other, and from seed to seed, for
    percentiles over suite calls to mean anything.  Suite calls are timed
    for the per-layer report."""

    name = "suite_all"

    def setup(self, seed):
        from qendo import cli  # noqa: F401

        self.input_seed = SUITE_SEEDS[seed % INPUT_SETS]

    def run(self, tracer=None):
        from qendo import cli
        from tracing import time_suites

        self.suites = []
        inst = time_suites(lambda name, t0, t1: self.suites.append((name, t0, t1)), tracer)
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                self.status = cli.main(["--seed", str(self.input_seed), "suite", "all"])
        except Exception as exc:  # an exception is a failed check, not a crash
            self.status = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        inst.remove()
        self.report = out.getvalue()
        return start, end, [(start, end)]

    def verify(self, checks):
        checks.check(self.status == 0, f"exit status {self.status!r}")
        for status in _PROPERTY.findall(self.report):
            checks.check(status == "PASS", "a property FAILed")
        self.digest = sha256(self.report)
        checks.check(self.digest == recorded_digest(self.name, self.input_seed),
                     "report digest differs from the recorded one")


class DeepEmbed:
    """One certified generic embedding, evaluated at fresh rationals."""

    name = "deep_embed"

    def setup(self, seed):
        from qendo import generic, ratcore

        self.input_seed = seed % INPUT_SETS
        rng = random.Random(f"deep_embed:{self.input_seed}")
        indices = rng.sample(range(DEEP_SPREAD * DEEP_POINTS), DEEP_POINTS)
        self.points = [ratcore.nth_rational(i) for i in indices]
        self.g, self.cert = generic.generic_embedding("core")

    def run(self, tracer=None):
        g = self.g
        images = self.images = []
        ops = []
        clock = time.perf_counter
        start = clock()
        for i, x in enumerate(self.points):
            if tracer is not None:
                tracer.op = i
            t = clock()
            try:
                y = g.eval(x)
            except Exception as exc:  # counted as a failed op in verify
                y = exc
            ops.append((t, clock()))
            images.append(y)
        return start, clock(), ops

    def verify(self, checks):
        for y in self.images:
            checks.check(isinstance(y, F), f"eval raised {y!r}")
        pairs = sorted(zip(self.points, self.images))
        for (x1, y1), (x2, y2) in zip(pairs, pairs[1:]):
            ok = isinstance(y1, F) and isinstance(y2, F) and y1 < y2
            checks.check(ok, f"images not increasing at {x1} < {x2}")
        self.digest = sha256("\n".join(f"{x} {y}" for x, y in
                                       zip(self.points, self.images)))
        checks.check(self.digest == recorded_digest(self.name, self.input_seed),
                     "image digest differs from the recorded one")


def random_map(rng, n, kind):
    """Piece table of a weakly monotone map with n pieces: (lo, hi,
    lo_closed, hi_closed, slope, intercept) per piece, tiling the line.
    An injective map has no plateaus, a surjective one is continuous with
    sloped ends, and any other may have plateaus and jumps."""
    cuts = set()
    while len(cuts) < n - 1:
        d = rng.randint(1, 8)
        cuts.add(F(rng.randint(-40 * d, 40 * d), d))
    cuts = sorted(cuts)
    slopes = (F(1, 2), F(1), F(3, 2), F(2))
    table = []
    level = F(rng.randint(-20, 20), rng.randint(1, 4))
    lo, lo_closed = None, False
    for i in range(n):
        hi = cuts[i] if i < n - 1 else None
        flat_ok = kind == "any" or (kind == "surjective" and 0 < i < n - 1)
        slope = rng.choice(slopes + (F(0), F(0))) if flat_ok else rng.choice(slopes)
        anchor = lo if lo is not None else hi - 1
        intercept = level - slope * anchor
        hi_closed = hi is not None and rng.random() < 0.5
        table.append((lo, hi, lo_closed, hi_closed, slope, intercept))
        if hi is not None:
            jump = F(0) if kind == "surjective" else rng.choice((F(0), F(0), F(1, 3), F(2)))
            level = slope * hi + intercept + jump
            lo, lo_closed = hi, not hi_closed
    return table


def reference_eval(table, x):
    """The benchmark's own evaluation of a piece table at x."""
    for lo, hi, lo_closed, hi_closed, slope, intercept in table:
        above = lo is None or lo < x or (lo_closed and lo == x)
        below = hi is None or x < hi or (hi_closed and hi == x)
        if above and below:
            return slope * x + intercept
    raise ValueError(f"piece table does not cover {x}")


class WideMaps:
    """Piecewise maps with tens of pieces through the endo algebra."""

    name = "wide_maps"

    def setup(self, seed):
        from qendo import endo, ratcore, topology

        self.input_seed = seed % INPUT_SETS
        rng = random.Random(f"wide_maps:{self.input_seed}")
        # piece counts and kinds follow the map's position, not the seed,
        # so that every seed asks for the same amount of work
        self.tables = [random_map(rng, WIDE_PIECES[i % len(WIDE_PIECES)],
                                  WIDE_KINDS[i % len(WIDE_KINDS)])
                       for i in range(WIDE_MAPS)]
        self.maps = [
            endo.PiecewiseEndo(tuple(
                endo.Piece(ratcore.RatInterval(lo, hi, lc, hc), s, b)
                for lo, hi, lc, hc, s, b in table))
            for table in self.tables]
        half = WIDE_PROBES // 2
        self.probe = [ratcore.nth_rational(i) for i in range(half)] + [
            F(rng.randint(-45 * d, 45 * d), d)
            for d in (rng.randint(1, 9) for _ in range(WIDE_PROBES - half))]
        self.ctx = topology.UltraMetricContext()

    def run(self, tracer=None):
        from qendo import endo, topology

        maps, probe, ctx = self.maps, self.probe, self.ctx
        short = probe[:WIDE_FACTOR_PROBES]
        self.outputs = []
        ops = []
        clock = time.perf_counter
        start = clock()
        for i, f in enumerate(maps):
            if tracer is not None:
                tracer.op = i
            g = maps[(i + 1) % len(maps)]
            t = clock()
            try:
                rep = endo.classify(f)
                endo.cancellability_witness(f)
                fg = endo.compose(f, g)
                d = topology.dist(ctx, f, g)
                f_vals = [f.eval(x) for x in probe]
                fg_vals = [fg.eval(x) for x in probe]
                fac = endo.epi_mono_factorize(f)
                em_vals = [fac.epi.eval(fac.mono.eval(x)) for x in short]
                out = (rep, fg, d, f_vals, fg_vals, em_vals)
            except Exception as exc:  # counted as a failed op in verify
                out = exc
            ops.append((t, clock()))
            self.outputs.append(out)
        return start, clock(), ops

    def verify(self, checks):
        lines = []
        n = len(self.tables)
        for i, out in enumerate(self.outputs):
            if not checks.check(not isinstance(out, Exception), f"map {i} raised {out!r}"):
                lines.append(f"{i} raised")
                continue
            rep, fg, d, f_vals, fg_vals, em_vals = out
            f, g = self.tables[i], self.tables[(i + 1) % n]
            for x, fx, fgx in zip(self.probe, f_vals, fg_vals):
                want = reference_eval(f, x)
                checks.check(fx == want, f"map {i}: f({x})")
                checks.check(fgx == reference_eval(f, reference_eval(g, x)),
                             f"map {i}: compose at {x}")
            for x, emx in zip(self.probe, em_vals):
                checks.check(emx == reference_eval(f, x), f"map {i}: epi(mono({x}))")
            if d.index is not None:
                x = d.probe[0]
                checks.check(reference_eval(f, x) != reference_eval(g, x),
                             f"map {i}: dist witness {x} does not separate")
            lines.append(f"{i} {rep.kind} {rep.non_injective_pair} "
                         f"{rep.non_surjective_value} "
                         f"{' u '.join(str(iv) for iv in rep.image)} "
                         f"{d.index} {d.verdict}\n{fg}")
        self.digest = sha256("\n".join(lines))
        checks.check(self.digest == recorded_digest(self.name, self.input_seed),
                     "output digest differs from the recorded one")


WORKLOADS = {w.name: w for w in (SuiteAll, DeepEmbed, WideMaps)}
