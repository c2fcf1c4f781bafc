"""In-memory span tracing of qendo's public functions, installed from outside.

`install` replaces each traced function with a wrapper in every qendo
module that holds a reference to it (``lazyiso`` and ``topology`` import
``ratcore`` functions by name), and each traced method on its class.  The
package source is not touched.  A span records name, start, end, parent
and op id; self time is a span's duration minus the durations of its
child spans, accumulated as spans close.  Everything runs on one thread.

A direct recursive call (``simplest_between`` calls itself) is folded into
its caller's span, so ``calls`` counts calls made from outside the function.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

SPAN_CAP = 100_000  # span records kept for the spans file; stats cover all

# (span name, module, attribute path) of each traced callable
FUNCTIONS = (
    ("ratcore.nth_rational", "qendo.ratcore", "nth_rational"),
    ("ratcore.rat_index", "qendo.ratcore", "rat_index"),
    ("ratcore.simplest_between", "qendo.ratcore", "simplest_between"),
    ("ratcore.colour_witness", "qendo.ratcore", "colour_witness"),
    ("ratcore.merge_intervals", "qendo.ratcore", "merge_intervals"),
    ("lazyiso.eval", "qendo.lazyiso", "LazyIso.eval_fwd"),
    ("lazyiso.eval", "qendo.lazyiso", "LazyIso.eval_bwd"),
    ("endo.compose", "qendo.endo", "compose"),
    ("endo.canonical", "qendo.endo", "PiecewiseEndo.canonical"),
    ("endo.classify", "qendo.endo", "classify"),
    ("endo.point_preimage", "qendo.endo", "PiecewiseEndo.point_preimage"),
    ("endo.eval", "qendo.endo", "PiecewiseEndo.eval"),
    ("endo.epi_mono_factorize", "qendo.endo", "epi_mono_factorize"),
    ("generic.embed", "qendo.generic", "DirectCert._embed"),
    ("generic.class_of", "qendo.generic", "DirectCert.class_of"),
    ("generic.p_check", "qendo.generic", "p_check"),
    ("generic.extend_pair", "qendo.generic", "extend_pair"),
    ("generic.recover_witness", "qendo.generic", "recover_witness"),
    ("partialmap.from_pairs", "qendo.partialmap", "FinitePartialMap.from_pairs"),
    ("actions.act", "qendo.actions", "act"),
    ("clone.preserves_either_equal", "qendo.clone", "preserves_either_equal"),
    ("topology.dist", "qendo.topology", "dist"),
    ("topology.automorphism_near", "qendo.topology", "automorphism_near"),
    ("cli.main", "qendo.cli", "main"),
)

# generators: every next() is a span, and each item drawn is counted
GENERATORS = (
    ("ratcore.enumerated_in_interval", "qendo.ratcore", "enumerated_in_interval"),
    ("generic.image_points_between", "qendo.generic", "GenericCert.image_points_between"),
)


class Tracer:
    """Spans kept in memory; per-name calls, self time and items."""

    def __init__(self, clock=time.perf_counter, span_cap=SPAN_CAP):
        self.clock = clock
        self.span_cap = span_cap
        self.reset()

    def reset(self):
        self.stack = []  # open spans: [name, child seconds, span id, parent id]
        self.stats = {}  # name -> [calls, self seconds]
        self.counts = Counter()
        self.maxima = Counter()
        self.spans = []  # (name, start, end, span id, parent id, op)
        self.n_spans = 0
        self.op = -1
        self.origin = self.clock()

    def open(self, name):
        parent = self.stack[-1][2] if self.stack else -1
        frame = [name, 0.0, self.n_spans, parent]
        self.n_spans += 1
        self.stack.append(frame)
        return frame, self.clock()

    def close(self, frame, start):
        end = self.clock()
        self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][1] += duration
        stat = self.stats.get(frame[0])
        if stat is None:
            stat = self.stats[frame[0]] = [0, 0.0]
        stat[0] += 1
        stat[1] += duration - frame[1]
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[0], start - self.origin, end - self.origin,
                               frame[2], frame[3], self.op))

    def wrap(self, name, fn):
        """fn inside a span called name."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame, start = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame, start)

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name, fn):
        """fn returns an iterator; each next() on it is a span called name."""
        tracer = self

        def traced(*args, **kwargs):
            return tracer._iterate(name, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def _iterate(self, name, it):
        items = name + ".items"
        while True:
            frame, start = self.open(name)
            try:
                x = next(it)
            except StopIteration:
                self.close(frame, start)
                return
            except BaseException:
                self.close(frame, start)
                raise
            self.close(frame, start)
            self.counts[items] += 1
            yield x

    def counted(self, key, it):
        for x in it:
            self.counts[key] += 1
            yield x

    def calls(self, name):
        return self.stats.get(name, (0, 0.0))[0]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0))[1]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_s,end_s,span,parent,op\n")
            for name, start, end, sid, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{sid},{parent},{op}\n")


def _resolve(module, path):
    owner = sys.modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Installation:
    """The replacements `install` made, so that `remove` can undo them."""

    def __init__(self):
        self.undo = []

    def set(self, owner, attr, value):
        self.undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self):
        for owner, attr, old in reversed(self.undo):
            setattr(owner, attr, old)
        self.undo.clear()


def _qendo_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qendo" or name.startswith("qendo."))]


def _replace(inst, module, path, make):
    owner, attr = _resolve(module, path)
    raw = owner.__dict__[attr]
    if isinstance(raw, staticmethod):
        inst.set(owner, attr, staticmethod(make(raw.__func__)))
        return
    new = make(raw)
    if isinstance(owner, type):
        inst.set(owner, attr, new)
        return
    # a module function: replace it wherever it was imported by name
    for mod in _qendo_modules():
        for name, value in list(vars(mod).items()):
            if value is raw:
                inst.set(mod, name, new)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def install(tracer: Tracer) -> Installation:
    """Trace qendo's public functions; every qendo module must be imported."""
    import qendo.cli  # noqa: F401  (pulls in every module)
    from qendo import lazyiso

    inst = Installation()
    for name, module, path in FUNCTIONS:
        _replace(inst, module, path,
                 lambda fn, name=name: tracer.wrap(name, fn))
    for name, module, path in GENERATORS:
        _replace(inst, module, path,
                 lambda fn, name=name: tracer.wrap_iter(name, fn))

    # extensions, memo size and iso count
    traced_extend = tracer.wrap("lazyiso.extend", lazyiso.LazyIso._extend)
    extend_code = lazyiso.LazyIso._extend.__code__

    def extend(iso, el, side):
        try:
            return traced_extend(iso, el, side)
        finally:
            size = len(iso._pairs)
            if size > tracer.maxima["lazyiso.memo_max"]:
                tracer.maxima["lazyiso.memo_max"] = size

    inst.set(lazyiso.LazyIso, "_extend", extend)
    init = lazyiso.LazyIso.__init__

    def counted_init(iso, *args, **kwargs):
        tracer.counts["lazyiso.isos"] += 1
        init(iso, *args, **kwargs)

    inst.set(lazyiso.LazyIso, "__init__", counted_init)

    # candidates: elements drawn from the stream an extension scans, i.e.
    # from a gap stream or candidate stream requested by _extend itself
    def outermost(fn):
        def stream(*args, **kwargs):
            it = fn(*args, **kwargs)
            if it is not None and sys._getframe(1).f_code is extend_code:
                return tracer.counted("lazyiso.candidates", it)
            return it
        return stream

    for base, method in ((lazyiso.OrderSpec, "enum_in_gap"),
                         (lazyiso.Constraint, "candidate_stream")):
        for cls in [base] + _subclasses(base):
            if method in cls.__dict__:
                inst.set(cls, method, outermost(cls.__dict__[method]))
    return inst


def time_suites(on_suite, tracer=None):
    """Wrap the CLI's run_suite so on_suite(name, start, end) sees each
    suite call; cheap enough for untraced passes.  With a tracer, each
    suite is also a span and its position is the op id."""
    from qendo import cli

    inst = Installation()
    run_suite = cli.run_suite
    if tracer is not None:
        run_suite = tracer.wrap("suites", run_suite)
    index = [0]

    def timed(name, cfg=None):
        if tracer is not None:
            tracer.op = index[0]
        index[0] += 1
        start = time.perf_counter()
        try:
            return run_suite(name, cfg)
        finally:
            on_suite(name, start, time.perf_counter())

    inst.set(cli, "run_suite", timed)
    return inst


def _mean_us(tracer, name):
    calls = tracer.calls(name)
    return tracer.self_s(name) / calls * 1e6 if calls else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass (values only; units come from
    BENCHMARK.json)."""
    m = {}
    for fn in ("nth_rational", "rat_index", "simplest_between",
               "colour_witness", "merge_intervals"):
        name = f"ratcore.{fn}"
        m[f"{name}.calls"] = tracer.calls(name)
        m[f"{name}.self_s"] = tracer.self_s(name)
    m["ratcore.enumerated_in_interval.items"] = \
        tracer.counts["ratcore.enumerated_in_interval.items"]
    m["ratcore.enumerated_in_interval.self_s"] = \
        tracer.self_s("ratcore.enumerated_in_interval")

    evals = tracer.calls("lazyiso.eval")
    extensions = tracer.calls("lazyiso.extend")
    candidates = tracer.counts["lazyiso.candidates"]
    m["lazyiso.isos"] = tracer.counts["lazyiso.isos"]
    m["lazyiso.evals"] = evals
    m["lazyiso.extensions"] = extensions
    m["lazyiso.hit_ratio"] = (evals - extensions) / evals if evals else 0.0
    m["lazyiso.candidates"] = candidates
    m["lazyiso.accept_ratio"] = extensions / candidates if candidates else 0.0
    m["lazyiso.memo_max"] = tracer.maxima["lazyiso.memo_max"]
    m["lazyiso.eval.self_s"] = tracer.self_s("lazyiso.eval")
    m["lazyiso.extend.self_s"] = tracer.self_s("lazyiso.extend")

    for fn in ("compose", "canonical", "classify", "point_preimage", "eval",
               "epi_mono_factorize"):
        name = f"endo.{fn}"
        m[f"{name}.calls"] = tracer.calls(name)
        m[f"{name}.self_s"] = tracer.self_s(name)
    for fn in ("embed", "class_of", "p_check", "extend_pair", "recover_witness"):
        name = f"generic.{fn}"
        m[f"{name}.calls"] = tracer.calls(name)
        m[f"{name}.self_s"] = tracer.self_s(name)
    m["generic.image_points_between.items"] = \
        tracer.counts["generic.image_points_between.items"]
    for name in ("partialmap.from_pairs", "actions.act",
                 "clone.preserves_either_equal", "topology.dist",
                 "topology.automorphism_near"):
        m[f"{name}.calls"] = tracer.calls(name)
        m[f"{name}.self_s"] = tracer.self_s(name)
    m["cli.main.self_s"] = tracer.self_s("cli.main")

    # per-call means for the rows of the ROADMAP Baseline table
    for name in ("ratcore.nth_rational", "ratcore.rat_index",
                 "ratcore.simplest_between", "lazyiso.extend"):
        m[f"{name}.mean_us"] = _mean_us(tracer, name)
    m["trace.spans"] = tracer.n_spans
    return m
