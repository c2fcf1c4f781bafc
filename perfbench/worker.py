"""One pass of one workload, in a fresh process; prints one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is `setup` (set up only), `pass` (set up, then one timed pass) or
`trace` (the same pass with every traced qendo function wrapped in a span;
the span records go to perfbench/out/).  qendo is imported from the
checkout's src/ directory.  Times ending in `_raw_s` are as measured, less
the reference chunks that interrupted them; the others, per-layer times
included, are scaled to the reference speed (see reference.py).  A traced
pass takes no samples inside the pass; its speed is the mean of bursts
timed before and after it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import reference
from metrics import Checks, without_samples
from tracing import Tracer, install, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    workload = WORKLOADS[name]()

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import qendo.cli  # noqa: F401  (every qendo module)

    where = Path(qendo.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"qendo imported from {where}, not from {ROOT / 'src'}")
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        install(tracer)
    workload.setup(seed)
    setup_raw_s = time.perf_counter() - start
    result = {"input_seed": workload.input_seed, "setup_raw_s": setup_raw_s,
              "setup_s": setup_raw_s * reference.REF_S / reference.burst()}
    if mode == "trace":
        # spans must not contain reference chunks: time bursts around the pass
        before = reference.burst()
        tracer.reset()
        start, end, ops = workload.run(tracer)
        samples = []
        ref_s = (before + reference.burst()) / 2
    elif mode == "pass":
        with reference.Sampler() as sampler:
            start, end, ops = workload.run()
        samples = sampler.samples
        ref_s = (sum(e - s for s, e in samples) / len(samples) if samples
                 else reference.burst())
    if mode != "setup":
        wall_raw_s = without_samples([(start, end)], samples)[0]
        op_raw_s = without_samples(ops, samples)
        factor = reference.REF_S / ref_s
        checks = Checks()
        workload.verify(checks)
        result.update(
            wall_raw_s=wall_raw_s, wall_s=wall_raw_s * factor,
            op_raw_s=op_raw_s, op_s=[s * factor for s in op_raw_s],
            ref_chunk_s=ref_s,
            attempted=checks.attempted, failed=checks.failed,
            first_failures=checks.first_failures, digest=workload.digest)
        if name == "suite_all":
            suites = without_samples([(t0, t1) for _, t0, t1 in workload.suites], samples)
            result["suite_s"] = [(n, d * factor) for (n, _, _), d in zip(workload.suites, suites)]
        if tracer is not None:
            result["layers"] = {k: v * factor if k.endswith(("_s", "_us")) else v
                                for k, v in layer_metrics(tracer).items()}
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{name}-{seed}.csv"
            tracer.write_spans(spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
            result["spans_kept"] = len(tracer.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
