"""qendo benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

    python3 perfbench/run.py --workload suite_all --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh process
(worker.py), because topology's tuple cache is process-global and a
`qendo` invocation pays a cold start.  Passes are single-threaded and run
one at a time.

--trace 0: timed passes until --seconds have gone by (at least two), plus
set-up-only processes until there are SETUPS set-ups; prints the
end-to-end metrics: medians over passes, and op latency percentiles over
the ops of all passes.  Times are scaled to the reference speed measured
during each pass (reference.py); the raw times are printed beside them.
--trace 1: one plain pass and one traced pass of the same inputs, whatever
--seconds says; prints the per-layer metrics of the traced pass, the
per-suite wall times and the raw reference chunk time of the plain one,
and trace.overhead_ratio, the traced wall time over the plain one.  These
times are scaled to the reference speed too.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it repeat every
metric by name and unit with its sample count, the Python version, nproc,
the seed and the op counts.  Exit status 0 means every pass ran; a pass
that crashes or hangs exits 1 without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from metrics import fail_ratio, median, percentile, samples_beyond, supported
from reference import REF_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 2
SETUPS = 5
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 150  # start no pass that would end past this, so runs end in time


class PassFailed(RuntimeError):
    pass


def spawn(workload, seed, mode):
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        # run() has killed the worker and waited for it
        raise PassFailed(f"{mode} pass exceeded {PASS_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{mode} pass exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(args):
    started = time.perf_counter()
    passes = []
    while len(passes) < MIN_PASSES or time.perf_counter() - started < args.seconds:
        elapsed = time.perf_counter() - started
        if passes and elapsed * (len(passes) + 1) / len(passes) > RUN_LIMIT_S:
            break
        passes.append(spawn(args.workload, args.seed, "pass"))
    setup_runs = passes + [spawn(args.workload, args.seed, "setup")
                           for _ in range(SETUPS - len(passes))]
    setups = [p["setup_s"] for p in setup_runs]
    raw_setups = [p["setup_raw_s"] for p in setup_runs]

    ops_ms = [s * 1e3 for p in passes for s in p["op_s"]]
    raw_ms = [s * 1e3 for p in passes for s in p["op_raw_s"]]
    n = len(passes)
    metrics = {
        "wall_s": (median([p["wall_s"] for p in passes]), "s",
                   f"median of {n} passes; raw "
                   f"{median([p['wall_raw_s'] for p in passes]):.4g} s"),
        "op_p50_ms": (percentile(ops_ms, 0.5), "ms",
                      f"{_tail_note(len(ops_ms), 0.5)}; raw {percentile(raw_ms, 0.5):.4g} ms"),
        "op_p90_ms": (percentile(ops_ms, 0.9), "ms",
                      f"{_tail_note(len(ops_ms), 0.9)}; raw {percentile(raw_ms, 0.9):.4g} ms"),
        "setup_s": (median(setups), "s",
                    f"median of {len(setups)} set-ups; raw {median(raw_setups):.4g} s"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB",
                        f"median of {n} passes"),
    }
    ref_ms = median([p["ref_chunk_s"] for p in passes]) * 1e3
    return passes, metrics, (f"{n} passes x {len(passes[0]['op_s'])} ops; reference "
                             f"chunk {ref_ms:.3f} ms (times scaled to {REF_S * 1e3:g} ms)")


def _tail_note(n, q):
    beyond = samples_beyond(n, q)
    note = f"n={n}, {beyond} samples beyond"
    return note if supported(n, q) else note + " (fewer than 10: unsupported)"


def per_layer(args):
    plain = spawn(args.workload, args.seed, "pass")
    traced = spawn(args.workload, args.seed, "trace")
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    suite_s = dict(plain.get("suite_s", ()))
    values = dict(traced["layers"])
    for name in units:
        if name.startswith("suites."):
            values[name] = suite_s.get(name.split(".")[1], 0.0)
    values["ref.chunk_ms"] = plain["ref_chunk_s"] * 1e3
    values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    plain_only = ("suites.", "ref.")
    metrics = {name: (values[name], units[name],
                      "plain pass" if name.startswith(plain_only) else "traced pass")
               for name in units}
    note = (f"plain {plain['wall_raw_s']:.3f} s, traced {traced['wall_raw_s']:.3f} s; "
            f"{traced['layers']['trace.spans']} spans, first {traced['spans_kept']} "
            f"in {traced['spans_file']}")
    return [plain, traced], metrics, note


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "qendo" / "__init__.py").is_file():
        print(f"error: no qendo package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        passes, metrics, note = (per_layer if args.trace else end_to_end)(args)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"qendo benchmark: workload {args.workload}, seed {args.seed} "
          f"(input seed {passes[0]['input_seed']}), trace {args.trace}, "
          f"python {platform.python_version()}, nproc {os.cpu_count()}")
    print(f"ops: {note}")
    width = max(len(name) for name in metrics)
    for name, (value, unit, how) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}  ({how})")
    print(f"  {'fail_ratio':<{width}}  {fail_ratio(failed, attempted):.6g}  "
          f"({failed} of {attempted} checks failed)")
    for p in passes:
        for what in p["first_failures"]:
            print(f"  FAILED: {what}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
