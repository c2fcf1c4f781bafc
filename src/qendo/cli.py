"""Command-line harness.

Subcommands:
    classify FILE    classification of a piecewise map with witnesses
    factorize FILE   split a map into spread and collapse parts
    suite NAME       run a seeded property suite (or "all")
    generic VARIANT  build a certified generic embedding and show its start
    act ...          push an orbit point through a map over a forest

Global flags (before the subcommand): --seed, --budget, --format
text|rows.  Suite headers also print the ultrametric probe depth, which is
fixed at topology.N_MAX.  Exit status is 0 iff nothing failed, 2 for a
usage or parse error, 3 when a bounded search reached its cap, 141 (128 +
SIGPIPE, as a shell reports a process a closed pipe stopped) when stdout
was closed, as by `| head -1`.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

from .actions import LabelledForest, OrbitPoint, act
from .endo import PiecewiseEndo, cancellability_witness, classify, epi_mono_factorize
from .generic import VARIANTS, generic_embedding
from .ratcore import Rat, SearchExhausted, nth_rational, parse_rat
from .suites import ORBIT_RANK_LIMIT, SUITE_NAMES, RunConfig, run_suite

__all__ = ["main", "build_parser"]


def natural(text: str) -> int:
    """argparse type for a count: an integer >= 0."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qendo",
        description="order endomorphisms of the rationals: classification, "
                    "factorization, certified generic embeddings, forest "
                    "actions, and seeded property suites")
    ap.add_argument("--seed", type=int, default=20260816,
                    help="seed for every randomized corpus (default 20260816)")
    ap.add_argument("--budget", type=natural, default=300,
                    help="rationals factorize checks its parts on; suites "
                         "print it in their header but do not read it "
                         "(default 300)")
    ap.add_argument("--format", choices=("text", "rows"), default="text",
                    dest="fmt", help="report style (default text)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a piecewise map file")
    p.add_argument("file", help="map file: one 'interval : slope*x + c' per line")

    p = sub.add_parser("factorize",
                       help="factor a map through a strictly monotone part")
    p.add_argument("file", help="map file")

    p = sub.add_parser("suite", help="run a property suite")
    p.add_argument("name", help=f"one of {', '.join(SUITE_NAMES)}, or 'all'")
    p.add_argument("--forest", default=None, metavar="FILE",
                   help="extra forest file for the actions corpus")

    p = sub.add_parser("generic",
                       help="build a certified generic embedding")
    p.add_argument("variant", choices=VARIANTS)
    p.add_argument("--points", type=natural, default=10,
                   help="how many image points to display (default 10)")

    p = sub.add_parser("act", help="act on an orbit point")
    p.add_argument("forest", help="forest file: 'id parent label' per line")
    p.add_argument("map", help="map file")
    p.add_argument("node", help="node carrying the point")
    p.add_argument("set", nargs="?", default="",
                   help="comma-separated rationals, e.g. '0,1/2' (size = node label)")
    return ap


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_map(path: str) -> PiecewiseEndo:
    return PiecewiseEndo.parse(_read(path))


def _union_str(ivs) -> str:
    return " u ".join(str(iv) for iv in ivs)


def _kind_line(rep) -> str:
    kind = rep.kind
    if kind.constant:
        return (f"constant at {rep.constant_value}; "
                f"missing {_union_str(rep.missing)}")
    if kind.injective and kind.surjective:
        return "automorphism"
    if kind.injective:
        return f"injective, not surjective; missing {_union_str(rep.missing)}"
    if kind.surjective:
        return "surjective, not injective"
    return (f"neither injective nor surjective; "
            f"missing {_union_str(rep.missing)}")


def cmd_classify(args, cfg: RunConfig) -> int:
    f = _load_map(args.file)
    rep = classify(f)
    wit = cancellability_witness(f)
    lines = ["map:"]
    lines += [f"  {ln}" for ln in str(f.canonical()).splitlines()]
    lines.append(f"classification: {_kind_line(rep)}")
    lines.append(f"image: {_union_str(rep.image)}")
    if rep.non_injective_pair is not None:
        x1, x2 = rep.non_injective_pair
        lines.append(
            f"collapsing pair: f({x1}) = f({x2}) = {f.eval(x1)}")
    if rep.non_surjective_value is not None:
        lines.append(
            f"value never attained: {rep.non_surjective_value}")
    if wit.left is None:
        lines.append("left-cancellation witness: none (map is injective)")
    else:
        c1, c2 = wit.left
        lines.append(
            "left-cancellation witness: constants at "
            f"{c1.eval(Rat(0))} and {c2.eval(Rat(0))} compose equally "
            "through the map")
    if wit.right is None:
        lines.append("right-cancellation witness: none (map is surjective)")
    else:
        lines.append(
            "right-cancellation witness: two maps with equal composites "
            f"after the map, differing at {rep.non_surjective_value}")
    print("\n".join(lines))
    return 0


def cmd_factorize(args, cfg: RunConfig) -> int:
    h = _load_map(args.file)
    fac = epi_mono_factorize(h)
    hc = h.canonical()
    probe = [nth_rational(i) for i in range(cfg.budget)]
    bad = [x for x in probe if fac.epi.eval(fac.mono.eval(x)) != hc.eval(x)]
    mono_vals = [fac.mono.eval(x) for x in sorted(probe[:40])]
    checked = len(mono_vals) > 1  # one sample cannot show strict monotonicity
    strictly = checked and all(a < b for a, b in zip(mono_vals, mono_vals[1:]))
    lines = ["input map:"]
    lines += [f"  {ln}" for ln in str(hc).splitlines()]
    if not checked:
        lines.append("spread part strictly monotone: not checked "
                     f"(needs 2 samples, has {len(mono_vals)})")
    else:
        lines.append("spread part strictly monotone: "
                     + (f"yes ({len(mono_vals)} sorted samples)" if strictly
                        else "NO"))
    if bad:
        lines.append(f"composite FAILED at {bad[0]}")
    elif not probe:
        lines.append("composite not verified (0 points)")
    else:
        lines.append(f"composite verified on {len(probe)} points")
    lines.append("memo snapshot:")
    lines += [f"  {ln}" for ln in fac.theta.memo_dump().splitlines()]
    print("\n".join(lines))
    return 0 if (strictly and not bad) else 1


def cmd_suite(args, cfg: RunConfig) -> int:
    if args.forest is not None:
        forest = LabelledForest.parse(_read(args.forest))
        for node, label in forest.label.items():
            if label > ORBIT_RANK_LIMIT:
                raise ValueError(f"node {node!r} has label {label}; orbit points are "
                                 f"drawn from {ORBIT_RANK_LIMIT} rationals, so a "
                                 f"label may be at most {ORBIT_RANK_LIMIT}")
        cfg = dataclasses.replace(cfg, extra_forest=forest)
    names: List[str] = list(SUITE_NAMES) if args.name == "all" else [args.name]
    results = [run_suite(n, cfg) for n in names]
    print("\n\n".join(r.render(cfg) for r in results))
    return 0 if all(r.ok for r in results) else 1


def cmd_generic(args, cfg: RunConfig) -> int:
    g, cert = generic_embedding(args.variant)
    order = cert.index_order
    lines = [f"certified generic embedding, variant {args.variant}"]
    for i in range(args.points):
        x = nth_rational(i)
        y = g.eval(x)
        q = cert.class_of(y)
        lines.append(f"  e({i}) = {x} -> {y}   "
                     f"class {order.format_el(q)} "
                     f"({cert.colour_of_index(q).name.lower()})")
    lines.append("memo snapshot:")
    lines += [f"  {ln}" for ln in cert.memo_snapshot().splitlines()]
    print("\n".join(lines))
    return 0


def cmd_act(args, cfg: RunConfig) -> int:
    forest = LabelledForest.parse(_read(args.forest))
    f = _load_map(args.map)
    vals = tuple(parse_rat(part.strip())
                 for part in args.set.split(",") if part.strip())
    try:
        p = OrbitPoint(args.node, vals)
    except ValueError as exc:  # a repeated value; name the set as typed
        raise ValueError(f"{exc} in the set {args.set!r}") from None
    q = act(forest, f, p)
    print(f"{p} -> {q}")
    return 0


_COMMANDS = {
    "classify": cmd_classify,
    "factorize": cmd_factorize,
    "suite": cmd_suite,
    "generic": cmd_generic,
    "act": cmd_act,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(seed=args.seed, budget=args.budget, fmt=args.fmt)
    try:
        return _COMMANDS[args.command](args, cfg)
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the
        # interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:  # ForestError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SearchExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
