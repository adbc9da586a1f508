"""Command-line driver: generate, solve, certify, inspect, and draw.

Exit codes: 0 success, 1 a check failed or the run could not complete,
2 usage or input problems: a file that cannot be opened, for reading or
writing, a malformed input file, or an invalid body.
PIERCE_LOG_LEVEL (error, info, debug) controls verbosity on stderr; any
other value is named in one warning line and taken as error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .errors import InvalidBodyError, PierceError
from .instances import (
    gallery7,
    gen_clustered,
    gen_pairwise,
    load_instance,
    save_instance,
    write_text,
)
from .meetgraph import build_meet_graph, turan_pair_check
from .pipeline import PATHS, brute_min_transversal, run_pipeline, validate
from .reports import load_report, save_report, verify_report
from .svg import render_svg
from .witness import is_spread_out, witness_list

logger = logging.getLogger("pierce")

_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    name = os.environ.get("PIERCE_LOG_LEVEL") or "error"
    if (level := _LEVELS.get(name.strip().lower())) is None:
        print(f"warning: PIERCE_LOG_LEVEL {name!r} is not error, info or debug", file=sys.stderr)
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    logger.setLevel(level or logging.ERROR)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subparsers, that reads any
    argument float() takes as a value: argparse itself takes only plain
    decimals such as -0.5 for negative numbers, and reads -1e5 or -inf as
    an unknown option, so that --delta -1e5 lacked its value."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pierce",
        description="Small transversals for convex bodies meeting on a circle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each kind parses only the options it reads, so argparse rejects the others.
    kinds = sub.add_parser("gen", help="emit a generated instance").add_subparsers(
        dest="kind", required=True)
    pairwise = kinds.add_parser("pairwise", help="bodies that meet pairwise")
    clustered = kinds.add_parser("clustered", help="bodies in p - 1 clusters")
    gallery = kinds.add_parser("gallery", help="the seven triangles")
    for kind in (pairwise, clustered, gallery):
        kind.add_argument("-o", "--output", help="instance file (default stdout)")
    for kind in (pairwise, clustered):
        kind.add_argument("--n", type=int, default=8, help="number of bodies (default 8)")
        kind.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    clustered.add_argument("--p", type=int, default=3, help="meeting condition size (default 3)")
    gallery.add_argument("--delta", type=float, default=0.3, help="corner nudge (default 0.3)")

    solve = sub.add_parser("solve", help="run the full rounding pipeline")
    solve.add_argument("instance")
    solve.add_argument("-o", "--output", help="report file (default stdout)")

    oracle = sub.add_parser("oracle", help="exact minimum transversal by search")
    oracle.add_argument("instance")
    oracle.add_argument("--kmax", type=int, default=0, help="size cap (default 0: n)")

    verify = sub.add_parser("verify", help="recheck a report against its instance")
    verify.add_argument("instance")
    verify.add_argument("report")

    plot = sub.add_parser("plot", help="draw an instance (and report) as SVG")
    plot.add_argument("instance")
    plot.add_argument("report", nargs="?")
    plot.add_argument("-o", "--output", help="svg file (default stdout)")

    stats = sub.add_parser("stats", help="witness-list diagnostics")
    stats.add_argument("instance")
    stats.add_argument("--alpha", type=float, default=0.027)

    return parser


def _cmd_gen(args) -> int:
    if args.kind == "pairwise":
        instance = gen_pairwise(args.n, seed=args.seed)
    elif args.kind == "clustered":
        instance = gen_clustered(args.p, args.n, seed=args.seed)
    else:
        instance = gallery7(delta=args.delta)
    logger.info("generated %s with %d bodies", args.kind, len(instance.bodies))
    save_instance(instance, args.output)
    return 0


def _cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    report = run_pipeline(instance.bodies, instance.curve, instance.p)
    for name, value in report.flags.items():
        logger.info("flag %s = %s", name, value)
    save_report(report, args.output)
    if not report.flags.get("all_bodies_hit", False):
        logger.error("output transversal does not hit every body")
        return 1
    return 0


def _cmd_oracle(args) -> int:
    if args.kmax < 0:
        raise ValueError(f"--kmax must be at least 0 (0 means n), not {args.kmax}")
    instance = load_instance(args.instance)
    k_max = args.kmax if args.kmax > 0 else len(instance.bodies)
    logger.info("searching transversals up to size %d", k_max)
    # The search runs in the curve's frame, as solve does, and logs its
    # points in the input's, at full precision.
    family = validate(instance.bodies, instance.curve, instance.p)[0]
    best = brute_min_transversal(family, k_max)
    if best is None:
        print("none")
    else:
        print(len(best))
        for x, y in instance.curve.from_unit(best):
            logger.info("point %r %r", x, y)
    return 0


def _cmd_verify(args) -> int:
    instance = load_instance(args.instance)
    report = load_report(args.report)
    failures = verify_report(instance, report)
    if failures:
        for line in failures:
            print(f"FAIL {line}")
        return 1
    print("ok")
    return 0


def _cmd_plot(args) -> int:
    instance = load_instance(args.instance)
    points = None
    if args.report:
        report = load_report(args.report)
        if not isinstance(report, dict) or "transversal" not in report:
            raise ValueError("report has no 'transversal' key")
        *_, what, ok = PATHS["transversal"]
        if not ok(report["transversal"]):
            raise ValueError(f"report 'transversal' is not {what}")
        points = [tuple(pt) for pt in report["transversal"]]
    write_text(render_svg(instance, points), args.output)
    return 0


def _cmd_stats(args) -> int:
    # is_spread_out checks alpha too, but runs only when some pair meets
    if not 0.0 < args.alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    instance = load_instance(args.instance)
    n_bodies = len(instance.bodies)
    family, _, _, arcs, _ = validate(instance.bodies, instance.curve, instance.p)
    graph = build_meet_graph(family, arcs=arcs)
    q = witness_list(arcs, graph.adj)
    spread = sum(1 for color in range(n_bodies)
                 if len(q) and is_spread_out(q.occurrences(color), len(q), args.alpha))
    meets, bound, ok = turan_pair_check(graph, instance.p)
    print(f"bodies={n_bodies} p={instance.p}")
    print(f"witnesses N={len(q)}")
    print(f"spread_out {spread}/{n_bodies} at alpha={args.alpha}")
    print(f"turan meets={meets} bound={bound} ok={'yes' if ok else 'no'}")
    return 0


_DISPATCH = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "verify": _cmd_verify,
    "plot": _cmd_plot,
    "stats": _cmd_stats,
}


def cli_run(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _DISPATCH[args.command](args)
    except OSError as exc:
        print(f"error: cannot open {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed input file: {exc}", file=sys.stderr)
        return 2
    except (ValueError, InvalidBodyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PierceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
