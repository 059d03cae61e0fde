"""Command-line entry point: generate, solve, sweep, demo.

Every command is deterministic given its flags (seeds default to fixed
constants, never the clock) and exits with a documented code:

    0  success                     5  BudgetExceeded
    2  invalid arguments           6  CapExceeded
    3  Infeasible                  7  ParseError / invariant violation
    4  Outage                      8  DecodeFailure
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, coding, coverage, engine, shuffle
from .errors import (
    BudgetExceeded,
    CapExceeded,
    DecodeFailure,
    Infeasible,
    InvariantViolation,
    Outage,
    ParseError,
)
from .instance import demo_instance, instance_to_text, load_instance, random_instance

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_OUTAGE = 4
EXIT_BUDGET = 5
EXIT_CAP = 6
EXIT_PARSE = 7
EXIT_DECODE = 8

_ERROR_CODES = [
    (ParseError, EXIT_PARSE),
    (InvariantViolation, EXIT_PARSE),
    (Infeasible, EXIT_INFEASIBLE),
    (Outage, EXIT_OUTAGE),
    (BudgetExceeded, EXIT_BUDGET),
    (CapExceeded, EXIT_CAP),
    (DecodeFailure, EXIT_DECODE),
]

DEFAULT_SEED = 1729


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexshuffle",
        description="Broadcast-shuffle solvers for randomly placed two-input workloads.",
    )
    parser.add_argument(
        "--config",
        help="JSON file of flag defaults (same keys as the long flag names); "
        "explicit flags win",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--m", type=int, help="number of messages")
    gen.add_argument("--n", type=int, help="number of nodes")
    gen.add_argument("--K", type=int, help="number of functions")
    gen.add_argument("--d", type=int, default=2, help="max functions per message")
    gen.add_argument("--p", type=float, help="allocation probability")
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--demo", action="store_true", help="write the fixed walkthrough instance")
    gen.add_argument("--out", help="output path (default stdout)")

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("instance", help="instance file path")
    solve.add_argument("--budget", type=int, default=8, help="max exact broadcast-set size")
    solve.add_argument("--free-cap", type=int, default=20)
    solve.add_argument("--assignment-cap", type=int, default=100_000)
    solve.add_argument(
        "--no-greedy-fallback",
        action="store_true",
        help="fail with the BudgetExceeded exit code instead of falling back",
    )
    solve.add_argument(
        "--skip-coded", action="store_true", help="do not compute the coded optimum"
    )
    solve.add_argument(
        "--require-coded",
        action="store_true",
        help="fail with the CapExceeded exit code if the coded search is over cap",
    )
    solve.add_argument("--format", choices=("text", "json"), default="text")

    sweep = sub.add_parser("sweep", help="Monte Carlo sweep over allocation probabilities")
    sweep.add_argument("--m", type=int, required=True)
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--K", type=int, required=True)
    sweep.add_argument("--d", type=int, default=2)
    sweep.add_argument(
        "--p-values", required=True, help="comma-separated allocation probabilities"
    )
    sweep.add_argument("--trials", type=int, default=200)
    sweep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sweep.add_argument(
        "--compare-fixed",
        action="store_true",
        help="add columns for pre-placed (placement-blind) assignments",
    )
    sweep.add_argument("--fixed-nodes-per-function", type=int, default=1)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", help="output path (default stdout)")

    demo = sub.add_parser("demo", help="run the common-friends walkthrough")
    demo.add_argument(
        "--plan",
        choices=("default", "empty"),
        default="default",
        help="'default' is the two-broadcast plan; 'empty' broadcasts nothing",
    )
    demo.add_argument("--verbose", action="store_true", help="print the full transcript")

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    probe, _ = parser.parse_known_args(argv)
    if getattr(probe, "config", None):
        with open(probe.config, "r", encoding="utf-8") as fh:
            defaults = json.load(fh)
        for action in parser._subparsers._group_actions[0].choices.values():
            known = {a.dest for a in action._actions}
            action.set_defaults(**{k: v for k, v in defaults.items() if k in known})
    return parser.parse_args(argv)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args) -> int:
    if args.demo:
        instance = demo_instance()
    else:
        for field in ("m", "n", "K", "p"):
            if getattr(args, field) is None:
                print(f"gen: --{field} is required without --demo", file=sys.stderr)
                return EXIT_USAGE
        if not 0.0 <= args.p <= 1.0 or args.m < 1 or args.n < 1 or args.K < 0:
            print("gen: parameters out of range", file=sys.stderr)
            return EXIT_USAGE
        instance = random_instance(args.m, args.n, args.K, args.d, args.p, args.seed)
    _emit(instance_to_text(instance), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = load_instance(args.instance)
    report: dict[str, object] = {
        "uncovered": coverage.uncovered_count(instance),
    }
    try:
        plan = shuffle.min_raw_broadcasts(instance, budget=args.budget)
        report["raw_broadcasts"] = plan.size
        report["raw_broadcast_messages"] = list(plan.broadcast_messages)
        report["raw_solver"] = "exact"
    except BudgetExceeded:
        if args.no_greedy_fallback:
            raise
        plan = shuffle.greedy_raw_broadcasts(instance)
        report["raw_broadcasts"] = plan.size
        report["raw_broadcast_messages"] = list(plan.broadcast_messages)
        report["raw_solver"] = "greedy"
    inter = shuffle.min_intermediate_broadcasts(instance)
    report["intermediate_broadcasts"] = inter.total
    if not args.skip_coded:
        try:
            report["coded_broadcasts"] = coding.optimal_coded_flexible(
                instance,
                assignment_cap=args.assignment_cap,
                free_cap=args.free_cap,
            )
        except CapExceeded as exc:
            if args.require_coded:
                raise
            report["coded_broadcasts"] = None
            report["coded_skipped"] = str(exc)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for key, value in report.items():
            if isinstance(value, list):
                value = " ".join(str(v) for v in value)
            print(f"{key} {value}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        p_values = [float(tok) for tok in args.p_values.split(",") if tok]
    except ValueError:
        print("sweep: --p-values must be comma-separated floats", file=sys.stderr)
        return EXIT_USAGE
    points = analysis.sweep(
        configs=[(args.m, args.n, args.K, args.d)],
        p_values=p_values,
        trials=args.trials,
        seed=args.seed,
        compare_fixed=args.compare_fixed,
        nodes_per_function=args.fixed_nodes_per_function,
    )
    if args.format == "json":
        import math as _math

        rows = [
            {
                k: (None if isinstance(v, float) and _math.isnan(v) else v)
                for k, v in sorted(vars(pt).items())
            }
            for pt in points
        ]
        text = json.dumps({"schema": analysis.CSV_SCHEMA_VERSION, "points": rows}, indent=2) + "\n"
    else:
        text = analysis.sweep_to_csv(points)
    _emit(text, args.out)
    return EXIT_OK


def cmd_demo(args) -> int:
    try:
        transcript = engine.run_demo(plan=args.plan)
    except DecodeFailure as exc:
        print("FAIL")
        for node, func, msg in exc.failures:
            print(f"undecodable node={node} func={func} msg={msg}")
        return EXIT_DECODE
    if args.verbose:
        sys.stdout.write(transcript.render())
    else:
        print(f"transmissions {len(transcript.transmissions)}")
        for k in sorted(transcript.outputs):
            print(f"output {k} {','.join(transcript.outputs[k])}")
    print("PASS")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = _apply_config(parser, list(sys.argv[1:] if argv is None else argv))
    handlers = {"gen": cmd_gen, "solve": cmd_solve, "sweep": cmd_sweep, "demo": cmd_demo}
    try:
        return handlers[args.command](args)
    except tuple(cls for cls, _ in _ERROR_CODES) as exc:
        for cls, code in _ERROR_CODES:
            if isinstance(exc, cls):
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                return code
        raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
