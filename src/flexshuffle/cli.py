"""Command-line entry point: generate, solve, sweep, demo.

Every command is deterministic given its flags (seeds default to fixed
constants, never the clock) and exits with a documented code:

    0  success                     5  BudgetExceeded
    2  invalid arguments or files  6  CapExceeded
    3  Infeasible                  7  ParseError / invariant violation
    4  Outage                      8  DecodeFailure
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

from . import analysis, coding, engine
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
    (OSError, EXIT_USAGE),
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
        help="fail with the CapExceeded exit code if the coded search runs out of work",
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


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The command-line parser, built on the first call and never changed
    after, and a probe that reads only the ``--config`` path and the
    command with its arguments, as the parser splits them."""
    probe = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    probe.add_argument("--config")
    probe.add_argument("command", nargs=argparse.REMAINDER)
    return build_parser(), probe


def _parse(argv) -> argparse.Namespace:
    """Parse ``argv`` with the ``--config`` file's values placed as the
    command's flags right after it, so that explicit flags win and a flag
    the file supplies is no longer required.  Keys the command does not
    know, its positionals and its help are skipped."""
    parser, probe = _parsers()
    commands = parser._subparsers._group_actions[0].choices
    try:
        known, _ = probe.parse_known_args(argv)
    except argparse.ArgumentError:  # the parser reports it
        return parser.parse_args(argv)
    if known.config is None or not known.command or known.command[0] not in commands:
        return parser.parse_args(argv)
    try:
        with open(known.config, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"--config {known.config}: {exc}")
    if not isinstance(values, dict):
        parser.error(f"--config {known.config}: expected a JSON object")
    flags = [
        flag
        for action in commands[known.command[0]]._actions
        if action.option_strings and action.dest != "help" and action.dest in values
        for flag in _config_flags(parser, action, values[action.dest])
    ]
    at = len(argv) - len(known.command) + 1
    return parser.parse_args([*argv[:at], *flags, *argv[at:]])


def _config_flags(parser: argparse.ArgumentParser, action: argparse.Action, value) -> list[str]:
    """The command-line form of ``value`` from the config file, checked by
    the flag's ``type`` and ``choices`` as the command line would check it;
    a store_true flag takes only a JSON boolean.  Exits 2 naming the key
    otherwise."""
    flag = action.option_strings[-1]
    if action.nargs == 0:
        if isinstance(value, bool):
            return [flag] if value else []
    elif isinstance(value, (str, int, float)):
        with contextlib.suppress(TypeError, ValueError):
            converted = (action.type or str)(str(value))
            if action.choices is None or converted in action.choices:
                return [f"{flag}={value}"]
    parser.error(f"--config: invalid value {value!r} for {action.dest!r}")


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _in_range(m: int, n: int, K: int, d: int, p_values) -> bool:
    """m, n, d >= 1, K >= 0 and every p in [0, 1]; nan fails the test."""
    return min(m, n, d) >= 1 and K >= 0 and all(0.0 <= p <= 1.0 for p in p_values)


def cmd_gen(args) -> int:
    if args.demo:
        instance = demo_instance()
    else:
        for field in ("m", "n", "K", "p"):
            if getattr(args, field) is None:
                print(f"gen: --{field} is required without --demo", file=sys.stderr)
                return EXIT_USAGE
        if not _in_range(args.m, args.n, args.K, args.d, [args.p]):
            print("gen: parameters out of range", file=sys.stderr)
            return EXIT_USAGE
        instance = random_instance(args.m, args.n, args.K, args.d, args.p, args.seed)
    _emit(instance_to_text(instance), args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.budget < 0:
        print("solve: parameters out of range", file=sys.stderr)
        return EXIT_USAGE
    result = coding.solve(
        load_instance(args.instance), budget=args.budget,
        skip_coded=args.skip_coded, greedy_fallback=not args.no_greedy_fallback,
    )
    if args.require_coded and result.coded_refusal is not None:
        raise result.coded_refusal
    report: dict[str, object] = {
        "uncovered": result.raw.uncovered,
        "raw_broadcasts": result.raw.size,
        "raw_broadcast_messages": list(result.raw.broadcast_messages),
        "raw_solver": result.raw_solver,
        "intermediate_broadcasts": result.inter.total,
    }
    if not args.skip_coded:
        report["coded_broadcasts"] = None if result.coded is None else result.coded.count
    if result.coded_refusal is not None:
        report["coded_skipped"] = str(result.coded_refusal)
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
        p_values = [float(tok) for tok in args.p_values.split(",")]
    except ValueError:
        print("sweep: --p-values must be comma-separated floats", file=sys.stderr)
        return EXIT_USAGE
    C = args.fixed_nodes_per_function
    if (
        args.trials < 1 or C < 1 or (args.compare_fixed and args.K * C > args.n)
        or not _in_range(args.m, args.n, args.K, args.d, p_values)
    ):
        print("sweep: parameters out of range", file=sys.stderr)
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
        rows = [
            {
                k: (None if isinstance(v, float) and math.isnan(v) else v)
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
    args = _parse(list(sys.argv[1:] if argv is None else argv))
    handlers = {"gen": cmd_gen, "solve": cmd_solve, "sweep": cmd_sweep, "demo": cmd_demo}
    try:
        return handlers[args.command](args)
    except tuple(cls for cls, _ in _ERROR_CODES) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for cls, code in _ERROR_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
