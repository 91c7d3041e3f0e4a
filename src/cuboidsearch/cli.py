"""Command-line interface.

Subcommands: identities, classify, coeffs, solve, verify, search.  All
rational arguments are exact "p/q" or integer strings; decimals are
rejected so no float ever enters the pipeline.  Arguments not in lowest
terms are reduced with a notice on stderr.  The identities module loads
only in the two subcommands that read it, identities and classify.

Exit codes:
  0  normal completion
  2  level-6 hit found under --stop-on-hit
  3  invalid input (malformed or out-of-domain arguments, usage errors)
  4  checkpoint/configuration mismatch
  5  I/O failure
  6  identity check failure
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .coefficients import (
    E21_FORMS,
    E21_PRINTED,
    E21DenominatorPole,
    diagonal_coefficients,
    diagonal_cubic,
    edge_coefficients,
    edge_cubic,
    eval_coefficients,
)
from .cubic import rational_roots
from .rationals import RationalParseError, format_rational, parse_rational
from .search import CheckpointMismatch, SearchSpace, run
from .singularity import classify
from .verifier import grade

EXIT_OK = 0
EXIT_HIT = 2
EXIT_INVALID = 3
EXIT_CHECKPOINT = 4
EXIT_IO = 5
EXIT_IDENTITY = 6

# search's range options; a negative value may follow one as its own argument
_BOUND_OPTIONS = ("--b-min", "--b-max", "--c-min", "--c-max")
_FACTOR_KEYS = ("first_curve", "second_curve", "third_variety")
_COEFF_ORDER = ("e10", "e20", "e30", "e01", "e02", "e03", "e21", "e11", "e12")


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2, which is reserved for search hits."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _join_negative_bounds(argv: list[str]) -> list[str]:
    """argv with each range option and a negative value after it joined, as --b-min=-3/2.

    argparse reads an argument that starts with "-" as an option unless it
    is a plain negative number such as -2, so it would refuse -3/2 there.
    An option may be abbreviated as argparse allows, to --b-mi at least.
    """
    joined = []
    for arg in argv:
        option = joined[-1] if joined else ""
        if (len(option) > 5 and any(name.startswith(option) for name in _BOUND_OPTIONS)
                and arg[:1] == "-" and arg[1:2].isdigit()):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _notice(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _rational(args, text: str) -> Fraction:
    value = parse_rational(text)
    if format_rational(value) != text.strip().lstrip("+"):
        _notice(args, f"notice: reduced {text} to {format_rational(value)}")
    return value


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.output_format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_identities(args) -> int:
    from .identities import run_identity_checks

    results = run_identity_checks()
    failed = False
    for result in results:
        if args.output_format == "json":
            print(
                json.dumps(
                    {
                        "identity": result.name,
                        "pass": result.passed,
                        "difference": result.detail,
                    },
                    sort_keys=True,
                )
            )
        elif result.passed:
            print(f"PASS {result.name}")
        else:
            print(f"FAIL {result.name}: difference = {result.detail}")
        failed = failed or not result.passed
    return EXIT_IDENTITY if failed else EXIT_OK


def cmd_classify(args) -> int:
    from .identities import factor_values

    b = _rational(args, args.b)
    c = _rational(args, args.c)
    flags = sorted(flag.value for flag in classify(b, c))
    values = factor_values(b, c)
    payload = {
        "b": format_rational(b),
        "c": format_rational(c),
        "flags": flags,
    }
    lines = ["flags: " + (", ".join(flags) if flags else "(none)")]
    for key, value in zip(_FACTOR_KEYS, values):
        payload[key] = format_rational(value)
        lines.append(f"{key}={format_rational(value)}")
    _emit(args, payload, lines)
    return EXIT_OK


def _refuse_singular(b: Fraction, c: Fraction) -> bool:
    flags = classify(b, c)
    if flags:
        print("singular: " + ", ".join(sorted(flag.value for flag in flags)), file=sys.stderr)
    return bool(flags)


def cmd_coeffs(args) -> int:
    b = _rational(args, args.b)
    c = _rational(args, args.c)
    if _refuse_singular(b, c):
        return EXIT_INVALID
    try:
        cs = eval_coefficients(b, c, args.e21_form)
    except E21DenominatorPole:
        print(
            "e21 denominator (printed form) vanishes here; "
            "re-run with --e21-form common",
            file=sys.stderr,
        )
        return EXIT_INVALID
    payload = {
        "b": format_rational(b),
        "c": format_rational(c),
        "e21_form": args.e21_form,
    }
    lines = []
    for name in _COEFF_ORDER:
        value = format_rational(getattr(cs, name))
        payload[name] = value
        lines.append(f"{name}={value}")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_solve(args) -> int:
    b = _rational(args, args.b)
    c = _rational(args, args.c)
    if _refuse_singular(b, c):
        return EXIT_INVALID
    payload = {
        "b": format_rational(b),
        "c": format_rational(c),
        "e21_form": args.e21_form,  # echoed only: neither cubic reads e21
    }
    lines = []
    edge = edge_cubic(edge_coefficients(b, c))
    diagonal = diagonal_cubic(diagonal_coefficients(b, c))
    for label, cubic in (("edge", edge), ("diagonal", diagonal)):
        roots = rational_roots(cubic)
        if roots is None:
            payload[label] = {"splits": False, "roots": None}
            lines.append(f"{label}: no full rational splitting")
        else:
            payload[label] = {
                "splits": True,
                "roots": [format_rational(r) for r in roots],
            }
            lines.append(f"{label}: " + " ".join(format_rational(r) for r in roots))
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    b = _rational(args, args.b)
    c = _rational(args, args.c)
    verdict = grade(b, c, args.e21_form)
    flags = sorted(flag.value for flag in verdict.flags)

    def triple(values):
        return None if values is None else [format_rational(v) for v in values]

    payload = {
        "b": format_rational(b),
        "c": format_rational(c),
        "e21_form": args.e21_form,
        "level": verdict.level,
        "reason": verdict.reason,
        "flags": flags,
        "residuals": [format_rational(r) for r in verdict.residuals],
        "edges": triple(verdict.edges),
        "diagonals": triple(verdict.diagonals),
        "pairing": list(verdict.pairing) if verdict.pairing else None,
    }
    lines = [f"level={verdict.level}", f"reason={verdict.reason}"]
    if flags:
        lines.append("singular: " + ", ".join(flags))
    if verdict.residuals:
        lines.append(
            "residuals: " + " ".join(format_rational(r) for r in verdict.residuals)
        )
    if verdict.edges:
        lines.append("edges: " + " ".join(format_rational(r) for r in verdict.edges))
    if verdict.diagonals:
        lines.append(
            "diagonals: " + " ".join(format_rational(r) for r in verdict.diagonals)
        )
    if verdict.pairing:
        lines.append("pairing: " + " ".join(str(i) for i in verdict.pairing))
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_search(args) -> int:
    def bound(text):
        return None if text is None else _rational(args, text)

    bounds = {key: bound(getattr(args, key)) for key in ("b_min", "b_max", "c_min", "c_max")}
    log = None if args.quiet else (lambda message: print(message, file=sys.stderr))
    try:
        space = SearchSpace(height=args.height, e21_form=args.e21_form, **bounds)
        summary = run(
            space,
            jobs=args.jobs,
            checkpoint_path=args.checkpoint,
            output_path=args.output,
            stop_on_hit=args.stop_on_hit,
            log=log,
        )
    except ValueError as exc:
        print(f"cuboidsearch: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    payload = dict(summary, output=args.output)
    lines = [
        f"visited={summary['visited']} singular={summary['singular']} "
        f"cursor={summary['cursor']}/{summary['total']}",
        "levels: " + " ".join(f"{k}:{v}" for k, v in sorted(summary["counts"].items())),
        f"hits={summary['hits']} completed={summary['completed']}",
    ]
    if summary["stopped_on_hit"]:
        lines.append("stopped on level-6 hit")
    _emit(args, payload, lines)
    if summary["stopped_on_hit"]:
        return EXIT_HIT
    return EXIT_OK


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output-format",
        choices=("text", "json"),
        default="text",
        help="render results as plain text (default) or machine-readable JSON",
    )
    common.add_argument(
        "--quiet", action="store_true", help="suppress notices and progress output"
    )

    form = argparse.ArgumentParser(add_help=False)
    form.add_argument(
        "--e21-form",
        choices=E21_FORMS,
        default=E21_PRINTED,
        help="which e21 denominator to use: the printed form keeps its extra "
        "-4c^3 quartic term, the common form uses the shared quartic factor",
    )

    parser = _Parser(
        prog="cuboidsearch",
        description="Exact-rational tooling for the perfect-cuboid inverse problems: "
        "evaluate coefficient formulas, classify singular parameter points, solve "
        "the two cubics, verify candidates, and run a checkpointable search.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser(
        "identities",
        parents=[common],
        help="machine-verify the polynomial identities behind the denominators",
    )
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser(
        "classify",
        parents=[common],
        help="report which singular subvarieties contain a point",
    )
    p.add_argument("b", help='rational, e.g. "1/2" or "3"')
    p.add_argument("c", help="rational")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "coeffs",
        parents=[common, form],
        help="evaluate all nine coefficients exactly at a nonsingular point",
    )
    p.add_argument("b", help="rational")
    p.add_argument("c", help="rational")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser(
        "solve",
        parents=[common, form],
        help="solve both cubics at a point over the rationals",
    )
    p.add_argument("b", help="rational")
    p.add_argument("c", help="rational")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser(
        "verify",
        parents=[common, form],
        help="run the full graded verification pipeline on one point",
    )
    p.add_argument("b", help="rational")
    p.add_argument("c", help="rational")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "search",
        parents=[common, form],
        help="grade every rational point of bounded height, with checkpoint/resume",
    )
    p.add_argument("--height", type=int, required=True, help="height bound H >= 1")
    p.add_argument(
        "--b-min",
        help="lower bound for b (closed, rational); a negative bound may be given "
        "as --b-min -3/2 or --b-min=-3/2, and so for the other three",
    )
    p.add_argument("--b-max", help="upper bound for b")
    p.add_argument("--c-min", help="lower bound for c")
    p.add_argument("--c-max", help="upper bound for c")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default 1); never more than the CPUs or the blocks",
    )
    p.add_argument("--checkpoint", required=True, help="checkpoint file (JSON)")
    p.add_argument("--output", required=True, help="JSONL output for level>=1 records")
    p.add_argument(
        "--stop-on-hit",
        action="store_true",
        help="halt as soon as a level-6 record (perfect cuboid) is written",
    )
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_bounds(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except RationalParseError as exc:
        print(f"cuboidsearch: invalid rational: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except CheckpointMismatch as exc:
        print(f"cuboidsearch: checkpoint mismatch: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except OSError as exc:
        print(f"cuboidsearch: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
