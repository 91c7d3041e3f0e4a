"""Command-line interface.

Subcommands: identities, classify, coeffs, solve, verify, search.  All
rational arguments are exact "p/q" or integer strings; decimals are
rejected so no float ever enters the pipeline.  Arguments not in lowest
terms are reduced with a notice on stderr.  The identities module loads
only in the two subcommands that read it, identities and classify.

The four point commands, classify, coeffs, solve and verify, share one
path.  ``_point`` parses b and c, refuses a singular point for coeffs and
solve (exit 3, its flags on stderr), and starts the payload with b, c
and, where the command has the option, e21_form.  Each command adds its
values to that payload as strings (``_texts``), and its text lines are
built from the payload, so the text and JSON forms print the same values.
Every command's output goes through ``_emit``.

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
import os
import sys
from fractions import Fraction

from .coefficients import (
    E21_FORMS,
    E21_PRINTED,
    CoefficientSet,
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


class _Refused(Exception):
    """A well-formed argument the command refuses; main prints the reason and exits 3."""


def _notice(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _rational(args, text: str) -> Fraction:
    value = parse_rational(text)
    if format_rational(value) != text.strip().lstrip("+"):
        _notice(args, f"notice: reduced {text} to {format_rational(value)}")
    return value


def _texts(values) -> list[str] | None:
    """Each rational's string; None stays None."""
    return None if values is None else [format_rational(value) for value in values]


def _flags(flags) -> list[str]:
    return sorted(flag.value for flag in flags)


def _point(args, refuse_singular: bool) -> tuple[Fraction, Fraction, dict]:
    """The point's b and c, and its payload's first keys: b, c and any e21_form.

    With ``refuse_singular``, a singular point raises ``_Refused`` naming its
    flags: coeffs and solve have no value there.
    """
    b = _rational(args, args.b)
    c = _rational(args, args.c)
    flags = _flags(classify(b, c)) if refuse_singular else None
    if flags:
        raise _Refused("singular: " + ", ".join(flags))
    payload = {"b": format_rational(b), "c": format_rational(c)}
    if "e21_form" in args:
        payload["e21_form"] = args.e21_form  # solve only echoes it: neither cubic reads e21
    return b, c, payload


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.output_format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_identities(args) -> int:
    from .identities import run_identity_checks

    results = run_identity_checks()
    for result in results:
        payload = {"identity": result.name, "pass": result.passed, "difference": result.detail}
        text = (f"PASS {result.name}" if result.passed
                else f"FAIL {result.name}: difference = {result.detail}")
        _emit(args, payload, [text])
    return EXIT_OK if all(result.passed for result in results) else EXIT_IDENTITY


def cmd_classify(args) -> int:
    from .identities import factor_values

    b, c, payload = _point(args, refuse_singular=False)
    payload["flags"] = _flags(classify(b, c))
    payload.update(zip(_FACTOR_KEYS, _texts(factor_values(b, c))))
    lines = ["flags: " + (", ".join(payload["flags"]) or "(none)")]
    _emit(args, payload, lines + [f"{key}={payload[key]}" for key in _FACTOR_KEYS])
    return EXIT_OK


def cmd_coeffs(args) -> int:
    b, c, payload = _point(args, refuse_singular=True)
    try:
        values = eval_coefficients(b, c, args.e21_form)
    except E21DenominatorPole:
        raise _Refused(
            "e21 denominator (printed form) vanishes here; re-run with --e21-form common"
        ) from None
    payload.update(zip(CoefficientSet._fields, _texts(values)))
    _emit(args, payload, [f"{name}={payload[name]}" for name in CoefficientSet._fields])
    return EXIT_OK


def cmd_solve(args) -> int:
    b, c, payload = _point(args, refuse_singular=True)
    lines = []
    for label, cubic in (
        ("edge", edge_cubic(edge_coefficients(b, c))),
        ("diagonal", diagonal_cubic(diagonal_coefficients(b, c))),
    ):
        roots = _texts(rational_roots(cubic))
        payload[label] = {"splits": roots is not None, "roots": roots}
        lines.append(f"{label}: " + (" ".join(roots) if roots else "no full rational splitting"))
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    b, c, payload = _point(args, refuse_singular=False)
    verdict = grade(b, c, args.e21_form)
    payload.update(
        level=verdict.level,
        reason=verdict.reason,
        flags=_flags(verdict.flags),
        residuals=_texts(verdict.residuals),
        edges=_texts(verdict.edges),
        diagonals=_texts(verdict.diagonals),
        pairing=list(verdict.pairing) if verdict.pairing else None,
    )
    lines = [f"{key}={payload[key]}" for key in ("level", "reason")]
    if payload["flags"]:
        lines.append("singular: " + ", ".join(payload["flags"]))
    for key in ("residuals", "edges", "diagonals", "pairing"):
        if payload[key]:
            lines.append(f"{key}: " + " ".join(map(str, payload[key])))
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
    if sys.stdout.seekable():
        # stdout may be the --output file itself (/dev/stdout), which the run appended
        # to through its own descriptor: write the summary after its records
        sys.stdout.seek(0, os.SEEK_END)
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

    for name, parents, help_text, func in (
        ("classify", [common], "report which singular subvarieties contain a point",
         cmd_classify),
        ("coeffs", [common, form],
         "evaluate all nine coefficients exactly at a nonsingular point", cmd_coeffs),
        ("solve", [common, form], "solve both cubics at a point over the rationals", cmd_solve),
        ("verify", [common, form], "run the full graded verification pipeline on one point",
         cmd_verify),
    ):
        p = sub.add_parser(name, parents=parents, help=help_text)
        p.add_argument("b", help='rational, e.g. "1/2" or "3"')
        p.add_argument("c", help="rational")
        p.set_defaults(func=func)

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
    except _Refused as exc:
        print(exc, file=sys.stderr)
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
