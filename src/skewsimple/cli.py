"""Command line interface.

Subcommands:
  check   run checks on one instance file and print a report
  suite   run the dynamics catalogue plus the randomized sweeps
  report  re-render a saved report, revalidating its witnesses

Exit codes: 0 all asserted implications hold, 1 a violation was found,
2 input error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, canonical
from .errors import InstanceParseError, SkewSimpleError
from .instances import decode_json, load_instance
from .report import (canonical_json, check_report_document, render_text, revalidate_report,
                     run_checks)
from .suite import run_dynamics_catalogue, run_randomized_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewsimple",
        description="Construct skew group rings over finite rings and verify "
                    "simplicity criteria against brute-force ideal oracles.")
    parser.add_argument("--version", action="version", version=f"skewsimple {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run checks on one instance file")
    check.add_argument("instance", help="path to an instance JSON file")
    check.add_argument("--checks", default=None,
                       help="comma-separated check names (default: all applicable); "
                            "empty string selects none")
    check.add_argument("--format", choices=("json", "text"), default="text")
    check.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (breaks bit-for-bit "
                            "reproducibility)")
    check.add_argument("--out", default=None, help="write the report to a file")

    suite = sub.add_parser("suite", help="dynamics catalogue plus randomized sweeps")
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--count", type=non_negative_int, default=200,
                       help="instances per randomized sweep")
    suite.add_argument("--cap", type=int, default=4096,
                       help="largest |R| the randomized sampler accepts")
    suite.add_argument("--skip-catalogue", action="store_true")
    suite.add_argument("--format", choices=("json", "text"), default="text")

    report = sub.add_parser("report", help="render a saved report")
    report.add_argument("report", help="path to a report JSON file")
    report.add_argument("--format", choices=("json", "text"), default="text")
    report.add_argument("--no-verify", action="store_true",
                        help="skip witness revalidation")
    return parser


def _cmd_check(args) -> int:
    selection = None if args.checks is None else [s for s in args.checks.split(",") if s]
    try:
        report = run_checks(load_instance(args.instance), selection)
    except (InstanceParseError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.format == "json":
        rendered = canonical_json(report, timings=args.timings)
    else:
        rendered = render_text(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(report, timings=args.timings))
    print(rendered, end="")
    return EXIT_VIOLATION if report["violations"] else EXIT_OK


def _cmd_suite(args) -> int:
    violations: list[str] = []
    doc: dict = {"seed": args.seed, "count": args.count}
    try:
        if not args.skip_catalogue:
            doc["dynamics_catalogue"] = cat = run_dynamics_catalogue()
            violations.extend(cat["violations"])
        sweeps = run_randomized_suite(args.seed, args.count, args.cap)
    except SkewSimpleError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    doc["randomized"] = sweeps
    violations.extend(sweeps["violations"])
    doc["violations"] = violations
    if args.format == "json":
        print(canonical.dumps(doc), end="")
    else:
        if "dynamics_catalogue" in doc:
            cat = doc["dynamics_catalogue"]
            print(f"dynamics catalogue: {len(cat['instances'])} instances, "
                  f"{len(cat['violations'])} violations ({cat['seconds']}s)")
        for sweep in sweeps["sweeps"]:
            print(f"sweep {sweep['name']}: {sweep['instances']} instances, "
                  f"{len(sweep['violations'])} violations, "
                  f"{sweep['constructive_checks']} constructive checks "
                  f"({sweep['seconds']}s)")
        print(f"total violations: {len(violations)}")
    return EXIT_VIOLATION if violations else EXIT_OK


def _cmd_report(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            report = decode_json(fh.read())
        if args.no_verify:
            check_report_document(report)   # revalidate_report starts with it
            problems = []
        else:
            problems = revalidate_report(report)
    except (OSError, SkewSimpleError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if problems:
        for problem in problems:
            print(f"witness check failed: {problem}", file=sys.stderr)
        return EXIT_VIOLATION
    if args.format == "json":
        print(canonical_json(report, timings="timings" in report), end="")
    else:
        print(render_text(report), end="")
    return EXIT_VIOLATION if report.get("violations") else EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "suite":
        return _cmd_suite(args)
    return _cmd_report(args)


if __name__ == "__main__":
    raise SystemExit(main())
