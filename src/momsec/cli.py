"""Command line interface.

    momsec check MODEL.json [--suite S] [--format json|text]
                            [--tol T] [--points N] [--seed S] [--require-h1]
    momsec examples list
    momsec examples emit NAME PATH

``--tol`` must be a finite positive number; ``inf`` and ``nan`` are usage
errors, since no residual could fail against them.  ``--seed`` must be a
non-negative integer, as ``sampling.seed`` in a model file must be.

Exit codes: 0 all required checks pass, 1 a required check failed,
2 usage or validation error (a point count too large to sample in
memory among them), 3 the model cannot be evaluated at the
sample: a domain error (such as log of a non-positive value), whose
message names the subexpression and the first offending sample point,
or a metric that is a finite singular matrix at a sample point.  A
matrix with a non-finite entry is no such error: the rows that read it
fail with the flag ``non-finite``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from .expressions import ExpressionError
from .fixtures import fixture_bytes, fixture_names
from .modelfile import ModelError, load_model
from .reporting import CheckReport
from .suites import SUITE_NAMES, RunConfig, SuiteError, run

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_EVAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momsec",
        description="Certify momentum-section and related structures on a single-chart model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run verification suites on a model file")
    check.add_argument("model", help="path to a model JSON file")
    check.add_argument(
        "--suite",
        default="all",
        choices=[*SUITE_NAMES, "all"],
        help="which suite to run (default: all applicable)",
    )
    check.add_argument("--format", default="text", choices=["text", "json"], help="report format")
    check.add_argument("--tol", type=float, default=None, help="override the residual tolerance (finite, > 0)")
    check.add_argument("--points", type=int, default=None, help="override the sample point count")
    check.add_argument("--seed", type=int, default=None, help="override the sampling seed (>= 0)")
    check.add_argument(
        "--require-h1",
        action="store_true",
        help="treat the anchoring conditions (H1, HM1) as required instead of informational",
    )

    examples = sub.add_parser("examples", help="list or write the built-in example models")
    exsub = examples.add_subparsers(dest="examples_command", required=True)
    exsub.add_parser("list", help="list available example names")
    emit = exsub.add_parser("emit", help="write an example model file")
    emit.add_argument("name", help="example name")
    emit.add_argument("path", help="output path")
    return parser


def cmd_check(args) -> int:
    try:
        model = load_model(args.model)
    except OSError as exc:
        print(f"error: cannot read model: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelError as exc:
        print(f"error: invalid model: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        print("error: --tol must be finite and positive", file=sys.stderr)
        return EXIT_USAGE
    if args.points is not None and args.points < 1:
        print("error: --points must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None and args.seed < 0:
        print("error: --seed must be a non-negative integer", file=sys.stderr)
        return EXIT_USAGE
    cfg = RunConfig(tolerance=args.tol, points=args.points, seed=args.seed, require_h1=args.require_h1)
    try:
        report: CheckReport = run(model, args.suite, cfg)
    except SuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ExpressionError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: cannot evaluate the model at the sample: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except MemoryError:
        points = model.sampling.points if args.points is None else args.points
        print(f"error: not enough memory for a sample of {points} points", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return EXIT_PASS if report.overall_pass else EXIT_FAIL


def cmd_examples(args) -> int:
    if args.examples_command == "list":
        for name in fixture_names():
            print(name)
        return EXIT_PASS
    try:
        payload = fixture_bytes(args.name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    try:
        with open(args.path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        print(f"error: cannot write {args.path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_PASS


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call in a process; parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    if args.command == "check":
        return cmd_check(args)
    return cmd_examples(args)


if __name__ == "__main__":
    sys.exit(main())
