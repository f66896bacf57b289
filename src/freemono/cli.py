"""Deterministic command-line harness.

Subcommands: ``check`` (run a verification suite and emit a report
document), ``eval`` (evaluate a function at a point), ``parse`` (parse an
expression), ``catalog`` (list the built-in functions).  Exit codes:
0 = all checks passed, 1 = a violation was witnessed, 2 = usage or
configuration error (an unwritable ``--out`` among them, found before any
work, and a ``--system`` or ``--point`` file that cannot be read or
decoded), 3 = numerical failure (eigensolver non-convergence, an
exhausted sampling budget, or a value or margin that is not finite).

Report documents contain no timestamps or host data unless ``--annotate``
is given, so identical configurations produce byte-identical output.
Trials run in one thread, and every check runs each level's trials as
stacks (see :mod:`freemono.verifiers`); ``--jobs`` is still accepted and
validated for existing scripts but has no effect.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import re
import sys
from pathlib import Path
from typing import NamedTuple

from . import report as report_mod
from .freeexpr import (
    CATALOG_NAMES, CodomainError, FreeFunction, OutOfDomainError, ParseError, catalog,
    eval_function, function_from_expr, parse, to_json, to_text,
)
from .kernels import NumericalError, Rng
from .loewner1d import SCALAR_CATALOG_NAMES, cross_check, scalar_catalog
from .opsys import builtin_system, point_from_json, point_to_json, system_from_json
from .report import ConsistencyReport
from .verifiers import (
    check_boundary_continuity,
    check_free_axioms,
    check_halfplane,
    check_local_monotone,
    check_monotone,
    check_schur_im_identity,
    equivalence_report,
)

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# The most --trials a check takes.  Between chunks a check keeps only its
# failure count and its worst trial so far, with that trial's chunk, so
# memory does not grow with the count: `check --function inverse --suite
# equivalence --levels 1..8` peaked at 49 MB with 20,000 and with 100,000
# trials, and at 40 MB with one (getrusage, fresh processes).  The limit
# bounds the run time instead: that run took 79 s at 100,000 trials on a
# 2-vCPU host.
TRIALS_MAX = 100_000


class _Options(NamedTuple):
    """Options of one check run, in the order the checks take them."""

    levels: tuple
    trials: int
    tol: float
    rng: Rng


# suite -> its units in report order: (check label, function name, run).  A
# function name of None stands for the --function/--expr function, which
# run(f, o) receives as f; o is an _Options.  Each run looks its check up in
# this module's namespace when it is called, so a patched check takes effect.
_SUITES = {
    "equivalence": [("equivalence", None, lambda f, o: equivalence_report(f, *o))],
    "axioms": [("free_axioms", None, lambda f, o: check_free_axioms(f, *o))],
    "monotone": [("monotone", None, lambda f, o: check_monotone(f, *o))],
    "halfplane": [("halfplane", None, lambda f, o: check_halfplane(f, *o))],
    "local": [("local_monotone", None, lambda f, o: check_local_monotone(f, *o))],
    "boundary": [("boundary_continuity", None, lambda f, o: check_boundary_continuity(f, *o))],
    "schur_identity": [("schur_im_identity", "schur_complement",
                        lambda f, o: check_schur_im_identity(*o))],
    "loewner1d": [("cross_check_1d", name,
                   lambda f, o, name=name: cross_check(scalar_catalog(name), *o))
                  for name in SCALAR_CATALOG_NAMES],
}


def _catalog_unit(suite: str, name: str) -> tuple:
    """The unit of a one-function suite, run on the catalog function ``name``."""
    [(check, _, run)] = _SUITES[suite]
    return check, name, lambda f, o: run(catalog(name), o)


_SUITES["all"] = [
    *(_catalog_unit(suite, name) for name in CATALOG_NAMES for suite in ("axioms", "equivalence")),
    *(_catalog_unit("boundary", name) for name in ("schur_complement", "msqrt")),
    *_SUITES["schur_identity"],
    *_SUITES["loewner1d"],
]

SUITES = tuple(_SUITES)


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="freemono",
        description="Verify matrix monotonicity and half-plane preservation "
                    "of free matrix expressions over operator systems.")
    sub = p.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a verification suite")
    # --tol -1e-8 is a value, though argparse's own test takes only plain decimals for one
    check._negative_number_matcher = re.compile(r"-\.?[0-9]")
    check.add_argument("--function", help="catalog function name")
    check.add_argument("--expr", help="expression text (requires --system)")
    check.add_argument("--system", help="input system name or system JSON path")
    check.add_argument("--suite", required=True, choices=SUITES)
    check.add_argument("--levels", default="1..3", help="level range A..B (within 1..8)")
    check.add_argument("--trials", type=int, default=100, help=f"1 <= TRIALS <= {TRIALS_MAX}")
    check.add_argument("--seed", type=int, default=0, help="0 <= SEED < 2^64")
    check.add_argument("--tol", type=float, default=1e-8)
    check.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; trials always run in one thread")
    check.add_argument("--out", help="write the report document to this path")
    check.add_argument("--annotate", action="store_true",
                       help="add timestamp/host annotations (breaks byte determinism)")

    ev = sub.add_parser("eval", help="evaluate a function at a point")
    ev.add_argument("--function")
    ev.add_argument("--expr")
    ev.add_argument("--system")
    ev.add_argument("--point", required=True, help="path to a point JSON file")
    ev.add_argument("--out")

    pa = sub.add_parser("parse", help="parse an expression and print its AST")
    pa.add_argument("--expr", required=True)
    pa.add_argument("--system", default="scalar")
    pa.add_argument("--out")

    cat = sub.add_parser("catalog", help="list the built-in functions")
    cat.add_argument("--out")
    return p


def _parse_levels(text: str) -> tuple:
    m = re.fullmatch(r"([0-9]+)(?:\.\.([0-9]+))?", text)  # ASCII digits only
    bad = _UsageError(f"bad --levels value {text!r}; expected A..B")
    if m is None:
        raise bad
    try:
        lo, hi = int(m[1]), int(m[2] or m[1])
    except ValueError as exc:  # int() refuses more than 4,300 digits
        raise bad from exc
    if not (1 <= lo <= hi <= 8):
        raise _UsageError("levels must satisfy 1 <= A <= B <= 8")
    return tuple(range(lo, hi + 1))


@contextlib.contextmanager
def _input_file(what: str, path: str):
    """Make any failure to read or decode the input file ``path`` a usage error."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise _UsageError(f"{what} {path!r}: {exc}") from exc


def _resolve_system(text: str):
    try:
        return builtin_system(text)
    except ValueError as exc:
        unknown = exc
    path = Path(text)
    if not path.exists():  # neither a built-in system nor a file: say why not the first
        raise _UsageError(str(unknown)) from unknown
    with _input_file("bad system JSON", text):
        return system_from_json(json.loads(path.read_text()))


def _resolve_function(args) -> FreeFunction:
    if args.function and args.expr:
        raise _UsageError("give either --function or --expr, not both")
    if args.function:
        try:
            return catalog(args.function)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
    if args.expr:
        if not args.system:
            raise _UsageError("--expr requires --system")
        system = _resolve_system(args.system)
        try:
            return function_from_expr("expr", args.expr, system)
        except ParseError as exc:
            raise _UsageError(f"bad expression: {exc}") from exc
    raise _UsageError("this suite needs --function or --expr")


def _check_out(out: str | None):
    """Reject an ``--out`` path that cannot take a file, before any work is done."""
    if not out:
        return
    path = Path(out)
    if path.is_dir():
        raise _UsageError(f"--out {out!r} is a directory")
    if not path.parent.is_dir():
        raise _UsageError(f"--out {out!r}: no directory {str(path.parent)!r}")


def _emit(text: str, out: str | None):
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise _UsageError(f"cannot write --out {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _run_check(args) -> int:
    levels = _parse_levels(args.levels)
    if args.trials < 1:
        raise _UsageError("--trials must be at least 1")
    if args.trials > TRIALS_MAX:
        raise _UsageError(f"--trials must be at most {TRIALS_MAX}")
    if not args.tol > 0:
        raise _UsageError("--tol must be positive")
    if not math.isfinite(args.tol):
        raise _UsageError("--tol must be finite")
    if args.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    if not 0 <= args.seed < 2**64:
        raise _UsageError("--seed must be in [0, 2^64)")
    opts = _Options(levels, args.trials, args.tol, Rng(args.seed))
    units = _SUITES[args.suite]
    f = _resolve_function(args) if any(name is None for _, name, _ in units) else None
    reports: list = []
    consistency: list = []
    failures: list = []
    for check, name, run in units:
        try:
            result = run(f, opts)
        except NumericalError as exc:
            failures.append({"check": check, "function": name or f.name, "error": str(exc)})
            continue
        except ValueError as exc:  # the check does not apply to this function
            raise _UsageError(str(exc)) from exc
        if isinstance(result, ConsistencyReport):
            reports.extend(result.reports)
            consistency.append(result)
        else:
            reports.append(result)

    config = {
        "command": "check",
        "suite": args.suite,
        "function": args.function,
        "expr": args.expr,
        "system": args.system,
        "levels": [int(x) for x in levels],
        "trials": args.trials,
        "seed": args.seed,
        "tol": args.tol,
    }
    annotations = None
    if args.annotate:
        import datetime
        import platform
        annotations = {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "host": platform.node(),
        }
    doc = report_mod.document(config, reports, consistency, failures, annotations)
    _emit(report_mod.dumps(doc), args.out)
    if failures:
        return EXIT_NUMERICAL
    if doc["verdict"] == "fail":
        return EXIT_VIOLATION
    return EXIT_PASS


def _run_eval(args) -> int:
    with _input_file("bad point file", args.point):
        doc = json.loads(Path(args.point).read_text())
    if args.expr and not args.system and isinstance(doc, dict) and "system" in doc:
        # the point file names its system; no inference ambiguity for eval
        args.system = str(doc["system"])
    f = _resolve_function(args)
    with _input_file("bad point file", args.point):
        point = point_from_json(doc, f.in_system)
    try:
        value = eval_function(f, point)
    except (OutOfDomainError, CodomainError, NumericalError) as exc:
        print(f"freemono: evaluation failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _emit(json.dumps(point_to_json(value), indent=2) + "\n", args.out)
    return EXIT_PASS


def _run_parse(args) -> int:
    system = _resolve_system(args.system)
    try:
        expr = parse(args.expr, system)
    except ParseError as exc:
        print(f"freemono: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = {"expr": args.expr, "canonical": to_text(expr), "ast": to_json(expr)}
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return EXIT_PASS


def _run_catalog(args) -> int:
    entries = [{"name": f.name, "system": f.in_system.name, "expression": f.text}
               for f in map(catalog, CATALOG_NAMES)]
    _emit(json.dumps({"functions": entries}, indent=2) + "\n", args.out)
    return EXIT_PASS


_PARSER = _build_parser()  # argparse keeps no state between parse_args calls


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        _check_out(args.out)
        if args.command == "check":
            return _run_check(args)
        if args.command == "eval":
            return _run_eval(args)
        if args.command == "parse":
            return _run_parse(args)
        if args.command == "catalog":
            return _run_catalog(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"freemono: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"freemono: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def app():
    raise SystemExit(main())


if __name__ == "__main__":
    app()
