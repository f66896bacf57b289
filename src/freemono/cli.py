"""Deterministic command-line harness.

Subcommands: ``check`` (run a verification suite and emit a report
document), ``eval`` (evaluate a function at a point), ``parse`` (parse an
expression), ``catalog`` (list the built-in functions).  Exit codes:
0 = all checks passed, 1 = a violation was witnessed, 2 = usage or
configuration error, 3 = numerical failure (eigensolver non-convergence, an
exhausted sampling budget, or a value or margin that is not finite).

Report documents contain no timestamps or host data unless ``--annotate``
is given, so identical configurations produce byte-identical output.
Trials run serially; ``--jobs`` is still accepted and validated for
existing scripts but has no effect.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import NamedTuple

from . import report as report_mod
from .freeexpr import (
    Add, Block, CodomainError, Inv, Mul, Neg, OutOfDomainError, ParseError, ScalarConst,
    ScalarMul, Sqrt, Sub, Var,
    CATALOG_NAMES, FreeFunction, catalog, eval_function, function_from_expr, parse, to_text,
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
    "equivalence": [("equivalence", None, lambda f, o: equivalence_report(f, None, *o))],
    "axioms": [("free_axioms", None, lambda f, o: check_free_axioms(f, None, *o))],
    "monotone": [("monotone", None, lambda f, o: check_monotone(f, None, *o))],
    "halfplane": [("halfplane", None, lambda f, o: check_halfplane(f, *o))],
    "local": [("local_monotone", None, lambda f, o: check_local_monotone(f, None, *o))],
    "boundary": [("boundary_continuity", None,
                  lambda f, o: check_boundary_continuity(f, None, *o))],
    "schur_identity": [("schur_im_identity", "schur_complement",
                        lambda f, o: check_schur_im_identity(*o))],
    "loewner1d": [("cross_check_1d", name, lambda f, o, name=name: cross_check(
        scalar_catalog(name), node_sets=o.trials, pick_sets=o.trials, levels=o.levels,
        pairs=o.trials, tol=o.tol, rng=o.rng))
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
    check.add_argument("--function", help="catalog function name")
    check.add_argument("--expr", help="expression text (requires --system)")
    check.add_argument("--system", help="input system name or system JSON path")
    check.add_argument("--suite", required=True, choices=SUITES)
    check.add_argument("--levels", default="1..3", help="level range A..B (within 1..8)")
    check.add_argument("--trials", type=int, default=100)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--tol", type=float, default=1e-8)
    check.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; trials always run serially")
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
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
    elif re.fullmatch(r"\d+", text):
        lo = hi = int(text)
    else:
        raise _UsageError(f"bad --levels value {text!r}; expected A..B")
    if not (1 <= lo <= hi <= 8):
        raise _UsageError("levels must satisfy 1 <= A <= B <= 8")
    return tuple(range(lo, hi + 1))


def _resolve_system(text: str):
    try:
        return builtin_system(text)
    except ValueError:
        pass
    path = Path(text)
    if path.exists():
        try:
            return system_from_json(json.loads(path.read_text()))
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            raise _UsageError(f"bad system JSON {text!r}: {exc}") from exc
    raise _UsageError(f"unknown system {text!r}")


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


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _ast_json(e) -> dict:
    if isinstance(e, Var):
        return {"node": "var", "index": e.index}
    if isinstance(e, Block):
        return {"node": "block", "row": e.row, "col": e.col}
    if isinstance(e, ScalarConst):
        return {"node": "scalar", "re": e.value.real, "im": e.value.imag}
    if isinstance(e, ScalarMul):
        return {"node": "scalar_mul", "re": e.value.real, "im": e.value.imag,
                "child": _ast_json(e.child)}
    for cls, name in ((Add, "add"), (Sub, "sub"), (Mul, "mul")):
        if isinstance(e, cls):
            return {"node": name, "left": _ast_json(e.left), "right": _ast_json(e.right)}
    for cls, name in ((Neg, "neg"), (Inv, "inv"), (Sqrt, "sqrt")):
        if isinstance(e, cls):
            return {"node": name, "child": _ast_json(e.child)}
    raise TypeError(f"not an expression node: {e!r}")


def _run_check(args) -> int:
    levels = _parse_levels(args.levels)
    if args.trials < 1:
        raise _UsageError("--trials must be at least 1")
    if not args.tol > 0:
        raise _UsageError("--tol must be positive")
    if args.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
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
    try:
        doc = json.loads(Path(args.point).read_text())
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise _UsageError(f"bad point file {args.point!r}: {exc}") from exc
    if args.expr and not args.system and isinstance(doc, dict) and "system" in doc:
        # the point file names its system; no inference ambiguity for eval
        args.system = str(doc["system"])
    f = _resolve_function(args)
    try:
        point = point_from_json(doc, f.in_system)
    except (ValueError, KeyError, TypeError) as exc:
        raise _UsageError(f"bad point file {args.point!r}: {exc}") from exc
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
    out = {"expr": args.expr, "canonical": to_text(expr), "ast": _ast_json(expr)}
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return EXIT_PASS


def _run_catalog(args) -> int:
    from .freeexpr import _CATALOG
    entries = [{"name": name, "system": _CATALOG[name][1], "expression": _CATALOG[name][0]}
               for name in CATALOG_NAMES]
    _emit(json.dumps({"functions": entries}, indent=2) + "\n", args.out)
    return EXIT_PASS


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
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
