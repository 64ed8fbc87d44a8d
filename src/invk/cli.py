"""Command-line front end.

Subcommands: eval, verify, convolve, integral, covering, table.  Output is
JSON (or CSV for `table`), written to stdout or to `--out`.  Exit codes:
0 success, 1 property or check failed, 2 usage error (a value that
overflows a double at the requested point counts as one), 3 numeric
non-convergence.  Identical invocations with identical seeds produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import catalog
from .algebra import convolve
from .core import EvalPoint, evaluate
from .covering import covering_identity_check, is_disjoint_covering, parse_system
from .errors import ConvergenceError, InvkError, RejectedInputError, positive
from .verify import (
    DEFAULT_GRID,
    check_invariance,
    default_tolerance,
    golden_integral,
    standard_suite,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _parse_params(text: str | None) -> dict:
    """`k=v,k=v` pairs; values become int, then float, else stay strings."""
    out: dict = {}
    if not text:
        return out
    for pair in text.split(","):
        if "=" not in pair:
            raise RejectedInputError(f"malformed parameter {pair!r}, expected k=v")
        key, raw = pair.split("=", 1)
        key = key.strip()
        raw = raw.strip()
        try:
            out[key] = int(raw)
        except ValueError:
            try:
                out[key] = float(raw)
            except ValueError:
                out[key] = raw
    return out


def tolerance(text: str) -> float:
    """The argparse type of every --tol: a finite number > 0, else a usage error."""
    return positive("--tol", float(text))


def _parse_fn_spec(text: str):
    """`E2:m=1` shorthand for convolve operands."""
    if ":" in text:
        fn, params = text.split(":", 1)
        return catalog.make(fn.strip(), **_parse_params(params))
    return catalog.make(text.strip())


def _emit(args, payload: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _grid_from(args):
    grid = DEFAULT_GRID
    if args.seed is not None:
        grid = replace(grid, seed=args.seed)
    if args.samples is not None:
        grid = replace(grid, samples=args.samples)
    if args.nmax is not None:
        grid = replace(grid, n_max=args.nmax)
    return grid


def _add_point_flags(p):
    p.add_argument("--x", type=float, required=True, help="x coordinate")
    p.add_argument("--y", type=float, required=True, help="y coordinate (positive)")


def _add_output_flags(p):
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="invk",
        description="Evaluate, verify, convolve and tabulate invariant functions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a catalog entry at a point")
    p_eval.add_argument("--fn", required=True, help="catalog entry id, e.g. E5")
    p_eval.add_argument("--params", default=None, help="entry parameters, e.g. a=2")
    _add_point_flags(p_eval)
    _add_output_flags(p_eval)

    p_verify = sub.add_parser("verify", help="run property checks")
    p_verify.add_argument("--fn", default=None, help="catalog entry id to check")
    p_verify.add_argument("--params", default=None)
    p_verify.add_argument("--all", action="store_true", help="run the full standard suite")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--nmax", type=int, default=None)
    p_verify.add_argument("--tol", type=tolerance, default=None, help="invariance tolerance")
    _add_output_flags(p_verify)

    p_conv = sub.add_parser("convolve", help="evaluate a convolution product at a point")
    p_conv.add_argument("--g", required=True, help="left operand, e.g. E2:m=1")
    p_conv.add_argument("--h", required=True, help="right operand")
    p_conv.add_argument("--tol", type=tolerance, default=1e-10)
    _add_point_flags(p_conv)
    _add_output_flags(p_conv)

    p_int = sub.add_parser("integral", help="reproduce a golden integral")
    p_int.add_argument("--name", required=True, choices=("euler", "poisson", "raabe"))
    p_int.add_argument("--params", default=None, help="r=... for poisson, a=... for raabe")
    p_int.add_argument("--tol", type=tolerance, default=1e-7)
    _add_output_flags(p_int)

    p_cov = sub.add_parser("covering", help="decide a covering system, optionally certify")
    p_cov.add_argument("--check", required=True, metavar="SYSTEM",
                       help='residue classes as "a/n,a/n,..."')
    p_cov.add_argument("--certify", action="store_true",
                       help="also run the invariant-function certificate identity")
    p_cov.add_argument("--fn", default="E5", help="certificate entry (default E5)")
    p_cov.add_argument("--params", default="a=2")
    p_cov.add_argument("--x", type=float, default=0.0)
    p_cov.add_argument("--y", type=float, default=1.0)
    p_cov.add_argument("--tol", type=tolerance, default=1e-8)
    _add_output_flags(p_cov)

    p_tab = sub.add_parser("table", help="tabulate an entry over an x range (CSV)")
    p_tab.add_argument("--fn", required=True)
    p_tab.add_argument("--params", default=None)
    p_tab.add_argument("--y", type=float, required=True)
    p_tab.add_argument("--x0", type=float, required=True)
    p_tab.add_argument("--x1", type=float, required=True)
    p_tab.add_argument("--steps", type=int, required=True,
                       help="number of equal steps; steps+1 rows are emitted")
    _add_output_flags(p_tab)

    return ap


def _cmd_eval(args) -> int:
    f = catalog.make(args.fn, **_parse_params(args.params))
    value = evaluate(f, EvalPoint(args.x, args.y))
    _emit(args, _dump_json({"value": value}))
    return EXIT_OK


def _cmd_verify(args) -> int:
    grid = _grid_from(args)
    if args.all:
        given = [flag for flag in ("fn", "params", "tol") if getattr(args, flag) is not None]
        if given:
            raise RejectedInputError(
                f"verify --all runs the pinned suite and takes no --{', --'.join(given)}"
            )
        reports = standard_suite(grid)
        _emit(args, _dump_json([r.to_json_dict() for r in reports]))
        return EXIT_OK if all(r.passed for r in reports) else EXIT_FAILED
    if not args.fn:
        raise RejectedInputError("verify needs --fn or --all")
    f = catalog.make(args.fn, **_parse_params(args.params))
    tol = args.tol if args.tol is not None else default_tolerance(f)
    report = check_invariance(f, grid, tol)
    _emit(args, _dump_json(report.to_json_dict()))
    return EXIT_OK if report.passed else EXIT_FAILED


def _cmd_convolve(args) -> int:
    g = _parse_fn_spec(args.g)
    h = _parse_fn_spec(args.h)
    conv = convolve(g, h, tol=args.tol)
    value = evaluate(conv, EvalPoint(args.x, args.y))
    _emit(args, _dump_json({"value": value}))
    return EXIT_OK


def _cmd_integral(args) -> int:
    value, expected = golden_integral(args.name, **_parse_params(args.params))
    error = abs(value - expected)
    _emit(args, _dump_json({
        "name": args.name,
        "value": value,
        "expected": expected,
        "error": error,
    }))
    return EXIT_OK if error <= args.tol else EXIT_FAILED


def _cmd_covering(args) -> int:
    system = parse_system(args.check)
    decision = is_disjoint_covering(system)
    payload = decision.to_json_dict()
    payload["system"] = str(system)
    code = EXIT_OK if decision.accepted else EXIT_FAILED
    if args.certify and decision.accepted:
        f = catalog.make(args.fn, **_parse_params(args.params))
        report = covering_identity_check(system, f, args.x, args.y, args.tol)
        payload["certificate"] = report.to_json_dict()
        if not report.passed:
            code = EXIT_FAILED
    _emit(args, _dump_json(payload))
    return code


def _cmd_table(args) -> int:
    if args.steps < 1:
        raise RejectedInputError("--steps must be >= 1")
    f = catalog.make(args.fn, **_parse_params(args.params))
    rows = ["x,value"]
    for i in range(args.steps + 1):
        x = args.x0 + (args.x1 - args.x0) * i / args.steps
        rows.append(f"{x!r},{evaluate(f, EvalPoint(x, args.y))!r}")
    _emit(args, "\n".join(rows) + "\n")
    return EXIT_OK


_COMMANDS = {
    "eval": _cmd_eval,
    "verify": _cmd_verify,
    "convolve": _cmd_convolve,
    "integral": _cmd_integral,
    "covering": _cmd_covering,
    "table": _cmd_table,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except ConvergenceError as exc:
        print(f"invk: numeric non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InvkError as exc:
        print(f"invk: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError as exc:
        print(f"invk: floating-point overflow: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
