"""Command-line interface.

Subcommands:
  solve    build and solve a problem, write a bounds report as JSON
  verify   solve and cross-check against an independent ODE integrator
  sweep    run a list of lambdas and write per-lambda metrics as CSV
  selftest run a source checkout's invariant tests; refused outside one

The problem file sets q, [a, b], lambda, the extension width and the
grid; --lambda overrides its lambda.  A constant q needs no dq or d2q:
finite differences give it exact zeros.  Every solve iterates to the
solver's TOL.  The sweep's JSON mirror, not its CSV, carries each row's
`certified`: the verdict `solve` exits on.

Exit codes: 0 success; 1 certification failure (the solve finished but
its report is not `certified` or a verify gate failed); 2 numerical
failure or bad input, reported as one `error:` line without a traceback.
Numerical failures are non-convergence, an unresolvable grid, a decay
fit that fails, a Chebyshev fit that does not resolve its function, an
overflowing sample, an OverflowError and a MemoryError;
bad input is a missing or unreadable file, malformed JSON, a missing q,
a or b, an extension width whose square or whose [a - 3w, b + 3w] is not
finite, an unknown name in an expression or one nested too deeply, a q
that is not finite and strictly positive on [a - 3w, b + 3w], a table q
that is not two or more finite [t, q] pairs with increasing knots that
cover that range, a lambda outside about 3.73e-155 to 6.7e153 or so
small that the band multiplier times w overflows, a solve or sweep --out
that is the problem file or a directory, or whose directory does not
exist (refused before any solve), and a bad --oracle-tol.  Each warning
is printed as one `warning:` line; the filters choose which.
"""

import argparse
import dataclasses
import json
import sys
import warnings

from .errors import NophaseError, NumericalError, describe
from .oracle import ORACLE_TOL, check_tol
from .problem import build_problem, load_problem_file
from .solver import solve_problem
from .sweep import check_outputs, run_sweep, sweep_point

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_NUMERICAL = 2


def _resolve_lambda(config, args):
    lam = getattr(args, "lam", None)
    if lam is None:
        lam = config.lam
    if lam is None:
        raise NumericalError("no lambda given on the command line or in the "
                             "problem file")
    return float(lam)


def cmd_solve(args):
    if args.out:
        check_outputs(args.problem, args.out)
    config = load_problem_file(args.problem)
    lam = _resolve_lambda(config, args)
    prob = build_problem(config.coefficient, lam, L=config.grid_L,
                         N=config.grid_N)
    result, _ = solve_problem(prob)
    report = result.bounds_report
    payload = dataclasses.asdict(report)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
    else:
        json.dump(payload, sys.stdout, indent=2)
        print()
    failed = "".join(f" {name}=False" for name in report.failed_checks)
    print(f"solve: lambda={lam:g} iterations={report.iterations} "
          f"nu_inf={report.nu_inf:.3e} certified={report.certified}{failed}",
          file=sys.stderr)
    return EXIT_OK if report.certified else EXIT_CERTIFICATION


def cmd_verify(args):
    check_tol(args.oracle_tol, "--oracle-tol")
    config = load_problem_file(args.problem)
    lam = _resolve_lambda(config, args)
    row = sweep_point(config.coefficient, lam, L=config.grid_L,
                      N=config.grid_N, oracle_tol=args.oracle_tol)

    res_tol = 1e-8 * lam ** 2
    err_tol = max(1e4 * args.oracle_tol, 1e-9)
    res_ok = row.res_kummer <= res_tol
    err_ok = row.err_u <= err_tol and row.err_v <= err_tol
    print(f"verify: lambda={lam:g}")
    print(f"  phase-equation residual  {row.res_kummer:.3e}  "
          f"(tol {res_tol:.1e}) {'ok' if res_ok else 'FAIL'}")
    print(f"  basis error u            {row.err_u:.3e}  "
          f"(tol {err_tol:.1e}) {'ok' if row.err_u <= err_tol else 'FAIL'}")
    print(f"  basis error v            {row.err_v:.3e}  "
          f"(tol {err_tol:.1e}) {'ok' if row.err_v <= err_tol else 'FAIL'}")
    print(f"  nu_inf                   {row.nu_inf:.3e}")
    return EXIT_OK if (res_ok and err_ok) else EXIT_CERTIFICATION


def cmd_sweep(args):
    lambdas = [float(s) for s in args.lambdas.split(",") if s.strip()]
    report = run_sweep(args.problem, lambdas, args.out)
    failed = [row for row in report.rows if row.error is not None]
    for row in failed:
        print(f"sweep: lambda={row.lam:g} failed: {row.error}",
              file=sys.stderr)
    print(f"sweep: {len(report.rows) - len(failed)}/{len(report.rows)} "
          f"lambdas completed -> {args.out}")
    return EXIT_OK if not failed else EXIT_NUMERICAL


def cmd_selftest(args):
    import pytest

    code = pytest.main([_tests_dir(), "-q", "-p", "no:cacheprovider"])
    return EXIT_OK if code == 0 else EXIT_NUMERICAL


def _tests_dir():
    import pathlib

    here = pathlib.Path(__file__).resolve()
    if here.parts[-3:-1] == ("src", "nophase"):
        tests = here.parents[2] / "tests"
        if (tests / "test_acceptance.py").is_file():
            return str(tests)
    raise NumericalError("test suite not found alongside the package")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nophase",
        description="Nonoscillatory phase functions for y'' + l^2 q y = 0 "
                    "via band-limited fixed-point iteration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve and write a bounds report")
    p_solve.add_argument("problem", help="problem definition JSON file")
    p_solve.add_argument("--lambda", dest="lam", type=float, default=None)
    p_solve.add_argument("--out", default=None, help="report JSON path")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser(
        "verify", help="solve and cross-check against an ODE integrator")
    p_verify.add_argument("problem")
    p_verify.add_argument("--lambda", dest="lam", type=float, default=None)
    p_verify.add_argument("--oracle-tol", dest="oracle_tol", type=float,
                          default=ORACLE_TOL)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="per-lambda metrics as CSV")
    p_sweep.add_argument("problem")
    p_sweep.add_argument("--lambdas", required=True,
                         help="comma-separated list, e.g. 20,40,80")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_self = sub.add_parser("selftest", help="run the invariant test suite")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def _show_warning(message, *_):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    shown = warnings.showwarning
    warnings.showwarning = _show_warning
    try:
        return args.func(args)
    except (NophaseError, OSError, ValueError, OverflowError,
            MemoryError) as exc:
        print(f"error: {describe(exc)}", file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        warnings.showwarning = shown


if __name__ == "__main__":
    sys.exit(main())
