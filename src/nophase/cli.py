"""Command-line interface.

Subcommands:
  solve    build and solve a problem, write a bounds report as JSON
  verify   solve and cross-check against an independent ODE integrator
  sweep    run a list of lambdas and write per-lambda metrics as CSV
  selftest run the packaged invariant test suite

Exit codes: 0 success; 1 certification failure (the solve finished but a
certificate flag or a verify gate failed); 2 numerical failure or bad
input, reported as one `error:` line without a traceback.  Numerical
failures are non-convergence, an unresolvable grid, a decay fit that
fails, and an overflowing or asymmetric sample; bad input is a missing or
unreadable file, malformed JSON, a missing q, a or b, an unknown name in
an expression, and a q that is not strictly positive.
"""

import argparse
import json
import sys

from .errors import NophaseError, NumericalError
from .problem import build_problem, load_problem_file
from .solver import solve_problem
from .sweep import run_sweep, sweep_point

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
    config = load_problem_file(args.problem)
    lam = _resolve_lambda(config, args)
    L = args.grid_L if args.grid_L is not None else config.grid_L
    N = args.grid_N if args.grid_N is not None else config.grid_N
    prob = build_problem(config.coefficient, lam, L=L, N=N)
    result, _ = solve_problem(prob, tol=args.tol)
    report = result.bounds_report
    payload = report.as_dict()
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2)
    else:
        json.dump(payload, sys.stdout, indent=2)
        print()
    ok = (report.certified and report.sigma_support_ok
          and report.sigma_decay_ok and report.nu_bound_ok)
    print(f"solve: lambda={lam:g} iterations={report.iterations} "
          f"nu_inf={report.nu_inf:.3e} certified={report.certified}",
          file=sys.stderr)
    return EXIT_OK if ok else EXIT_CERTIFICATION


def cmd_verify(args):
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
    report = run_sweep(args.problem, lambdas, args.out, tol=args.tol)
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
    for parent in here.parents:
        candidate = parent / "tests"
        if candidate.is_dir():
            return str(candidate)
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
    p_solve.add_argument("--grid-N", dest="grid_N", type=int, default=None)
    p_solve.add_argument("--grid-L", dest="grid_L", type=float, default=None)
    p_solve.add_argument("--tol", type=float, default=1e-14)
    p_solve.add_argument("--out", default=None, help="report JSON path")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser(
        "verify", help="solve and cross-check against an ODE integrator")
    p_verify.add_argument("problem")
    p_verify.add_argument("--lambda", dest="lam", type=float, default=None)
    p_verify.add_argument("--oracle-tol", dest="oracle_tol", type=float,
                          default=1e-13)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="per-lambda metrics as CSV")
    p_sweep.add_argument("problem")
    p_sweep.add_argument("--lambdas", required=True,
                         help="comma-separated list, e.g. 20,40,80")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument("--tol", type=float, default=1e-14)
    p_sweep.set_defaults(func=cmd_sweep)

    p_self = sub.add_parser("selftest", help="run the invariant test suite")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NophaseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
