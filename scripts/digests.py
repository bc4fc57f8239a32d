"""SHA-256 digests of the outputs of the benchmark's three workload paths
and of the three input routes for a constant q, one line each.  Two
trees whose digests match give the same bits on these paths.

- solve-ladder: q = 1 + sech^2 t on [-3, 3] (extension width 4) with
  exact derivatives, at lambda = 20, 80, 320 and 1280: the nonnegative
  halves of p-hat and delta-hat (the state a solve computes on), the
  Kummer residual and `eval_basis` at `interior_nodes(-3, 3)`.
- verify-oracle: the four numbers `nophase verify` prints (phase-equation
  residual, basis errors u and v, nu_inf) at lambda = 320, for the same q
  given as expressions with dq and d2q, at the default oracle tolerance.
- sweep-cli: the rows `nophase sweep` writes, every CSV column but
  wall_ms, for the expression q alone at lambda = 20.01, 40.02, 79.99,
  160.05 and 319.9.
- constant-expression, constant-table, constant-callable: the bounds
  report of q = 2 on [-1, 1] at lambda = 10 and 100, given as the
  expression "2", as the table [[-4, 2], [4, 2]], and as a numpy
  callable without derivatives.

Warnings (uncertified solves) are not printed.  Run it from a checkout:

    PYTHONPATH=src python scripts/digests.py
"""

import csv
import dataclasses
import hashlib
import json
import pathlib
import tempfile
import warnings

import numpy as np

from nophase import (Coefficient, build_phase, build_problem, eval_basis,
                     kummer_residual, solve_problem)
from nophase.phase import interior_nodes
from nophase.problem import problem_config_from_dict
from nophase.sweep import run_sweep, sweep_point

A, B, WIDTH = -3.0, 3.0, 4.0
Q_EXPR = "1 + sech(t)**2"
DQ_EXPR = "-(exp(t) - exp(-t))*sech(t)**3"
D2Q_EXPR = "((exp(t) - exp(-t))**2 - 2)*sech(t)**4"
LADDER = (20.0, 80.0, 320.0, 1280.0)
VERIFY_LAMBDA = 320.0
SWEEP = (20.01, 40.02, 79.99, 160.05, 319.9)
CONSTANT = {"a": -1, "b": 1}
CONSTANT_LAMBDAS = (10.0, 100.0)


def sech2(t):
    return 1.0 + 1.0 / np.cosh(np.asarray(t, dtype=float)) ** 2


def dsech2(t):
    t = np.asarray(t, dtype=float)
    return -2.0 * np.sinh(t) / np.cosh(t) ** 3


def d2sech2(t):
    t = np.asarray(t, dtype=float)
    return (4.0 * np.sinh(t) ** 2 - 2.0) / np.cosh(t) ** 4


def digest(parts):
    """SHA-256 over strings as UTF-8 and arrays as their raw bytes."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str)
                 else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def solve_ladder():
    coeff = Coefficient.make(sech2, A, B, dq=dsech2, d2q=d2sech2,
                             extension_width=WIDTH)
    nodes = interior_nodes(A, B)
    parts = []
    for lam in LADDER:
        prob = build_problem(coeff, lam)
        result, _ = solve_problem(prob)
        phase = build_phase(result, prob)
        parts += [prob.p_hat.half, result.delta_hat.half,
                  kummer_residual(phase, coeff.q, nodes),
                  *eval_basis(phase, nodes)]
    return digest(parts)


def verify_oracle():
    config = problem_config_from_dict({
        "q": Q_EXPR, "dq": DQ_EXPR, "d2q": D2Q_EXPR, "a": A, "b": B,
        "extension_width": WIDTH})
    row = sweep_point(config.coefficient, VERIFY_LAMBDA)
    return digest([np.array([row.res_kummer, row.err_u, row.err_v,
                             row.nu_inf])])


def sweep_cli():
    with tempfile.TemporaryDirectory() as tmp:
        problem = pathlib.Path(tmp) / "problem.json"
        problem.write_text(json.dumps({"q": Q_EXPR, "a": A, "b": B,
                                       "extension_width": WIDTH}))
        out = pathlib.Path(tmp) / "rows.csv"
        run_sweep(str(problem), SWEEP, str(out))
        with open(out, newline="") as handle:
            rows = [row[:-1] for row in csv.reader(handle)]  # no wall_ms
    return digest([json.dumps(rows)])


def constant_reports(coeff):
    reports = []
    for lam in CONSTANT_LAMBDAS:
        result, _ = solve_problem(build_problem(coeff, lam))
        reports.append(dataclasses.asdict(result.bounds_report))
    return digest([json.dumps(reports, sort_keys=True)])


def main():
    warnings.simplefilter("ignore")
    routes = {
        "expression": problem_config_from_dict(
            dict(CONSTANT, q="2")).coefficient,
        "table": problem_config_from_dict(
            dict(CONSTANT, q=[[-4, 2], [4, 2]])).coefficient,
        "callable": Coefficient.make(
            lambda t: np.full_like(np.asarray(t, dtype=float), 2.0),
            CONSTANT["a"], CONSTANT["b"]),
    }
    lines = {"solve-ladder": solve_ladder(), "verify-oracle": verify_oracle(),
             "sweep-cli": sweep_cli()}
    for route, coeff in routes.items():
        lines[f"constant-{route}"] = constant_reports(coeff)
    for name, value in lines.items():
        print(f"{name:<20} {value}")


if __name__ == "__main__":
    main()
