"""The certificate over a fixed gallery of q, on both input routes.

Five q, each on its own [a, b] with the default extension width, are
solved at lambda = 160, 640, 2560 and 1e4, once given with exact
derivative expressions ("exact") and once without them, so that finite
differences give q' and q'' ("fd").  Each row prints the grid N, the
fitted Gamma and mu, the Chebyshev degree of delta, the verdict
`certified` with the checks that fail (`BoundsReport.failed_checks`), or
the error that ended the row, and the ms of `build_problem`,
`solve_problem` and `build_phase` on a fresh coefficient.  Warnings are
not printed; the failed checks name what they would.  Run it from a
checkout:

    PYTHONPATH=src python scripts/gallery.py
"""

import time
import warnings

from nophase import build_phase, build_problem, solve_problem
from nophase.errors import NophaseError, describe
from nophase.problem import problem_config_from_dict

# q, q', q'' as expressions, and [a, b]
QS = (
    ("1 + 0.5*sin(3*t)", "1.5*cos(3*t)", "-4.5*sin(3*t)", -1.0, 2.0),
    ("exp(t)", "exp(t)", "exp(t)", -1.0, 1.0),
    ("1/(1 + t**2)", "-2*t/(1 + t**2)**2", "(6*t**2 - 2)/(1 + t**2)**3",
     -2.0, 2.0),
    ("2 + cos(20*t)", "-20*sin(20*t)", "-400*cos(20*t)", 0.0, 1.0),
    ("0.05 + t**2", "2*t", "2 + 0*t", -1.0, 1.0),
)
LAMBDAS = (160.0, 640.0, 2560.0, 1e4)
ROUTES = ("exact", "fd")


def cases():
    """(route, problem definition, lambda) of every row, in print order."""
    for q, dq, d2q, a, b in QS:
        for route in ROUTES:
            data = {"q": q, "a": a, "b": b}
            if route == "exact":
                data.update(dq=dq, d2q=d2q)
            for lam in LAMBDAS:
                yield route, data, lam


def run_case(data, lam):
    """The row of one case, as a dict: N, gamma, mu, degree, certified,
    failed (the failed checks), error and ms.  A stage that raises a
    NophaseError leaves the fields of the stages after it None."""
    row = dict.fromkeys(("N", "gamma", "mu", "degree", "certified",
                         "failed", "error"))
    start = time.perf_counter()
    try:
        prob = build_problem(problem_config_from_dict(data).coefficient, lam)
        row.update(N=prob.grid.n_points, gamma=prob.gamma_fit,
                   mu=prob.mu_fit)
        result, _ = solve_problem(prob)
        report = result.bounds_report
        row.update(certified=report.certified, failed=report.failed_checks)
        row["degree"] = build_phase(result, prob).delta_degree
    except NophaseError as exc:
        row["error"] = describe(exc)
    row["ms"] = 1000.0 * (time.perf_counter() - start)
    return row


def _cell(value, spec):
    return "-" if value is None else format(value, spec)


def main():
    warnings.simplefilter("ignore")
    print(f"{'q':<18} {'route':<5} {'lambda':>6} {'N':>7} {'Gamma':>9} "
          f"{'mu':>9} {'degree':>6} {'ms':>8}  verdict")
    for route, data, lam in cases():
        row = run_case(data, lam)
        verdict = f"certified={row['certified']}" + "".join(
            f" {name}=False" for name in row["failed"] or ())
        if row["error"] is not None:
            verdict += f" error: {row['error']}"
        print(f"{data['q']:<18} {route:<5} {lam:>6g} "
              f"{_cell(row['N'], 'd'):>7} {_cell(row['gamma'], '.3g'):>9} "
              f"{_cell(row['mu'], '.3g'):>9} {_cell(row['degree'], 'd'):>6} "
              f"{row['ms']:>8.1f}  {verdict}")


if __name__ == "__main__":
    main()
