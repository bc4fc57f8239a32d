"""Lambda-sweep studies: solve, validate, and report per-lambda metrics
as CSV and JSON."""

import csv
import json
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigurationError, DomainError, NophaseError, describe
from .oracle import ORACLE_TOL, basis_error
from .phase import build_phase, interior_nodes, kummer_residual
from .problem import build_problem, load_problem_file
from .solver import solve_problem

CSV_COLUMNS = ["lambda", "iterations", "gamma", "mu", "nu_inf",
               "res_kummer", "err_u", "err_v", "cheb_degree", "wall_ms"]


@dataclass
class SweepRow:
    """One lambda of a sweep.  `certified` is the solve's verdict, the one
    `nophase solve` exits on, and `floor_limited` its `nu_floor_limited`;
    they reach the JSON mirror but not the CSV.  A row whose solve or
    check raised holds the message in `error` and NaN or -1 elsewhere."""

    lam: float
    iterations: int = -1
    gamma: float = np.nan
    mu: float = np.nan
    nu_inf: float = np.nan
    res_kummer: float = np.nan
    err_u: float = np.nan
    err_v: float = np.nan
    cheb_degree: int = -1
    wall_ms: float = np.nan
    certified: bool = False
    floor_limited: bool = False
    error: str = None


@dataclass
class SweepReport:
    problem: str
    rows: list = field(default_factory=list)

    def write_csv(self, path):
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            for row in self.rows:
                writer.writerow([
                    f"{row.lam:g}",
                    f"{row.iterations:d}",
                    f"{row.gamma:.16e}",
                    f"{row.mu:.16e}",
                    f"{row.nu_inf:.16e}",
                    f"{row.res_kummer:.16e}",
                    f"{row.err_u:.16e}",
                    f"{row.err_v:.16e}",
                    f"{row.cheb_degree:d}",
                    f"{row.wall_ms:.3f}",
                ])

    def write_json(self, path):
        payload = {"problem": self.problem,
                   "rows": [asdict(r) for r in self.rows]}
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)


def sweep_point(coefficient, lam, L=None, N=None, oracle_tol=ORACLE_TOL):
    """One sweep item: solve to the solver's TOL on the grid L, N
    (`build_problem`), assemble the phase, and validate it by the Kummer
    residual at the interior nodes and the basis error at oracle_tol."""
    start = time.perf_counter()
    prob = build_problem(coefficient, lam, L=L, N=N)
    result, _ = solve_problem(prob)
    phase = build_phase(result, prob)
    nodes = interior_nodes(phase.a, phase.b)
    res = float(np.max(np.abs(
        kummer_residual(phase, prob.coefficient.q, nodes))))
    err_u, err_v = basis_error(phase, prob, tol=oracle_tol)
    report = result.bounds_report
    wall_ms = 1000.0 * (time.perf_counter() - start)
    return SweepRow(
        lam=lam,
        iterations=report.iterations,
        gamma=prob.gamma_fit,
        mu=prob.mu_fit,
        nu_inf=report.nu_inf,
        res_kummer=res,
        err_u=err_u,
        err_v=err_v,
        cheb_degree=phase.delta_degree,
        wall_ms=wall_ms,
        certified=report.certified,
        floor_limited=report.nu_floor_limited,
    )


def check_outputs(problem_file, *paths):
    """ConfigurationError when an output path is the problem file or a
    directory, or its directory does not exist; checked before any solve."""
    for path in paths:
        if os.path.exists(path) and os.path.samefile(path, problem_file):
            raise ConfigurationError(
                f"output {path} would overwrite the problem file")
        if os.path.isdir(path):
            raise ConfigurationError(f"output {path} is a directory")
        directory = os.path.dirname(path)
        if not os.path.isdir(directory or "."):
            raise ConfigurationError(
                f"output directory {directory} does not exist")


def run_sweep(problem_file, lambdas, out):
    """`sweep_point` at each lambda of a list, on the problem file's grid;
    per-lambda failures, an OverflowError or a MemoryError among them,
    are recorded as NaN rows and the sweep continues.
    Writes CSV to `out` and JSON alongside it, and refuses, before any
    solve, paths that `check_outputs` refuses, or no lambda."""
    lambdas = list(lambdas)
    if not lambdas:
        raise DomainError("no lambda to sweep")
    out = str(out)
    json_path = out[:-4] + ".json" if out.endswith(".csv") else out + ".json"
    check_outputs(problem_file, out, json_path)
    config = load_problem_file(problem_file)
    report = SweepReport(problem=str(problem_file))

    def one(lam):
        try:
            return sweep_point(config.coefficient, float(lam),
                               L=config.grid_L, N=config.grid_N)
        except (NophaseError, ValueError, OverflowError, MemoryError) as exc:
            return SweepRow(lam=float(lam), error=describe(exc))

    report.rows = [one(lam) for lam in lambdas]
    report.write_csv(out)
    report.write_json(json_path)
    return report

