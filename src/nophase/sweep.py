"""Lambda-sweep studies: solve, validate, and report per-lambda metrics
as CSV and JSON."""

import csv
import json
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import ConfigurationError, NophaseError
from .oracle import basis_error
from .phase import build_phase, interior_nodes, kummer_residual
from .problem import build_problem, load_problem_file
from .solver import solve_problem

CSV_COLUMNS = ["lambda", "iterations", "gamma", "mu", "nu_inf",
               "res_kummer", "err_u", "err_v", "cheb_degree", "wall_ms"]

NU_FLOOR = 1e-15  # rows below this are flagged as floor-limited


@dataclass
class SweepRow:
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


def sweep_point(coefficient, lam, L=None, N=None, tol=1e-14,
                oracle_tol=1e-13):
    """One sweep item: solve, assemble the phase, and validate."""
    start = time.perf_counter()
    prob = build_problem(coefficient, lam, L=L, N=N)
    result, _ = solve_problem(prob, tol=tol)
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
        floor_limited=report.nu_inf < NU_FLOOR,
    )


def run_sweep(problem_file, lambdas, out, tol=1e-14, oracle_tol=1e-13):
    """Per-lambda solve + validation over a list of lambdas; per-lambda
    failures are recorded as NaN rows and the sweep continues.  Writes CSV
    to `out` and JSON alongside it, and refuses, before any solve, when
    either path is the problem file."""
    out = str(out)
    json_path = out[:-4] + ".json" if out.endswith(".csv") else out + ".json"
    for path in (out, json_path):
        if os.path.exists(path) and os.path.samefile(path, problem_file):
            raise ConfigurationError(
                f"sweep output {path} would overwrite the problem file")
    config = load_problem_file(problem_file)
    report = SweepReport(problem=str(problem_file))

    def one(lam):
        try:
            return sweep_point(config.coefficient, float(lam),
                               L=config.grid_L, N=config.grid_N,
                               tol=tol, oracle_tol=oracle_tol)
        except (NophaseError, ValueError) as exc:
            return SweepRow(lam=float(lam), error=str(exc))

    report.rows = [one(lam) for lam in lambdas]
    report.write_csv(out)
    report.write_json(json_path)
    return report


def fit_slope(lams, values):
    """Least-squares slope of log(values) against lambda."""
    lams = np.asarray(lams, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0
    slope, _ = np.polyfit(lams[keep], np.log(values[keep]), 1)
    return float(slope)
