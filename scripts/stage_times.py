"""Per-stage wall times of the solve-ladder solves, per lambda.

Solves q = 1 + sech^2 t on [-3, 3] (extension width 4, exact
derivatives) at lambda = 20, 80, 320, 1280 on one fresh Coefficient per
pass, as perfbench's solve-ladder workload does, and prints one JSON
object.  Per lambda it gives the median over the timed passes (one
untimed warm-up pass first) of the ms spent in `build_problem`, the bump,
the fixed point, the extraction and `build_phase`, with the grid N, the
points at which q, q' and q'' are evaluated in `build_problem`, and the
points at which delta's trigonometric series is summed.

The bump is timed as `solve_problem` minus its fixed point and its
extraction, so the script runs unchanged on trees that choose the bump
differently.  Run it against the tree to measure:

    PYTHONPATH=src python scripts/stage_times.py --passes 15
"""

import argparse
import json
import time

import numpy as np

import nophase.phase
import nophase.solver
from nophase import Coefficient, build_phase, build_problem, solve_problem

LAMBDAS = (20.0, 80.0, 320.0, 1280.0)


def sech2(t):
    return 1.0 + 1.0 / np.cosh(np.asarray(t, dtype=float)) ** 2


def dsech2(t):
    t = np.asarray(t, dtype=float)
    return -2.0 * np.sinh(t) / np.cosh(t) ** 3


def d2sech2(t):
    t = np.asarray(t, dtype=float)
    return (4.0 * np.sinh(t) ** 2 - 2.0) / np.cosh(t) ** 4


class Stages:
    """Counters and timers around the solver and evaluator functions."""

    def __init__(self):
        self.ms = {}
        self.points = {"q_points": 0, "evaluator_points": 0}
        self._install()

    def _timed(self, module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.ms[name] = 1e3 * (time.perf_counter() - start)

        setattr(module, name, call)

    def counted(self, f, key):
        def call(t):
            self.points[key] += np.size(t)
            return f(t)
        return call

    def _install(self):
        self._timed(nophase.solver, "fixed_point_solve")
        self._timed(nophase.solver, "extract_solution")
        evaluator = nophase.phase.band_limited_evaluator
        nophase.phase.band_limited_evaluator = \
            lambda F: self.counted(evaluator(F), "evaluator_points")


def one_pass(stages):
    coeff = Coefficient.make(stages.counted(sech2, "q_points"), -3.0, 3.0,
                             dq=stages.counted(dsech2, "q_points"),
                             d2q=stages.counted(d2sech2, "q_points"),
                             extension_width=4.0)
    rows = {}
    for lam in LAMBDAS:
        for key in stages.points:
            stages.points[key] = 0
        t0 = time.perf_counter()
        prob = build_problem(coeff, lam)
        t1 = time.perf_counter()
        q_points = stages.points["q_points"]
        result, _ = solve_problem(prob)
        t2 = time.perf_counter()
        phase = build_phase(result, prob)
        t3 = time.perf_counter()
        solve_ms = 1e3 * (t2 - t1)
        rows[lam] = {
            "build_problem_ms": 1e3 * (t1 - t0),
            "bump_ms": solve_ms - stages.ms["fixed_point_solve"]
            - stages.ms["extract_solution"],
            "fixed_point_ms": stages.ms["fixed_point_solve"],
            "extract_ms": stages.ms["extract_solution"],
            "build_phase_ms": 1e3 * (t3 - t2),
            "grid_n": prob.grid.n_points,
            "q_points": q_points,
            "evaluator_points": stages.points["evaluator_points"],
            "delta_degree": phase.delta_degree,
        }
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=15)
    args = parser.parse_args()
    stages = Stages()
    one_pass(stages)  # warm-up
    passes = [one_pass(stages) for _ in range(args.passes)]
    out = {}
    for lam in LAMBDAS:
        keys = passes[0][lam]
        out[f"{lam:g}"] = {k: (round(float(np.median([p[lam][k] for p in passes])), 2)
                               if k.endswith("_ms") else passes[0][lam][k])
                           for k in keys}
    print(json.dumps({"passes": args.passes, "stages": out}))


if __name__ == "__main__":
    main()
