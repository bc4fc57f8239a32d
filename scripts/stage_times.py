"""Per-stage wall times of the solve-ladder solves, per lambda.

Solves q = 1 + sech^2 t on [-3, 3] (extension width 4, exact
derivatives) at lambda = 20, 80, 320, 1280 on one fresh Coefficient per
pass, as perfbench's solve-ladder workload does, and prints one JSON
object.  Per lambda it gives the median over the timed passes (one
untimed warm-up pass first) of the ms spent in `build_problem`, the bump
(`make_bump`), the fixed point (`fixed_point_solve`, in all and per
iteration), the extraction (`extract_solution`),
`build_phase`, the checks (`kummer_residual` and `eval_basis` at the 400
interior nodes, as solve-ladder runs them) and the DOP853 oracle (one
`basis_error` at its default ORACLE_TOL, as `verify` and `sweep` run it),
with the grid N, the fixed-point iterations and the ratios of their
successive L1 increments (the measured contraction the solver stops
on), the points at which q, q' and q'' are evaluated in
`build_problem`, the points at which the oracle evaluates q, the
passes of the oracle's step loop (oracle_steps: its q calls less the
two before the loop, at the lane ends and for the first steps, so that
oracle_ms / oracle_steps is the cost of one pass), the
oracle's microseconds per q point, and the points at which delta's
trigonometric series is summed.  A point is one node of a
q call, whether the call takes an array or a scalar.  Three call counts
follow: ffts, the numpy.fft calls inside the bump, the fixed point and
the extraction (the script wraps every transform of numpy.fft to count
them), fit_rounds, the `ChebSeries.fit` calls inside `build_phase`,
one per doubling round of its adaptive fits, and clenshaw_passes, the
calls of the one Clenshaw kernel of `nophase.chebseries` (`clenshaw`, wrapped;
`chebval` and every `ChebSeries` sum run through it) from
`build_problem` through the oracle, each of which sums one stack of
series at one point set.
r_len and alpha_len are the coefficient counts of the phase's r and
alpha, the lengths the checks sum.  A last row,
"320-expression", times the same lambda = 320 oracle with q compiled
from "1 + sech(t)**2", as the CLI runs it on a problem file, and q_us,
the microseconds per point of that q alone on an array of 10 000 nodes
in [a, b]; oracle_us_per_q_point - q_us is the integrator's own share.

After the timed passes, one more pass gives build_problem_peak_kb and
build_phase_peak_kb per lambda, the peaks in kB that tracemalloc traces
inside `build_problem` on a fresh coefficient (its map and every level
of p-hat built in the call) and inside `build_phase` (traced apart, so
that no time carries tracemalloc's overhead), and a row "640-fd" with
both peaks at lambda = 640 for q compiled from the same expression with
no derivatives given (finite differences, as a sweep of a problem file
without dq and d2q runs it) and its grid N.

The three calls of the lambda stage are each timed with perf_counter as
the script makes them.  q, its derivatives and its expression are
scripts/digests.py's.  Run it against the tree to measure:

    PYTHONPATH=src python scripts/stage_times.py --passes 15
"""

import argparse
import dataclasses
import json
import time
import tracemalloc
import warnings

import numpy as np

import nophase.chebseries
import nophase.phase
from nophase.chebseries import ChebSeries
from nophase import (Coefficient, basis_error, build_phase, build_problem,
                     eval_basis, fixed_point_solve, kummer_residual,
                     make_bump, solve_problem)
from nophase.solver import extract_solution
from nophase.expr import compile_expression
from nophase.phase import interior_nodes
from digests import Q_EXPR, d2sech2, dsech2, sech2

LAMBDAS = (20.0, 80.0, 320.0, 1280.0)
EXPRESSION_LAMBDA = 320.0
FD_LAMBDA = 640.0
Q_POINTS = 10_000
FFTS = [name for name in np.fft.__all__
        if not name.endswith(("shift", "freq"))]  # the transforms


class Stages:
    """Counters around the transforms, the series and the evaluator."""

    def __init__(self):
        self.points = {"q_points": 0, "evaluator_points": 0}
        self.point_calls = dict.fromkeys(self.points, 0)
        self.calls = {"ffts": 0, "fit_rounds": 0, "clenshaw_passes": 0}
        self._install()

    def counted(self, f, key):
        def call(t):
            self.points[key] += np.size(t)
            self.point_calls[key] += 1
            return f(t)
        return call

    def _call_counter(self, original, key):
        def call(*args, **kwargs):
            self.calls[key] += 1
            return original(*args, **kwargs)
        return call

    def _install(self):
        for name in FFTS:
            setattr(np.fft, name,
                    self._call_counter(getattr(np.fft, name), "ffts"))
        nophase.chebseries.clenshaw = self._call_counter(
            nophase.chebseries.clenshaw, "clenshaw_passes")
        fit = ChebSeries.fit.__func__
        ChebSeries.fit = classmethod(self._call_counter(fit, "fit_rounds"))
        evaluator = nophase.phase.band_limited_evaluator
        nophase.phase.band_limited_evaluator = \
            lambda F: self.counted(evaluator(F), "evaluator_points")


def one_pass(stages):
    coeff = Coefficient.make(stages.counted(sech2, "q_points"), -3.0, 3.0,
                             dq=stages.counted(dsech2, "q_points"),
                             d2q=stages.counted(d2sech2, "q_points"),
                             extension_width=4.0)
    q_alone = compile_expression(Q_EXPR)
    q_expression = stages.counted(q_alone, "q_points")
    nodes = interior_nodes(-3.0, 3.0)
    rows = {}
    for lam in LAMBDAS:
        for key in stages.points:
            stages.points[key] = 0
        clenshaw_passes = stages.calls["clenshaw_passes"]
        t0 = time.perf_counter()
        prob = build_problem(coeff, lam)
        t1 = time.perf_counter()
        q_points = stages.points["q_points"]
        ffts = stages.calls["ffts"]
        bump = make_bump(prob.grid, prob.lam)
        t_bump = time.perf_counter()
        state = fixed_point_solve(prob.p_hat, bump)
        t_fixed = time.perf_counter()
        result = extract_solution(state, prob)
        t2 = time.perf_counter()
        ffts = stages.calls["ffts"] - ffts
        fit_rounds = stages.calls["fit_rounds"]
        phase = build_phase(result, prob)
        t3 = time.perf_counter()
        fit_rounds = stages.calls["fit_rounds"] - fit_rounds
        np.max(np.abs(kummer_residual(phase, coeff.q, nodes)))
        eval_basis(phase, nodes)
        t4 = time.perf_counter()
        q_points_before = stages.points["q_points"]
        q_calls_before = stages.point_calls["q_points"]
        basis_error(phase, prob)
        t5 = time.perf_counter()
        rows[f"{lam:g}"] = {
            "build_problem_ms": 1e3 * (t1 - t0),
            "bump_ms": 1e3 * (t_bump - t1),
            "fixed_point_ms": 1e3 * (t_fixed - t_bump),
            "fixed_point_iter_ms": 1e3 * (t_fixed - t_bump) / state.iteration,
            "extract_ms": 1e3 * (t2 - t_fixed),
            "build_phase_ms": 1e3 * (t3 - t2),
            "checks_ms": 1e3 * (t4 - t3),
            "oracle_ms": 1e3 * (t5 - t4),
            "grid_n": prob.grid.n_points,
            "iterations": state.iteration,
            "increment_ratios": [
                float(f"{b / a:.3g}")
                for a, b in zip(state.l1_deltas, state.l1_deltas[1:])],
            "q_points": q_points,
            "oracle_q_points": stages.points["q_points"] - q_points_before,
            "oracle_steps": stages.point_calls["q_points"]
            - q_calls_before - 2,
            "evaluator_points": stages.points["evaluator_points"],
            "ffts": ffts,
            "fit_rounds": fit_rounds,
            "clenshaw_passes": stages.calls["clenshaw_passes"]
            - clenshaw_passes,
            "delta_degree": phase.delta_degree,
            "r_len": len(phase.r_t.coef),
            "alpha_len": len(phase.alpha_t.coef),
        }
        if lam == EXPRESSION_LAMBDA:
            expression_prob = dataclasses.replace(
                prob, coefficient=dataclasses.replace(prob.coefficient,
                                                      q=q_expression))
            expression_phase = phase
    stages.points["q_points"] = 0
    t0 = time.perf_counter()
    basis_error(expression_phase, expression_prob)
    oracle_ms = 1e3 * (time.perf_counter() - t0)
    points = np.linspace(-3.0, 3.0, Q_POINTS)
    t0 = time.perf_counter()
    q_alone(points)
    rows[f"{EXPRESSION_LAMBDA:g}-expression"] = {
        "oracle_ms": oracle_ms,
        "oracle_q_points": stages.points["q_points"],
        "q_us": 1e6 * (time.perf_counter() - t0) / Q_POINTS,
    }
    return rows


def traced_peak_kb(f, *args):
    """f(*args) and the peak in kB that tracemalloc traces inside it."""
    tracemalloc.start()
    try:
        out = f(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, round(peak / 1e3)


def peaks():
    """{row: {"build_problem_peak_kb": ..., "build_phase_peak_kb": ...}}
    per lambda of LAMBDAS, and for the row f"{FD_LAMBDA:g}-fd", the
    expression q without derivatives, with its grid N."""
    def sech():
        return Coefficient.make(sech2, -3.0, 3.0, dq=dsech2, d2q=d2sech2,
                                extension_width=4.0)

    def fd():
        return Coefficient.make(compile_expression(Q_EXPR), -3.0, 3.0,
                                extension_width=4.0)

    cases = [(f"{lam:g}", sech, lam) for lam in LAMBDAS]
    cases.append((f"{FD_LAMBDA:g}-fd", fd, FD_LAMBDA))
    rows = {}
    for row, make, lam in cases:
        with warnings.catch_warnings():
            # the finite-difference route is not certified at FD_LAMBDA
            warnings.filterwarnings("ignore", "solvability hypotheses")
            prob, problem_kb = traced_peak_kb(build_problem, make(), lam)
            result, _ = solve_problem(prob)
        _, phase_kb = traced_peak_kb(build_phase, result, prob)
        rows[row] = {"build_problem_peak_kb": problem_kb,
                     "build_phase_peak_kb": phase_kb}
        if row.endswith("-fd"):
            rows[row]["grid_n"] = prob.grid.n_points
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=15)
    args = parser.parse_args()
    stages = Stages()
    one_pass(stages)  # warm-up
    passes = [one_pass(stages) for _ in range(args.passes)]
    out = {}
    for row, keys in passes[0].items():
        out[row] = {k: (round(float(np.median([p[row][k] for p in passes])),
                              3 if k.endswith("_us") else 2)
                        if k.endswith(("_ms", "_us")) else keys[k])
                    for k in keys}
        out[row]["oracle_us_per_q_point"] = round(
            1e3 * out[row]["oracle_ms"] / out[row]["oracle_q_points"], 3)
    for row, traced in peaks().items():
        out.setdefault(row, {}).update(traced)
    print(json.dumps({"passes": args.passes, "stages": out}))


if __name__ == "__main__":
    main()
