"""End-to-end acceptance checks.

Each test emits a single PASS/FAIL line; the lines are echoed in the
terminal summary so every numbered check is visible in any run.
"""

import numpy as np
import pytest

import conftest
from conftest import make_constant_coefficient, make_sech_coefficient
from helpers import apply_S, exp2_star_series, fit_slope
from nophase.convexp import exp2_star
from nophase.grid import (RealSample, SpectralGrid, convolve, forward,
                          inverse, l1_norm, linf_norm)
from liouville import liouville_green
from nophase.oracle import basis_error
from nophase.phase import (PhaseFunction, build_phase, interior_nodes,
                           kummer_residual)
from nophase.problem import build_map, build_problem, choose_grid
from nophase.solver import (apply_Wb, fixed_point_solve, make_bump,
                            solve_problem)
from nophase.sweep import sweep_point


def report(number, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name} ({detail})"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def wide_sech_coefficient():
    return make_sech_coefficient(a=-7.0, b=7.0, extension_width=4.0)


def test_criterion_1_constant_coefficient_exactness():
    worst_sigma = worst_nu = worst_alpha = worst_basis = 0.0
    for lam in (10.0, 100.0):
        prob = build_problem(make_constant_coefficient(1.0, 0.0, 1.0), lam)
        result, _ = solve_problem(prob)
        phase = build_phase(result, prob)
        t = np.linspace(0.0, 1.0, 201)
        worst_sigma = max(worst_sigma,
                          float(np.max(np.abs(result.sigma_hat.values))))
        worst_nu = max(worst_nu, linf_norm(result.nu))
        alpha_err = np.max(np.abs(phase.alpha_t(t) - lam * t)) / lam
        worst_alpha = max(worst_alpha, float(alpha_err))
        worst_basis = max(worst_basis, *basis_error(phase, prob))
    ok = (worst_sigma == 0.0 and worst_nu == 0.0
          and worst_alpha <= 1e-13 and worst_basis <= 1e-11)
    report(1, "constant-coefficient exactness", ok,
           f"sigma={worst_sigma:g} nu={worst_nu:g} "
           f"alpha_rel={worst_alpha:.1e} basis={worst_basis:.1e}")


def test_criterion_2_chebyshev_closed_form():
    # alpha = lambda*arccos(t) solves the phase equation for
    # q(t) = (2 + t^2 + 4 lam^2 (1 - t^2)) / (4 lam^2 (1 - t^2)^2),
    # which is the log-derivative r = -log(1 - t^2)
    a, b = -0.9, 0.9
    r = lambda t: -np.log(1.0 - np.asarray(t) ** 2)
    dr = lambda t: 2.0 * np.asarray(t) / (1.0 - np.asarray(t) ** 2)
    d2r = lambda t: 2.0 * (1.0 + np.asarray(t) ** 2) \
        / (1.0 - np.asarray(t) ** 2) ** 2
    details = []
    ok = True
    for lam in (10.0, 50.0):
        q = lambda t: ((2.0 + np.asarray(t) ** 2
                        + 4.0 * lam ** 2 * (1.0 - np.asarray(t) ** 2))
                       / (4.0 * lam ** 2 * (1.0 - np.asarray(t) ** 2) ** 2))
        phase = PhaseFunction.from_log_derivative(r, dr, d2r, lam, a, b)
        res = float(np.max(np.abs(kummer_residual(
            phase, q, interior_nodes(a, b)))))
        ok = ok and res <= 1e-9 * lam ** 2
        details.append(f"lam={lam:g}:res={res:.1e}")
    report(2, "closed-form phase for Chebyshev-type coefficient", ok,
           " ".join(details))


def test_criterion_3_contraction_measurement(sech_coefficient):
    lam = 40.0
    prob = build_problem(sech_coefficient, lam)
    state = fixed_point_solve(prob.p_hat, make_bump(prob.grid, lam))
    deltas = state.l1_deltas
    threshold = 1e-13 * l1_norm(prob.p_hat)
    ratios = [b / a for a, b in zip(deltas[:-1], deltas[1:])
              if a > threshold]
    worst = max(ratios) if ratios else 0.0
    # a returned state converged: otherwise ConvergenceError is raised
    ok = state.iteration <= 30 and worst <= 0.82
    report(3, "fixed-point contraction ratio", ok,
           f"iterations={state.iteration} worst_ratio={worst:.2e}")


def test_criterion_4_decay_bound_suite(sech_coefficient):
    checked = 0
    ok = True
    details = []
    for lam in (15.0, 20.0, 25.0, 30.0, 40.0):
        prob = build_problem(sech_coefficient, lam)
        if not prob.lam > 2.0 * max(1.0 / prob.mu_fit, prob.gamma_fit):
            continue
        checked += 1
        result, _ = solve_problem(prob)
        rep = result.bounds_report
        ok = ok and rep.sigma_support_ok and rep.sigma_decay_ok \
            and rep.nu_bound_ok
        details.append(
            f"lam={lam:g}:{'ok' if rep.sigma_support_ok and rep.sigma_decay_ok and rep.nu_bound_ok else 'bad'}")
    ok = ok and checked >= 3
    report(4, "support and decay bounds for sigma and nu", ok,
           f"{checked} lambdas qualified; " + " ".join(details))


@pytest.mark.filterwarnings("ignore:solvability hypotheses")
def test_criterion_5_decay_rate_reproduction(sech_coefficient):
    lams = [15.0, 20.0, 25.0, 30.0]
    grid = choose_grid(build_map(sech_coefficient), max(lams))
    L, N = grid.half_width, grid.n_points
    mu = build_problem(sech_coefficient, lams[0], L=L, N=N).mu_fit
    rows = [sweep_point(sech_coefficient, lam, L=L, N=N) for lam in lams]
    keep = [(r.lam, r.nu_inf, r.err_u) for r in rows
            if not r.floor_limited]
    kept_lams = [k[0] for k in keep]
    s_nu = fit_slope(kept_lams, [k[1] for k in keep])
    s_err = fit_slope(kept_lams, [k[2] for k in keep])
    ok = (len(keep) >= 3
          and s_nu <= -0.9 * mu
          and -2.0 * mu <= s_err <= -0.5 * mu)
    report(5, "exponential decay rates of nu and basis error", ok,
           f"mu={mu:.3f} slope_nu={s_nu:.3f} slope_err={s_err:.3f}")


@pytest.mark.filterwarnings("ignore:solvability hypotheses")
def test_criterion_6_lambda_independent_representation(
        wide_sech_coefficient):
    L, N = 26.5, 8192
    degrees = []
    for lam in (20.0, 40.0, 80.0, 160.0):
        prob = build_problem(wide_sech_coefficient, lam, L=L, N=N)
        result, _ = solve_problem(prob)
        phase = build_phase(result, prob)
        degrees.append(phase.delta_degree)
    spread = max(degrees) - min(degrees)
    ok = spread <= 5
    report(6, "lambda-independent Chebyshev degree of delta", ok,
           f"degrees={degrees} spread={spread}")


def test_criterion_7_oracle_equivalence(rng):
    grid = SpectralGrid(6.0, 64)
    worst_exp = 0.0
    for _ in range(25):
        f = np.exp(-grid.x ** 2) * rng.standard_normal(64)
        F = forward(RealSample(grid, f))
        F = type(F)(grid, F.values * (rng.uniform(0.05, 1.0) / l1_norm(F)))
        diff = exp2_star(F).values - exp2_star_series(F, 20).values
        worst_exp = max(worst_exp,
                        l1_norm(type(F)(grid, diff)))
    small = SpectralGrid(5.0, 32)
    Fc = forward(RealSample(small, rng.standard_normal(32)))
    Gc = forward(RealSample(small, rng.standard_normal(32)))
    n = small.n_points
    ref = np.zeros(n, dtype=complex)
    for k in range(n):
        idx = (k + n // 2 - np.arange(n)) % n
        ref[k] = np.sum(Fc.values[idx] * Gc.values)
    ref *= small.dxi / (2.0 * np.pi)
    conv_err = float(np.max(np.abs(convolve(Fc, Gc).values - ref)))
    ok = worst_exp <= 1e-12 and conv_err <= 1e-10
    report(7, "fast paths match direct-summation oracles", ok,
           f"exp2_l1={worst_exp:.1e} convolve={conv_err:.1e}")


def test_criterion_8_integral_equation_residual(sech_coefficient):
    lam = 40.0
    prob = build_problem(sech_coefficient, lam)
    result, _ = solve_problem(prob)
    bump = make_bump(prob.grid, lam)
    sigma_b = inverse(result.psi)
    p_space = inverse(prob.p_hat)
    t_b_sigma = inverse(apply_Wb(result.psi, bump))
    resid = sigma_b.values - apply_S(t_b_sigma, lam).values - p_space.values
    rel = float(np.max(np.abs(resid))) / float(np.max(np.abs(p_space.values)))
    ok = rel <= 1e-10
    report(8, "nonlinear integral-equation residual", ok, f"rel={rel:.1e}")


def test_criterion_9_liouville_green_residual(sech_coefficient):
    prob = build_problem(sech_coefficient, 20.0)
    tr = liouville_green(prob, 1.0, 0.0)
    ok = tr.residual_rel <= 1e-6
    report(9, "Liouville-Green transform flattens the oracle solution", ok,
           f"rel={tr.residual_rel:.1e}")
