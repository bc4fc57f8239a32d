import numpy as np
import pytest

import nophase.phase
from conftest import make_constant_coefficient
from nophase.errors import DomainError, MagnitudeError
from nophase.grid import (RealSample, SpectralGrid, SpectralSample, forward,
                          linf_norm)
from nophase.phase import (PhaseFunction, apply_S, band_limited_evaluator,
                           basis_derivatives, build_phase, eval_basis,
                           interior_nodes, kummer_residual)
from nophase.problem import build_problem
from nophase.solver import solve_problem


def solved_phase(coefficient, lam, tol=1e-14):
    prob = build_problem(coefficient, lam)
    result, _ = solve_problem(prob, tol=tol)
    return prob, result, build_phase(result, prob)


class TestApplyS:
    def test_zero(self):
        grid = SpectralGrid(8.0, 64)
        out = apply_S(RealSample(grid, np.zeros(64)), 5.0)
        assert np.all(out.values == 0.0)

    def test_constant_input(self):
        grid = SpectralGrid(8.0, 64)
        c, lam = 0.3, 5.0
        out = apply_S(RealSample(grid, np.full(64, c)), lam)
        expect = -4.0 * lam ** 2 * (np.exp(c) - 1.0 - c)
        assert np.max(np.abs(out.values - expect)) <= 1e-11

    def test_gaussian_closed_form(self):
        # f = e^{-x^2}: S[f] = x^2 e^{-2x^2} - 4 lam^2 (e^f - 1 - f)
        grid = SpectralGrid(16.0, 512)
        lam = 3.0
        f = np.exp(-grid.x ** 2)
        out = apply_S(RealSample(grid, f), lam)
        expect = grid.x ** 2 * np.exp(-2.0 * grid.x ** 2) \
            - 4.0 * lam ** 2 * (np.exp(f) - 1.0 - f)
        assert np.max(np.abs(out.values - expect)) <= 1e-10

    def test_overflow_guard(self):
        grid = SpectralGrid(8.0, 64)
        with pytest.raises(MagnitudeError):
            apply_S(RealSample(grid, np.full(64, 800.0)), 5.0)


class TestBandLimitedEvaluator:
    def test_reproduces_grid_samples(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 20.0)
        evaluate = band_limited_evaluator(prob.p_hat)
        from nophase.grid import inverse
        back = inverse(prob.p_hat)
        sub = slice(0, prob.grid.n_points, 64)
        assert np.max(np.abs(evaluate(prob.grid.x[sub]) - back.values[sub])) \
            <= 1e-12 * max(1.0, np.max(np.abs(back.values)))

    def test_paired_sum_matches_full_sum(self):
        # a real sample that is not symmetric, plus a value at the
        # unpaired node -N/2 dxi, which has no +xi partner
        grid = SpectralGrid(half_width=8.0, n_points=64)
        x = grid.x
        F = forward(RealSample(grid, x * np.exp(-x * x)
                               + np.exp(-(x - 1.0) ** 2)))
        values = F.values.copy()
        values[0] = 0.3 - 0.7j
        F = SpectralSample(grid, values)
        t = np.linspace(-9.0, 9.0, 701)
        full = (grid.dxi / (2.0 * np.pi)) * np.real(
            np.exp(1j * np.outer(t, grid.xi)) @ F.values)
        assert np.max(np.abs(band_limited_evaluator(F)(t) - full)) <= 1e-15


class TestBuildPhase:
    def test_unit_coefficient_linear_phase(self):
        prob = build_problem(make_constant_coefficient(1.0, 0.0, 1.0), 10.0)
        result, _ = solve_problem(prob)
        phase = build_phase(result, prob)
        t = np.linspace(0.0, 1.0, 21)
        assert np.max(np.abs(phase.alpha_t(t) - 10.0 * t)) <= 1e-12 * 10.0
        assert np.max(np.abs(phase.dalpha_t(t) - 10.0)) <= 1e-11

    def test_scaled_constant_coefficient(self):
        prob = build_problem(make_constant_coefficient(4.0, 0.0, 1.0), 10.0)
        result, _ = solve_problem(prob)
        phase = build_phase(result, prob)
        t = np.linspace(0.0, 1.0, 21)
        assert np.max(np.abs(phase.dalpha_t(t) - 20.0)) <= 1e-10
        assert np.max(np.abs(phase.alpha_t(t) - 20.0 * t)) <= 1e-11 * 20.0

    def test_alpha_tracks_map_for_constant_q(self):
        # with delta = 0, alpha(t) = lam * x(t)
        prob = build_problem(make_constant_coefficient(2.25, -1.0, 1.0), 8.0)
        result, _ = solve_problem(prob)
        phase = build_phase(result, prob)
        t = np.linspace(-1.0, 1.0, 17)
        ref = 8.0 * prob.map.x_of_t(t)
        assert np.max(np.abs(phase.alpha_t(t) - ref)) <= 1e-11 * np.max(ref)

    def test_delta_series_summed_once(self, sech_coefficient, monkeypatch):
        # one doubling fit of delta(x(t)) to 129 Lobatto nodes, each
        # doubling summing only at its new odd nodes
        prob = build_problem(sech_coefficient, 80.0)
        result, _ = solve_problem(prob)
        points = []
        wrapped = nophase.phase.band_limited_evaluator

        def counting(F):
            evaluate = wrapped(F)

            def count(x):
                points.append(np.size(x))
                return evaluate(x)

            return count

        monkeypatch.setattr(nophase.phase, "band_limited_evaluator", counting)
        build_phase(result, prob)
        assert sum(points) == 129


class TestEvalBasis:
    def test_initial_values(self, sech_coefficient):
        _, _, phase = solved_phase(sech_coefficient, 20.0)
        u, v = eval_basis(phase, np.array([phase.a]))
        da = phase.dalpha_t(np.array([phase.a]))[0]
        assert u[0] == pytest.approx(1.0 / np.sqrt(da), rel=1e-12)
        assert v[0] == pytest.approx(0.0, abs=1e-13)

    def test_unit_coefficient_trig(self):
        prob = build_problem(make_constant_coefficient(1.0, 0.0, 1.0), 10.0)
        result, _ = solve_problem(prob)
        phase = build_phase(result, prob)
        t = np.linspace(0.0, 1.0, 33)
        u, v = eval_basis(phase, t)
        assert np.max(np.abs(u - np.cos(10.0 * t) / np.sqrt(10.0))) <= 1e-12
        assert np.max(np.abs(v - np.sin(10.0 * t) / np.sqrt(10.0))) <= 1e-12

    def test_closed_form_log_derivative(self):
        # r = -log(1 - t^2): alpha' = lam/sqrt(1-t^2), alpha = lam asin(t)
        lam, a, b = 10.0, -0.9, 0.9
        r = lambda t: -np.log(1.0 - np.asarray(t) ** 2)
        dr = lambda t: 2.0 * np.asarray(t) / (1.0 - np.asarray(t) ** 2)
        d2r = lambda t: 2.0 * (1.0 + np.asarray(t) ** 2) \
            / (1.0 - np.asarray(t) ** 2) ** 2
        phase = PhaseFunction.from_log_derivative(r, dr, d2r, lam, a, b)
        for t in (-0.5, 0.0, 0.5):
            alpha = lam * (np.arcsin(t) - np.arcsin(a))
            root = (1.0 - t * t) ** 0.25 / np.sqrt(lam)
            u, v = eval_basis(phase, np.array([t]))
            assert u[0] == pytest.approx(np.cos(alpha) * root, abs=1e-11)
            assert v[0] == pytest.approx(np.sin(alpha) * root, abs=1e-11)

    def test_domain_guard(self, sech_coefficient):
        _, _, phase = solved_phase(sech_coefficient, 20.0)
        with pytest.raises(DomainError):
            eval_basis(phase, np.array([phase.b + 0.5]))


class TestBasisDerivatives:
    def test_matches_finite_differences(self, sech_coefficient, rng):
        _, _, phase = solved_phase(sech_coefficient, 20.0)
        t = rng.uniform(phase.a + 0.01, phase.b - 0.01, 200)
        h = 1e-6
        u, du, v, dv = basis_derivatives(phase, t)
        up, _ = eval_basis(phase, t + h)
        um, _ = eval_basis(phase, t - h)
        _, vp = eval_basis(phase, t + h)
        _, vm = eval_basis(phase, t - h)
        assert np.max(np.abs((up - um) / (2 * h) - du)) <= 1e-8 * np.max(np.abs(du))
        assert np.max(np.abs((vp - vm) / (2 * h) - dv)) <= 1e-8 * np.max(np.abs(dv))

    def test_unit_wronskian(self, sech_coefficient, rng):
        _, _, phase = solved_phase(sech_coefficient, 20.0)
        t = rng.uniform(phase.a, phase.b, 200)
        u, du, v, dv = basis_derivatives(phase, t)
        assert np.max(np.abs(u * dv - du * v - 1.0)) <= 1e-10


class TestKummerResidual:
    def test_constant_coefficient_exact(self):
        prob = build_problem(make_constant_coefficient(1.0, 0.0, 1.0), 10.0)
        result, _ = solve_problem(prob)
        phase = build_phase(result, prob)
        t = np.linspace(0.0, 1.0, 101)
        res = kummer_residual(phase, prob.coefficient.q, t)
        assert np.max(np.abs(res)) <= 1e-9

    def test_theory_bound(self, sech_coefficient):
        prob, result, phase = solved_phase(sech_coefficient, 40.0)
        t = interior_nodes(phase.a, phase.b)
        res = np.max(np.abs(kummer_residual(phase, prob.coefficient.q, t)))
        q_inf = float(np.max(prob.coefficient.q(t)))
        nu_inf = linf_norm(result.nu)
        bound = q_inf * nu_inf / 4.0
        assert res <= bound + 1e-10 * prob.lam ** 2 * q_inf


class TestInteriorNodes:
    def test_trim_and_count(self):
        nodes = interior_nodes(0.0, 10.0, n=11, trim=0.1)
        assert len(nodes) == 11
        assert nodes[0] == pytest.approx(1.0)
        assert nodes[-1] == pytest.approx(9.0)
