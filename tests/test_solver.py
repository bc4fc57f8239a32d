import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import make_constant_coefficient
from nophase.phase import (band_limited_evaluator, build_phase,
                           interior_nodes, kummer_residual)
from nophase.convexp import exp2_star_series
from nophase.errors import ConfigurationError, ConvergenceError
from nophase.grid import (RealSample, SpectralGrid, SpectralSample, convolve,
                          forward, l1_norm, linf_norm, zeros_spectral)
from nophase.problem import build_problem, decay_bound
from nophase.solver import (apply_R, apply_T, apply_Wb, apply_Wb_tilde,
                            extract_solution, fixed_point_solve,
                            invert_helmholtz, make_bump, make_unit_bump,
                            solve_problem)

SQRT2 = np.sqrt(2.0)


def band_grid(lam, L=8.0, N=256):
    """Smallest power-of-two grid over [-L, L) resolving the cutoff."""
    n = N
    while np.pi / (2.0 * L / n) < 2.0 * SQRT2 * lam:
        n *= 2
    return SpectralGrid(L, n)


def random_forcing(grid, rng, target_l1):
    f = np.exp(-grid.x ** 2) * rng.standard_normal(grid.n_points)
    F = forward(RealSample(grid, f))
    return SpectralSample(grid, F.values * (target_l1 / l1_norm(F)))


class TestBump:
    def test_unit_plateau(self):
        lam = 10.0
        grid = band_grid(lam)
        bump = make_bump(grid, lam)
        core = np.abs(grid.xi) <= lam
        assert np.max(np.abs(bump.b_hat.values[core] - 1.0)) <= 1e-14

    def test_vanishes_beyond_band(self):
        lam = 10.0
        grid = band_grid(lam)
        bump = make_bump(grid, lam)
        outside = np.abs(grid.xi) >= SQRT2 * lam
        assert np.all(bump.b_hat.values[outside] == 0.0)
        at_15 = np.argmin(np.abs(grid.xi - 1.5 * lam))
        assert bump.b_hat.values[at_15] == 0.0

    def test_range(self):
        lam = 6.0
        grid = band_grid(lam)
        b = make_bump(grid, lam).b_hat.values.real
        assert np.all(b >= 0.0) and np.all(b <= 1.0)

    def test_geometry_constants(self):
        lam = 4.0
        bump = make_bump(band_grid(lam), lam)
        assert bump.c == pytest.approx(0.5 * (SQRT2 + 1.0) * lam)
        assert bump.alpha == pytest.approx(0.25 * (SQRT2 - 1.0) * lam)

    def test_resolution_guard(self):
        with pytest.raises(ConfigurationError):
            make_bump(SpectralGrid(8.0, 64), 50.0)


class TestUnitBump:
    def test_same_cutoff_on_its_plateau(self):
        # a grid inside [-lam, lam] over the same [-L, L) as a full one
        lam = 10.0
        full = make_bump(band_grid(lam), lam)
        grid = SpectralGrid(8.0, 32)
        assert grid.xi_max <= lam
        unit = make_unit_bump(grid, lam)
        assert np.all(unit.b_hat.values == 1.0)
        on = np.isin(full.grid.xi, grid.xi)
        np.testing.assert_array_equal(unit.multiplier, full.multiplier[on])
        assert (unit.c, unit.alpha) == (full.c, full.alpha)

    def test_plateau_guard(self):
        with pytest.raises(ConfigurationError):
            make_unit_bump(SpectralGrid(8.0, 64), 5.0)


class TestBandOperators:
    def test_wb_zero(self):
        lam = 5.0
        grid = band_grid(lam)
        bump = make_bump(grid, lam)
        assert np.all(apply_Wb(zeros_spectral(grid), bump).values == 0.0)

    def test_wb_at_origin(self):
        # on the plateau the multiplier is 1/(4 lam^2 - xi^2)
        lam = 5.0
        grid = band_grid(lam)
        bump = make_bump(grid, lam)
        ones = SpectralSample(grid, np.ones(grid.n_points, dtype=complex))
        out = apply_Wb(ones, bump)
        k0 = grid.n_points // 2
        assert out.values[k0] == pytest.approx(1.0 / (4.0 * lam ** 2))

    def test_wb_l1_bound(self, rng):
        # |bhat/(4l^2-xi^2)| <= 1/(2 lam^2) on the cutoff support
        lam = 5.0
        grid = band_grid(lam)
        bump = make_bump(grid, lam)
        for _ in range(100):
            F = random_forcing(grid, rng, rng.uniform(0.1, 3.0))
            assert l1_norm(apply_Wb(F, bump)) \
                <= l1_norm(F) / (2.0 * lam ** 2) + 1e-15

    def test_wb_tilde_zero_at_origin(self):
        lam = 5.0
        grid = band_grid(lam)
        bump = make_bump(grid, lam)
        ones = SpectralSample(grid, np.ones(grid.n_points, dtype=complex))
        assert apply_Wb_tilde(ones, bump).values[grid.n_points // 2] == 0.0

    def test_wb_tilde_l1_bound(self, rng):
        # |xi bhat/(4l^2-xi^2)| peaks below 1/(sqrt(2) lam) on the support
        lam = 5.0
        grid = band_grid(lam)
        bump = make_bump(grid, lam)
        for _ in range(100):
            F = random_forcing(grid, rng, rng.uniform(0.1, 3.0))
            assert l1_norm(apply_Wb_tilde(F, bump)) \
                <= l1_norm(F) / (SQRT2 * lam) + 1e-15

    def test_grid_mismatch(self):
        lam = 5.0
        grid = band_grid(lam)
        bump = make_bump(grid, lam)
        other = SpectralGrid(grid.half_width, 2 * grid.n_points)
        with pytest.raises(ConfigurationError):
            apply_Wb(zeros_spectral(other), bump)


class TestApplyR:
    def test_zero_iterate_returns_forcing(self, rng):
        lam = 5.0
        grid = band_grid(lam)
        bump = make_bump(grid, lam)
        w = random_forcing(grid, rng, 1.0)
        out = apply_R(zeros_spectral(grid), w, bump)
        assert np.array_equal(out.values, w.values)

    def test_zero_everything(self):
        lam = 5.0
        grid = band_grid(lam)
        bump = make_bump(grid, lam)
        out = apply_R(zeros_spectral(grid), zeros_spectral(grid), bump)
        assert np.all(out.values == 0.0)

    def test_matches_component_oracle(self, rng):
        # rebuild R from its pieces with the series form of exp2
        lam = 3.0
        grid = band_grid(lam, L=6.0, N=64)
        bump = make_bump(grid, lam)
        psi = random_forcing(grid, rng, 0.5)
        w = random_forcing(grid, rng, 0.5)
        wt = apply_Wb_tilde(psi, bump)
        ref = convolve(wt, wt).values / 4.0 \
            - 4.0 * lam ** 2 * exp2_star_series(apply_Wb(psi, bump), 20).values \
            + w.values
        got = apply_R(psi, w, bump).values
        assert np.max(np.abs(got - ref)) <= 1e-11


class TestFixedPoint:
    def test_zero_forcing_converges_immediately(self):
        lam = 5.0
        grid = band_grid(lam)
        state = fixed_point_solve(zeros_spectral(grid), lam)
        assert state.converged
        assert state.iteration == 1
        assert np.all(state.psi.values == 0.0)

    def test_contraction_ratios(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 40.0)
        state = fixed_point_solve(prob.p_hat, prob.lam)
        deltas = state.l1_deltas
        for a, b in zip(deltas[:-1], deltas[1:]):
            if a > 1e-13 * l1_norm(prob.p_hat):
                assert b / a <= 0.82

    def test_ball_invariance(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 40.0)
        bump = make_bump(prob.grid, prob.lam)
        ball = 0.9 * np.pi * prob.lam ** 2
        psi = prob.p_hat
        for _ in range(6):
            psi = apply_R(psi, prob.p_hat, bump)
            assert l1_norm(psi) <= ball

    def test_fixed_point_residual(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 40.0)
        tol = 1e-14
        state = fixed_point_solve(prob.p_hat, prob.lam, tol=tol)
        bump = make_bump(prob.grid, prob.lam)
        again = apply_R(state.psi, prob.p_hat, bump)
        resid = l1_norm(SpectralSample(
            prob.grid, again.values - state.psi.values))
        assert resid <= 10.0 * tol * l1_norm(prob.p_hat)

    def test_nonconvergence_raises_with_history(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 40.0)
        with pytest.raises(ConvergenceError) as err:
            fixed_point_solve(prob.p_hat, prob.lam, tol=1e-14, max_iter=2)
        assert len(err.value.history) == 2

    def test_warns_outside_ball(self, rng):
        lam = 3.0
        grid = band_grid(lam, L=6.0, N=64)
        w = random_forcing(grid, rng, 0.6 * np.pi * lam ** 2)
        with pytest.warns(UserWarning):
            try:
                fixed_point_solve(w, lam, max_iter=5)
            except ConvergenceError:
                pass


class TestApplyT:
    def test_zero(self):
        lam = 5.0
        grid = band_grid(lam)
        out = apply_T(zeros_spectral(grid), lam)
        assert np.all(out.values == 0.0)

    def test_spike_at_origin(self):
        lam = 5.0
        grid = band_grid(lam)
        vals = np.zeros(grid.n_points, dtype=complex)
        vals[grid.n_points // 2] = 2.0
        out = apply_T(SpectralSample(grid, vals), lam)
        expect = 2.0 * grid.dxi / (2.0 * np.pi * 4.0 * lam ** 2)
        assert np.max(np.abs(out.values - expect)) <= 1e-15

    def test_helmholtz_residual(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 40.0)
        result, _ = solve_problem(prob)
        sig = result.sigma_hat
        delta_hat = forward(result.delta)
        resid = (4.0 * prob.lam ** 2 - prob.grid.xi ** 2) * delta_hat.values \
            - sig.values
        assert l1_norm(SpectralSample(prob.grid, resid)) \
            <= 1e-12 * max(l1_norm(sig), 1e-300)

    def test_support_guard(self):
        lam = 5.0
        grid = band_grid(lam)
        vals = np.zeros(grid.n_points, dtype=complex)
        k = np.argmin(np.abs(grid.xi - 2.5 * lam))
        vals[k] = 1.0
        vals[grid.n_points - k] = 1.0
        with pytest.raises(ConfigurationError):
            apply_T(SpectralSample(grid, vals), lam)


class TestExtractSolution:
    def test_trivial_problem(self):
        prob = build_problem(make_constant_coefficient(), 5.0)
        result, state = solve_problem(prob)
        assert state.iteration == 1
        assert np.all(result.sigma_hat.values == 0.0)
        assert linf_norm(result.nu) == 0.0
        assert linf_norm(result.delta) == 0.0
        assert result.bounds_report.certified

    def test_sigma_vanishes_off_band(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 40.0)
        result, _ = solve_problem(prob)
        outside = np.abs(prob.grid.xi) >= SQRT2 * prob.lam
        assert np.all(result.sigma_hat.values[outside] == 0.0)
        assert result.bounds_report.sigma_support_ok

    def test_bounds_certified_at_large_lambda(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 40.0)
        result, _ = solve_problem(prob)
        report = result.bounds_report
        assert report.certified
        assert report.sigma_decay_ok
        assert report.nu_bound_ok
        assert report.nu_inf <= 1.05 * report.nu_bound \
            or report.nu_floor_limited

    def test_delta_cut_to_its_floor_support(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 1280.0, N=65536)
        result, _ = solve_problem(prob)
        report = result.bounds_report
        full = invert_helmholtz(result.sigma_hat, prob.lam)
        kept = result.delta_hat.values != 0.0
        assert np.count_nonzero(full.values) > 4 * np.count_nonzero(kept)
        np.testing.assert_array_equal(result.delta_hat.values[kept],
                                      full.values[kept])
        cut = full.values[~kept]
        assert report.delta_tail == pytest.approx(
            prob.grid.dxi / (2.0 * np.pi) * np.sum(np.abs(cut)), rel=1e-12)
        assert report.delta_tail <= 1e-15 * linf_norm(result.delta)
        t = interior_nodes(-3.0, 3.0)
        x = prob.map.x_of_t(t) - prob.x_shift
        gap = band_limited_evaluator(result.delta_hat)(x) \
            - band_limited_evaluator(full)(x)
        # plus the rounding of the two sums, one ulp of their scale
        mass = prob.grid.dxi / (2.0 * np.pi) * np.sum(np.abs(full.values))
        assert np.max(np.abs(gap)) <= report.delta_tail \
            + np.finfo(float).eps * mass
        assert report.nu_inf <= 1.05 * report.nu_bound \
            or report.nu_floor_limited
        phase = build_phase(result, prob)
        res = np.max(np.abs(kummer_residual(phase, prob.coefficient.q, t)))
        q_inf = float(np.max(prob.coefficient.q(t)))
        assert res <= q_inf * report.nu_inf / 4.0 \
            + 1e-10 * prob.lam ** 2 * q_inf


class TestBaseBandGrid:
    FLAGS = ("certified", "lambda_hypothesis_ok", "w_l1_hypothesis_ok",
             "sigma_support_ok", "sigma_decay_ok", "nu_bound_ok")

    def test_matches_the_full_grid(self, sech_coefficient):
        # once lambda passes p-hat's base band the default grid is that
        # band's, where the cutoff is 1 at every node
        t = interior_nodes(-3.0, 3.0)
        solved = []
        for N in (None, 65536):
            prob = build_problem(sech_coefficient, 1280.0, N=N)
            result, _ = solve_problem(prob)
            solved.append((prob, result, build_phase(result, prob)))
        (base, result, phase), (full, full_result, full_phase) = solved
        assert base.grid.n_points == 8192 and base.grid.xi_max <= base.lam
        assert full.grid.n_points == 65536
        np.testing.assert_array_equal(phase.r_t(t), full_phase.r_t(t))
        assert phase.delta_degree == full_phase.delta_degree
        for res in (result, full_result):
            assert all(getattr(res.bounds_report, f) for f in self.FLAGS)
        report = result.bounds_report
        assert report.nu_inf == 0.0 and report.nu_floor_limited
        assert report.nu_bound == full_result.bounds_report.nu_bound
        assert 0.0 < report.band_tail <= 1e-15 * linf_norm(result.delta)
        assert full_result.bounds_report.band_tail == 0.0

    def test_nu_not_measured_on_the_unit_grid(self, sech_coefficient):
        # a weaker decay fit puts nu_bound and band_tail far above
        # round-off; on the unit grid nu is still zero by construction
        prob = dataclasses.replace(build_problem(sech_coefficient, 1280.0),
                                   mu_fit=0.01)
        result, _ = solve_problem(prob)
        report = result.bounds_report
        assert report.nu_bound > 1e-6
        assert report.nu_inf == 0.0 and report.nu_floor_limited
        gamma, lam = prob.gamma_fit, prob.lam
        tail = quad(lambda xi: (1.0 + 2.0 * gamma / lam)
                    * decay_bound(xi, gamma, 0.01),
                    prob.grid.xi_max, np.inf, epsabs=0.0, epsrel=1e-12)[0]
        assert report.band_tail == pytest.approx(2.0 * tail / (2.0 * np.pi),
                                                 rel=1e-10)
