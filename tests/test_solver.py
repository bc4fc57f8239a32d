import dataclasses
import re

import numpy as np
import pytest
from scipy.integrate import quad

import nophase.grid
import nophase.solver
from conftest import make_constant_coefficient, make_sech_coefficient
from nophase.phase import (band_limited_evaluator, build_phase, eval_basis,
                           interior_nodes, kummer_residual)
from helpers import (apply_T, bump_on_full_grid, exp2_star_series,
                     extract_on_full_grid, invert_helmholtz, iterate_apply_R,
                     zeros_spectral)
from nophase.convexp import exp2_star
from nophase.errors import (ConfigurationError, ConvergenceError, DomainError,
                            MagnitudeError, SymmetryError)
from nophase.grid import (HERMITIAN_RTOL, RealSample, SpectralGrid,
                          SpectralSample, convolve, forward,
                          hermitian_defect, inverse, l1_norm, linf_norm,
                          mirror)
from nophase.problem import (Coefficient, CoefficientProblem, build_problem,
                             choose_grid, decay_bound, fit_decay)
from nophase.solver import (TOL, SolverState, apply_R, apply_Wb,
                            apply_Wb_tilde, extract_solution,
                            fixed_point_solve, make_bump, solve_problem)

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
        b = mirror(grid, bump.half_b)
        assert np.max(np.abs(b[core] - 1.0)) <= 1e-14

    def test_vanishes_beyond_band(self):
        lam = 10.0
        grid = band_grid(lam)
        b = mirror(grid, make_bump(grid, lam).half_b)
        outside = np.abs(grid.xi) >= SQRT2 * lam
        assert np.all(b[outside] == 0.0)
        at_15 = np.argmin(np.abs(grid.xi - 1.5 * lam))
        assert b[at_15] == 0.0

    def test_range(self):
        lam = 6.0
        grid = band_grid(lam)
        b = mirror(grid, make_bump(grid, lam).half_b)
        assert np.all(b >= 0.0) and np.all(b <= 1.0)

    @pytest.mark.parametrize("lam, named", [
        (-40.0, "lambda=-40 must be positive"),
        (0.0, "lambda=0 must be positive"),
        (np.nan, "lambda must be a finite number, not nan"),
        (np.inf, "lambda must be a finite number, not inf"),
        (-np.inf, "lambda must be a finite number, not -inf"),
        # lambda^2 of a Python float would raise a bare OverflowError
        (1e154, "lambda=1e+154 is too large"),
        (1e200, "lambda=1e+200 is too large"),
        (1e-160, "lambda=1e-160 is too small"),
    ], ids=["-40", "0", "nan", "inf", "-inf", "1e+154", "1e+200", "1e-160"])
    def test_lambda_refused_by_name(self, lam, named):
        # the lambda stage takes lambda here and nowhere else
        with pytest.raises(DomainError, match=re.escape(named)):
            make_bump(SpectralGrid(6.0, 64), lam)

    def test_problem_and_bump_refuse_in_one_text(self):
        # the rule lambda > 0 is stated once (`check_lambda`)
        coeff = make_constant_coefficient()
        for refuse in (lambda: build_problem(coeff, -1.0),
                       lambda: make_bump(SpectralGrid(6.0, 64), -1.0)):
            with pytest.raises(DomainError,
                               match=r"^lambda=-1 must be positive$"):
                refuse()

    def test_resolution_guard(self, rng):
        # on a grid narrower than 2 sqrt(2) lambda the converged psi must
        # vanish on the outer half of the grid; this forcing fills it
        grid = SpectralGrid(8.0, 64)
        with pytest.raises(ConfigurationError, match="give grid N"):
            fixed_point_solve(random_forcing(grid, rng, 1.0),
                              make_bump(grid, 50.0))

    def test_self_paired_node_reaches_the_alias_check(self):
        # a smooth p-hat still large at -xi_max: Wt must keep that node
        # real, or the quadratic term is not Hermitian and the solve
        # stops with SymmetryError before the alias check
        grid = SpectralGrid(8.0, 64)
        w = SpectralSample(grid, np.exp(-(grid.xi / 6.0) ** 2))
        with pytest.raises(ConfigurationError, match="give grid N"):
            fixed_point_solve(w, make_bump(grid, 50.0))

    def test_same_cutoff_on_its_plateau(self):
        # a grid inside [-lam, lam] over the same [-L, L) as a full one
        lam = 10.0
        full = make_bump(band_grid(lam), lam)
        grid = SpectralGrid(8.0, 32)
        assert grid.xi_max <= lam
        unit = make_bump(grid, lam)
        assert np.all(mirror(grid, unit.half_b) == 1.0)
        on = np.isin(full.grid.xi, grid.xi)
        np.testing.assert_array_equal(
            mirror(grid, unit.half_multiplier),
            mirror(full.grid, full.half_multiplier)[on])

    def test_exactly_even(self, sech_coefficient):
        # the four ladder grids, and one whose xi_max lies in the
        # transition (lam, sqrt(2) lam), where the self-paired node's
        # value is strictly between 0 and 1
        cases = [(build_problem(sech_coefficient, lam).grid, lam)
                 for lam in (20.0, 80.0, 320.0, 1280.0)]
        cases.append((SpectralGrid(8.0, 256), 40.0))
        for grid, lam in cases:
            bump = make_bump(grid, lam)
            b = mirror(grid, bump.half_b).astype(complex)
            multiplier = mirror(grid, bump.half_multiplier)
            assert np.all(b.imag == 0.0)
            # index 0 (-xi_max) is self-paired; k pairs with N - k
            np.testing.assert_array_equal(b[1:], b[:0:-1])
            np.testing.assert_array_equal(multiplier[1:], multiplier[:0:-1])
            assert np.all(b[np.abs(grid.xi) <= lam] == 1.0)
            assert np.all(b[np.abs(grid.xi) >= SQRT2 * lam] == 0.0)
        assert lam < grid.xi_max < SQRT2 * lam
        assert 0.0 < b[0].real < 1.0


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

    @pytest.mark.parametrize("other", [SpectralGrid(8.0, 128),
                                       SpectralGrid(6.0, 256)],
                             ids=["N", "L"])
    def test_forcing_on_another_grid_refused(self, rng, other):
        lam = 5.0
        grid = band_grid(lam)
        assert (grid.half_width, grid.n_points) == (8.0, 256)
        bump = make_bump(grid, lam)
        with pytest.raises(ConfigurationError, match="different grids"):
            apply_R(zeros_spectral(grid), random_forcing(other, rng, 1.0),
                    bump)


    @staticmethod
    def composed(psi, w, bump):
        """R from its parts, each on its own transforms: convolve for the
        quadratic term and exp2_star for the exponential one."""
        wt = apply_Wb_tilde(psi, bump)
        return convolve(wt, wt).values / 4.0 \
            - 4.0 * bump.lam ** 2 * exp2_star(apply_Wb(psi, bump)).values \
            + w.values

    @pytest.mark.parametrize("n", [64, 1024, 8192])
    def test_matches_the_composition(self, rng, n):
        L = 6.0
        top = np.pi * n / (2.0 * L) / (2.0 * SQRT2)  # largest resolved lambda
        for lam in (0.2 * top, 0.5 * top, top):
            grid = SpectralGrid(L, n)
            bump = make_bump(grid, lam)
            psi = random_forcing(grid, rng, 0.4 * lam ** 2)
            w = random_forcing(grid, rng, 0.4 * lam ** 2)
            ref = self.composed(psi, w, bump)
            got = apply_R(psi, w, bump).values
            assert np.sum(np.abs(got - ref)) <= 1e-15 * np.sum(np.abs(ref))

    def test_checks_of_the_composition_still_fire(self, rng):
        lam = 5.0
        grid = band_grid(lam)
        bump = make_bump(grid, lam)
        w = random_forcing(grid, rng, 1.0)
        half = grid.n_points // 2
        cases = []
        odd = random_forcing(grid, rng, 1.0).values.copy()
        odd[half + 3] += 1.0  # inside the band, with no conjugate partner
        with pytest.raises(SymmetryError):  # where the sample is built
            SpectralSample(grid, odd)
        # Wb psi at xi = 0 alone: f_b = (dxi/2pi) psi_0 / (4 lambda^2) = 800
        big = np.zeros(grid.n_points, dtype=complex)
        big[half] = 800.0 * 2.0 * np.pi / grid.dxi * 4.0 * lam ** 2
        cases.append((MagnitudeError, SpectralSample(grid, big)))
        cases.append((ConfigurationError,
                      zeros_spectral(SpectralGrid(grid.half_width,
                                                  2 * grid.n_points))))
        nan = np.zeros(grid.n_points, dtype=complex)
        nan[half] = np.nan
        with pytest.raises(ValueError, match="values must be finite"):
            SpectralSample(grid, nan)  # where the sample is built
        # a half is not checked: its NaN is refused at the space side
        cases.append((ValueError,
                      SpectralSample.of_half(grid, nan[half - 1:])))
        for error, psi in cases:
            with pytest.raises(error):
                self.composed(psi, w, bump)
            with pytest.raises(error):
                apply_R(psi, w, bump)


class TestFixedPoint:
    def test_zero_forcing_converges_immediately(self):
        lam = 5.0
        grid = band_grid(lam)
        bump = make_bump(grid, lam)
        state = fixed_point_solve(zeros_spectral(grid), bump)
        assert state.bump is bump
        assert state.iteration == 1
        assert np.all(state.psi.values == 0.0)

    @pytest.mark.parametrize("other", [SpectralGrid(8.0, 128),
                                       SpectralGrid(6.0, 256)],
                             ids=["N", "L"])
    def test_bump_on_another_grid_refused(self, rng, monkeypatch, other):
        # refused before the overflow probe and before any step of R
        lam = 10.0
        grid = band_grid(lam)
        assert (grid.half_width, grid.n_points) == (8.0, 256)
        steps = []
        monkeypatch.setattr(nophase.solver, "apply_R",
                            lambda *args: steps.append(args))
        with pytest.raises(ConfigurationError, match="different grids"):
            fixed_point_solve(random_forcing(grid, rng, 1.0),
                              make_bump(other, lam))
        assert steps == []

    def test_lambda_too_small_for_w_is_named(self):
        # w(0) = 10 times the multiplier 1/(4 lambda^2) ~ 1.7e308 at xi = 0
        grid = SpectralGrid(6.0, 64)
        w = zeros_spectral(grid).values
        w[grid.n_points // 2] = 10.0
        with pytest.raises(DomainError, match=re.escape("lambda=3.8e-155")):
            fixed_point_solve(SpectralSample(grid, w),
                              make_bump(grid, 3.8e-155))

    def test_contraction_ratios(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 40.0)
        state = fixed_point_solve(prob.p_hat, make_bump(prob.grid, prob.lam))
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
        bump = make_bump(prob.grid, prob.lam)
        state = fixed_point_solve(prob.p_hat, bump)
        again = apply_R(state.psi, prob.p_hat, bump)
        resid = l1_norm(SpectralSample(
            prob.grid, again.values - state.psi.values))
        assert resid <= 10.0 * TOL * l1_norm(prob.p_hat)

    def test_nonconvergence_raises_with_history(self, sech_coefficient,
                                                monkeypatch):
        prob = build_problem(sech_coefficient, 40.0)
        monkeypatch.setattr(nophase.solver, "MAX_ITER", 2)
        with pytest.raises(ConvergenceError) as err:
            fixed_point_solve(prob.p_hat, make_bump(prob.grid, prob.lam))
        assert len(err.value.history) == 2

    def test_state_holds_no_count(self):
        # the iteration count is the increments' (`SolverState.iteration`)
        assert [f.name for f in dataclasses.fields(SolverState)] \
            == ["psi", "l1_deltas", "bump"]

    def test_warns_outside_ball(self, rng, monkeypatch):
        lam = 3.0
        grid = band_grid(lam, L=6.0, N=64)
        w = random_forcing(grid, rng, 0.6 * np.pi * lam ** 2)
        monkeypatch.setattr(nophase.solver, "MAX_ITER", 5)
        with pytest.warns(UserWarning):
            try:
                fixed_point_solve(w, make_bump(grid, lam))
            except ConvergenceError:
                pass


def sine_coefficient():
    """q = 1 + 0.5 sin 3t on [-1, 2], with exact derivatives."""
    return Coefficient.make(lambda t: 1.0 + 0.5 * np.sin(3.0 * t), -1.0, 2.0,
                            dq=lambda t: 1.5 * np.cos(3.0 * t),
                            d2q=lambda t: -4.5 * np.sin(3.0 * t))


def exp_coefficient():
    """q = exp(t) on [-1, 1], its own derivatives."""
    return Coefficient.make(np.exp, -1.0, 1.0, dq=np.exp, d2q=np.exp)


class TestStop:
    # the iteration stops when its increment is within TOL ||w||_1, or
    # when the measured contraction rho bounds the distance left to the
    # fixed point, rho delta / (1 - rho), by that much

    @pytest.mark.parametrize("make, lam", [
        *((make_sech_coefficient, lam)
          for lam in (15.0, 20.0, 40.0, 80.0, 320.0, 1280.0, 1e4)),
        (sine_coefficient, 160.0), (exp_coefficient, 160.0)])
    def test_one_more_step_moves_psi_within_tol(self, make, lam):
        prob = build_problem(make(), lam)
        bump = make_bump(prob.grid, prob.lam)
        state = fixed_point_solve(prob.p_hat, bump)
        again = apply_R(state.psi, prob.p_hat, bump)
        step = l1_norm(SpectralSample.of_half(
            prob.grid, again.half - state.psi.half))
        assert step <= TOL * l1_norm(prob.p_hat)

    def test_ladder_iterations(self, sech_coefficient):
        counts = [fixed_point_solve(prob.p_hat,
                                    make_bump(prob.grid, prob.lam)).iteration
                  for prob in (build_problem(sech_coefficient, lam)
                               for lam in (20.0, 80.0, 320.0, 1280.0))]
        assert counts == [3, 2, 2, 2]

    @staticmethod
    def scripted(monkeypatch, ratio):
        """A w with ||w||_1 = 1 and an apply_R whose k-th increment is
        dxi 2^-39 ratio^(k-1), exactly: a power of two at xi = +-dxi."""
        lam = 5.0
        grid = band_grid(lam)
        w = np.zeros(grid.n_points // 2 + 1, dtype=complex)
        w[0] = 1.0 / grid.dxi
        sizes = (2.0 ** -40 * ratio ** k for k in range(64))

        def step(psi, w_hat, bump):
            half = psi.half.copy()
            half[1] += next(sizes)
            return SpectralSample.of_half(grid, half)

        monkeypatch.setattr(nophase.solver, "apply_R", step)
        return SpectralSample.of_half(grid, w), make_bump(grid, lam)

    @pytest.mark.parametrize("ratio", [1.0, 2.0])
    def test_no_stop_on_the_estimate_without_contraction(self, monkeypatch,
                                                         ratio):
        # rho >= 1 bounds nothing: its estimate is infinite or negative
        w, bump = self.scripted(monkeypatch, ratio)
        monkeypatch.setattr(nophase.solver, "MAX_ITER", 8)
        with pytest.raises(ConvergenceError) as err:
            fixed_point_solve(w, bump)
        deltas = err.value.history
        assert len(deltas) == 8 and deltas[0] > TOL
        assert [b / a for a, b in zip(deltas, deltas[1:])] == [ratio] * 7

    def test_stops_on_the_estimate(self, monkeypatch):
        # rho = 1/32: the second increment is above TOL ||w||_1, its
        # estimate rho delta / (1 - rho) below
        w, bump = self.scripted(monkeypatch, 2.0 ** -5)
        state = fixed_point_solve(w, bump)
        rho = state.l1_deltas[1] / state.l1_deltas[0]
        assert state.iteration == 2 and rho == 2.0 ** -5
        assert rho * state.l1_deltas[1] / (1.0 - rho) <= TOL \
            < state.l1_deltas[1]


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
        delta_hat = forward(inverse(result.delta_hat))
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
        assert linf_norm(inverse(result.delta_hat)) == 0.0
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

    @pytest.mark.parametrize("lam", [20.0, 80.0, 320.0])
    def test_samples_exactly_hermitian(self, sech_coefficient, lam):
        prob = build_problem(sech_coefficient, lam)
        result, _ = solve_problem(prob)
        difference = SpectralSample(
            prob.grid, result.sigma_hat.values - result.psi.values)
        for sample in (result.sigma_hat, difference, result.delta_hat):
            assert hermitian_defect(sample) == 0.0

    @pytest.mark.parametrize("lam", [20.0, 40.0, 80.0, 320.0])
    def test_delta_is_the_helmholtz_inverse(self, sech_coefficient, lam):
        # delta-hat = Wb psi against sigma-hat/(4 lam^2 - xi^2)
        prob = build_problem(sech_coefficient, lam)
        result, _ = solve_problem(prob)
        full = invert_helmholtz(result.sigma_hat, prob.lam).values
        delta = result.delta_hat.values
        kept = delta != 0.0
        assert np.all(np.abs(delta[kept] - full[kept])
                      <= 4e-16 * np.abs(full[kept]))
        plateau = kept & (mirror(prob.grid,
                                 make_bump(prob.grid, lam).half_b) == 1.0)
        assert np.count_nonzero(plateau) > 0
        np.testing.assert_array_equal(delta[plateau], full[plateau])

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
        assert report.delta_tail <= 1e-15 * linf_norm(inverse(result.delta_hat))
        t = interior_nodes(-3.0, 3.0)
        x = prob.map.x_of_t(t) - prob.map.x_shift
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
        # without N the grid is p-hat's resolved level at every lambda
        # past its base band, on the cutoff's plateau or not
        t = interior_nodes(-3.0, 3.0)
        for lam in (320.0, 450.0, 1280.0):
            full = build_problem(sech_coefficient, lam,
                                 N=choose_grid(sech_coefficient.map,
                                               lam).n_points)
            base = build_problem(sech_coefficient, lam)
            solved = []
            for prob in (base, full):
                result, _ = solve_problem(prob)
                solved.append((result, build_phase(result, prob)))
            (result, phase), (full_result, full_phase) = solved
            assert base.grid.n_points == 8192
            assert full.grid.n_points > 8192
            np.testing.assert_array_equal(phase.r_t(t), full_phase.r_t(t))
            assert phase.delta_degree == full_phase.delta_degree
            for res in (result, full_result):
                assert all(getattr(res.bounds_report, f) for f in self.FLAGS)
        # at lambda = 1280 the level lies inside the cutoff's plateau
        assert base.grid.xi_max <= base.lam
        report = result.bounds_report
        assert report.nu_inf == 0.0 and report.nu_floor_limited
        assert report.nu_bound == full_result.bounds_report.nu_bound
        assert 0.0 < report.band_tail <= 1e-15 * linf_norm(inverse(result.delta_hat))
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


def transition_problem(coefficient):
    """lambda = 40 on SpectralGrid(8, 256), whose xi_max = 1.26 lambda lies
    in the cutoff's transition, with an exactly Hermitian forcing w =
    200 e^{-1.5 |xi|} that is resolved there."""
    grid = SpectralGrid(8.0, 256)
    w = SpectralSample(grid, 200.0 * np.exp(-1.5 * np.abs(grid.xi)))
    gamma, mu = fit_decay(w)
    return CoefficientProblem(coefficient=coefficient, lam=40.0, p_hat=w,
                              gamma_fit=gamma, mu_fit=mu)


class TestHalfSpectrum:
    # the solver's loop and extraction run on the nonnegative half; each
    # figure must have the bits of the same maths on the centered grid

    @pytest.fixture
    def problems(self, sech_coefficient):
        probs = [build_problem(sech_coefficient, lam)
                 for lam in (20.0, 80.0, 320.0, 1280.0)]
        return probs + [transition_problem(sech_coefficient)]

    def test_bump_is_the_full_grid_one(self, problems):
        for prob in problems:
            bump = make_bump(prob.grid, prob.lam)
            grid = prob.grid
            b, multiplier, odd = bump_on_full_grid(grid, prob.lam)
            # the half laid out on the centered grid
            assert mirror(grid, bump.half_b).astype(complex).tobytes() \
                == b.tobytes()
            assert mirror(grid, bump.half_multiplier).tobytes() \
                == multiplier.tobytes()
            # + 0.0 makes the conjugates' imaginary -0.0 off the band 0.0
            assert (mirror(grid, bump.half_odd_multiplier) + 0.0).tobytes() \
                == odd.tobytes()

    def test_loop_is_the_public_apply_R(self, problems):
        for prob in problems:
            bump = make_bump(prob.grid, prob.lam)
            state = fixed_point_solve(prob.p_hat, bump)
            psi, deltas = iterate_apply_R(prob.p_hat, bump)
            assert state.psi.values.tobytes() == psi.values.tobytes()
            assert state.l1_deltas == deltas
            assert state.iteration == len(deltas)

    def test_extraction_is_the_full_grid_one(self, problems):
        for prob in problems:
            bump = make_bump(prob.grid, prob.lam)
            state = fixed_point_solve(prob.p_hat, bump)
            result = extract_solution(state, prob)
            sigma, nu, delta, report = extract_on_full_grid(state, bump, prob)
            # + 0.0 makes the views' conjugated -0.0 0.0, as in the bump's
            assert (result.sigma_hat.values + 0.0).tobytes() \
                == (state.psi.values
                    * mirror(prob.grid, bump.half_b) + 0.0).tobytes() \
                == (sigma.values + 0.0).tobytes()
            assert result.nu.values.tobytes() == nu.values.tobytes()
            assert (result.delta_hat.values + 0.0).tobytes() \
                == (delta.values + 0.0).tobytes()
            kept = delta.values != 0.0
            np.testing.assert_array_equal(
                delta.values[kept], apply_Wb(state.psi, bump).values[kept])
            assert result.bounds_report == report
        # on the transition grid the self-paired node -xi_max carries psi,
        # a cutoff strictly between 0 and 1, and a zero odd multiplier
        assert prob.lam < prob.grid.xi_max < SQRT2 * prob.lam
        assert 0.0 < bump.half_b[-1] < 1.0
        assert state.psi.values[0] != 0.0 \
            and bump.half_odd_multiplier[-1] == 0.0

    def test_asymmetry_inside_the_band_refused_on_entry(self, rng):
        # refused where w is built, also where Wb and Wt are zero and
        # the solve would not see it
        lam = 5.0
        grid = band_grid(lam)
        inside = grid.n_points // 2 + 3
        outside = np.argmin(np.abs(grid.xi - 1.8 * lam))
        for k, amount in ((inside, 1.0), (outside, 1e-3)):
            w = random_forcing(grid, rng, 1.0).values.copy()
            w[k] += amount  # no conjugate partner
            with pytest.raises(SymmetryError):
                fixed_point_solve(SpectralSample(grid, w),
                                  make_bump(grid, lam))

    def test_asymmetry_outside_the_band_passes(self, rng):
        # an asymmetry within HERMITIAN_RTOL is accepted where w is
        # built, and the solve has the bits of the public apply_R
        # iterated from w's fold
        lam = 5.0
        grid = band_grid(lam)
        w = random_forcing(grid, rng, 1.0)
        k = np.argmin(np.abs(grid.xi - 1.8 * lam))
        odd = w.values.copy()
        odd[k] += 0.5 * HERMITIAN_RTOL * np.max(np.abs(odd))
        w_odd = SpectralSample(grid, odd)
        assert 0.0 < hermitian_defect(w_odd) <= HERMITIAN_RTOL * np.max(
            np.abs(odd))
        assert w_odd.values.tobytes() == odd.tobytes()
        bump = make_bump(grid, lam)
        state = fixed_point_solve(w_odd, bump)
        psi, deltas = iterate_apply_R(
            SpectralSample.of_half(grid, w_odd.half), bump)
        assert state.psi.values.tobytes() == psi.values.tobytes()
        assert state.l1_deltas == deltas
        assert state.iteration == len(deltas)

    def test_solve_path_builds_no_view_and_checks_nothing(
            self, sech_coefficient, monkeypatch):
        # every sample on the path is built from a half, Hermitian by
        # construction: nothing checks its symmetry or lays it out on the
        # centered grid
        checks = []
        original = nophase.grid._require_hermitian
        monkeypatch.setattr(nophase.grid, "_require_hermitian",
                            lambda F: checks.append(F) or original(F))
        t = interior_nodes(-3.0, 3.0)
        for lam in (20.0, 80.0, 320.0, 1280.0):
            prob = build_problem(sech_coefficient, lam)
            result, _ = solve_problem(prob)
            phase = build_phase(result, prob)
            kummer_residual(phase, sech_coefficient.q, t)
            eval_basis(phase, t)
            for sample in (prob.p_hat, result.psi, result.sigma_hat,
                           result.delta_hat):
                assert "values" not in vars(sample)
        assert checks == []
        # the counter sees the check of a sample built from a view, and
        # the view is then held
        inverse(SpectralSample(prob.grid, result.delta_hat.values))
        assert len(checks) == 1 and "values" in vars(result.delta_hat)

    def test_every_view_is_the_mirror_of_the_half(self, sech_coefficient,
                                                  problems):
        explicit = build_problem(sech_coefficient, 20.0, N=4096)
        assert explicit.grid.n_points == 4096 \
            and explicit.grid != problems[0].grid
        samples = [explicit.p_hat]
        for prob in problems[:4]:
            result, _ = solve_problem(prob)
            samples += [prob.p_hat, result.psi, result.sigma_hat,
                        result.delta_hat]
        for sample in samples:
            assert sample.values.tobytes() \
                == mirror(sample.grid, sample.half).tobytes()
