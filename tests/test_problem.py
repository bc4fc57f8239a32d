import json

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

import nophase.problem
from conftest import (d2sech2, dsech2, make_constant_coefficient,
                      make_sech_coefficient, sech2)
from nophase.errors import ConfigurationError, DomainError, FitError
from nophase.expr import compile_expression
from nophase.grid import SpectralGrid, SpectralSample, forward
from nophase.problem import (CLEAN_REL, Coefficient, ExtendedCoefficient,
                             build_map, build_problem, check_hypotheses,
                             choose_grid, decay_bound, fit_decay,
                             load_problem_file, problem_config_from_dict,
                             schwarzian_p)


class TestCoefficient:
    def test_requires_ordered_interval(self):
        with pytest.raises(DomainError):
            Coefficient.make(np.exp, 1.0, 1.0)

    def test_default_extension_width(self):
        c = Coefficient.make(np.exp, 0.0, 2.0)
        assert c.extension_width == 1.0

    def test_finite_difference_derivatives(self):
        c = Coefficient.make(np.exp, 0.0, 1.0)
        t = np.linspace(0.2, 0.8, 7)
        assert np.max(np.abs(c.dq(t) - np.exp(t))) <= 1e-10
        assert np.max(np.abs(c.d2q(t) - np.exp(t))) <= 1e-8


class TestExtendedCoefficient:
    def test_agrees_inside(self, sech_coefficient):
        ext = ExtendedCoefficient(sech_coefficient)
        t = np.linspace(-3.0 - 4.0, 3.0 + 4.0, 41)  # [a-w, b+w]
        assert np.max(np.abs(ext.q(t) - sech2(t))) <= 1e-14
        assert np.max(np.abs(ext.dq(t) - dsech2(t))) <= 1e-14

    def test_constant_outside(self, sech_coefficient):
        ext = ExtendedCoefficient(sech_coefficient)
        t = np.array([-30.0, -16.0, 16.0, 30.0])
        assert np.allclose(ext.q(t[:2]), sech2(-3.0), atol=1e-15)
        assert np.allclose(ext.q(t[2:]), sech2(3.0), atol=1e-15)
        assert np.all(ext.dq(t) == 0.0)
        assert np.all(ext.d2q(t) == 0.0)

    def test_blend_derivative_consistency(self, sech_coefficient):
        ext = ExtendedCoefficient(sech_coefficient)
        t = np.linspace(-14.9, 14.9, 401)  # spans both blend regions
        h = 1e-6
        fd1 = (ext.q(t + h) - ext.q(t - h)) / (2 * h)
        assert np.max(np.abs(fd1 - ext.dq(t))) <= 1e-7
        fd2 = (ext.dq(t + h) - ext.dq(t - h)) / (2 * h)
        assert np.max(np.abs(fd2 - ext.d2q(t))) <= 1e-6

    def test_positive_square_root(self, sech_coefficient):
        ext = ExtendedCoefficient(sech_coefficient)
        t = np.linspace(-15.0, 15.0, 301)
        assert np.all(ext.sqrt_q(t) > 0.0)


class TestCoordinateMap:
    def test_anchor_at_a(self, sech_coefficient):
        cmap = build_map(sech_coefficient)
        assert abs(cmap.x_of_t(-3.0)) <= 1e-13

    def test_constant_coefficient_is_linear(self):
        c = make_constant_coefficient(4.0, 0.0, 1.0)
        cmap = build_map(c)
        t = np.linspace(-1.0, 2.0, 31)
        assert np.max(np.abs(cmap.x_of_t(t) - 2.0 * t)) <= 1e-12

    def test_monotone(self, sech_coefficient, rng):
        cmap = build_map(sech_coefficient)
        pairs = rng.uniform(-15.0, 15.0, size=(1000, 2))
        lo = pairs.min(axis=1) - 1e-6
        hi = pairs.max(axis=1) + 1e-6
        assert np.all(cmap.x_of_t(hi) > cmap.x_of_t(lo))

    def test_inverse_consistency(self, sech_coefficient, rng):
        cmap = build_map(sech_coefficient)
        t = rng.uniform(-15.0, 15.0, 500)
        back = cmap.t_of_x(cmap.x_of_t(t))
        assert np.max(np.abs(back - t)) <= 1e-12

    def test_inverse_beyond_extension(self, sech_coefficient):
        cmap = build_map(sech_coefficient)
        for t in (-40.0, 40.0):
            assert cmap.t_of_x(cmap.x_of_t(t)) == pytest.approx(t, abs=1e-12)

    def test_x_b(self, sech_coefficient):
        cmap = build_map(sech_coefficient)
        assert cmap.x_b == pytest.approx(cmap.x_of_t(3.0))

    def test_cubic_spline_table(self, rng):
        # q'' of a cubic spline jumps at every knot
        knots = np.linspace(-15.0, 15.0, 141)
        spline = CubicSpline(knots, sech2(knots))
        c = Coefficient.make(spline, -3.0, 3.0, dq=spline.derivative(1),
                             d2q=spline.derivative(2), extension_width=4.0)
        cmap = build_map(c)
        t = np.linspace(-15.0, 15.0, 31)
        ref = [quad(cmap.ext.sqrt_q, -3.0, s, epsabs=1e-15, epsrel=1e-13,
                    limit=500,
                    points=knots[(knots - s) * (knots + 3.0) < 0.0])[0]
               for s in t]
        assert np.max(np.abs(cmap.x_of_t(t) - ref)) <= 1e-13
        t = rng.uniform(-15.0, 15.0, 500)
        assert np.max(np.abs(cmap.t_of_x(cmap.x_of_t(t)) - t)) <= 1e-12


class TestSchwarzianP:
    def test_constant_q_vanishes(self):
        c = make_constant_coefficient(2.5, 0.0, 1.0)
        cmap = build_map(c)
        grid = SpectralGrid(8.0, 256)
        p = schwarzian_p(cmap.ext, cmap, grid)
        assert np.max(np.abs(p.values)) <= 1e-13

    def test_exponential_closed_form(self):
        # q = e^{2t}: (q'/q)^2 = 4 and q''/q = 4, so p = 1/q = e^{-2t}
        q = lambda t: np.exp(2.0 * np.asarray(t, dtype=float))
        dq = lambda t: 2.0 * np.exp(2.0 * np.asarray(t, dtype=float))
        d2q = lambda t: 4.0 * np.exp(2.0 * np.asarray(t, dtype=float))
        c = Coefficient.make(q, 0.0, 1.0, dq=dq, d2q=d2q)
        t = np.linspace(0.1, 0.9, 9)
        ratio = dq(t) / q(t)
        p = (1.25 * ratio ** 2 - d2q(t) / q(t)) / q(t)
        assert np.max(np.abs(p - np.exp(-2.0 * t))) <= 1e-13

    def test_matches_finite_difference_coefficient(self):
        analytic = make_sech_coefficient()
        fd = Coefficient.make(sech2, -3.0, 3.0, extension_width=4.0)
        cmap = build_map(analytic)
        grid = choose_grid(cmap, 10.0)
        pa = schwarzian_p(cmap.ext, cmap, grid)
        cmap_fd = build_map(fd)
        pf = schwarzian_p(cmap_fd.ext, cmap_fd, grid)
        assert np.max(np.abs(pa.values - pf.values)) <= 1e-8

    def test_schwarzian_identity(self, sech_coefficient):
        # p(x) = 2 {t, x}, the Schwarzian derivative of the inverse map,
        # cross-checked with high-order finite differences of t_of_x
        cmap = build_map(sech_coefficient)
        x = np.linspace(cmap.x_lo + 1.0, cmap.x_hi - 1.0, 40)
        h = 0.02
        vals = np.stack([cmap.t_of_x(x + k * h) for k in range(-3, 4)])
        d1 = (-vals[0] + 9 * vals[1] - 45 * vals[2] + 45 * vals[4]
              - 9 * vals[5] + vals[6]) / (60 * h)
        d2 = (2 * vals[0] - 27 * vals[1] + 270 * vals[2] - 490 * vals[3]
              + 270 * vals[4] - 27 * vals[5] + 2 * vals[6]) / (180 * h * h)
        d3 = (vals[0] - 8 * vals[1] + 13 * vals[2] - 13 * vals[4]
              + 8 * vals[5] - vals[6]) / (8 * h ** 3)
        schwarz = d3 / d1 - 1.5 * (d2 / d1) ** 2
        t = cmap.t_of_x(x)
        qv = cmap.ext.q(t)
        ratio = cmap.ext.dq(t) / qv
        p_ref = (1.25 * ratio ** 2 - cmap.ext.d2q(t) / qv) / qv
        assert np.max(np.abs(2.0 * schwarz - p_ref)) <= 1e-6

    def test_boundary_guard(self, sech_coefficient):
        cmap = build_map(sech_coefficient)
        grid = SpectralGrid(6.0, 1024)  # too narrow: p nonzero at the edge
        with pytest.raises(ConfigurationError):
            schwarzian_p(cmap.ext, cmap, grid)


def full_grid_transform(prob):
    """p-hat from p at every node of the problem's own grid, floored."""
    p = schwarzian_p(prob.extended, prob.map, prob.grid, prob.x_shift)
    vals = forward(p).values
    vals[np.abs(vals) < CLEAN_REL * np.max(np.abs(vals))] = 0.0
    return vals


class TestForcingTransform:
    def test_p_sampled_on_a_lambda_independent_grid(self):
        seen = []

        def q(t):
            seen.append(np.array(t, dtype=float).ravel())
            return sech2(t)

        coeff = Coefficient.make(q, -3.0, 3.0, dq=dsech2, d2q=d2sech2,
                                 extension_width=4.0)
        build_map(coeff)
        map_points = np.unique(np.concatenate(seen)).size
        seen.clear()
        prob = build_problem(coeff, 1280.0, N=65536)
        assert prob.grid.n_points == 65536
        points = np.unique(np.concatenate(seen)).size
        assert points <= 8192 + map_points

    def test_same_transform_at_every_large_lambda(self, sech_coefficient):
        mid = build_problem(sech_coefficient, 320.0)
        big = build_problem(sech_coefficient, 1280.0)
        assert (mid.gamma_fit, mid.mu_fit) == (big.gamma_fit, big.mu_fit)
        on_mid = mid.p_hat.values != 0.0
        on_big = big.p_hat.values != 0.0
        np.testing.assert_array_equal(mid.grid.xi[on_mid], big.grid.xi[on_big])
        np.testing.assert_array_equal(mid.p_hat.values[on_mid],
                                      big.p_hat.values[on_big])
        direct = full_grid_transform(big)
        assert np.max(np.abs(big.p_hat.values - direct)) \
            <= 1e-14 * np.max(np.abs(direct))

    def test_noisy_forcing_uses_the_full_grid(self):
        # finite-difference derivatives leave noise at every p-hat node, so
        # p is sampled at every node of the problem's grid, as a direct
        # transform would
        coeff = Coefficient.make(compile_expression("1 + sech(t)**2"),
                                 -3.0, 3.0, extension_width=4.0)
        prob = build_problem(coeff, 40.0)
        assert prob.grid.n_points == 2048
        np.testing.assert_array_equal(prob.p_hat.values,
                                      full_grid_transform(prob))

    def test_setup_prepared_once_per_coefficient(self, monkeypatch):
        seen = []

        def counted(f):
            def call(t):
                seen.append(np.size(t))
                return f(t)
            return call

        maps = []
        original = nophase.problem.build_map
        monkeypatch.setattr(nophase.problem, "build_map",
                            lambda c: maps.append(c) or original(c))
        coeff = Coefficient.make(counted(sech2), -3.0, 3.0,
                                 dq=counted(dsech2), d2q=counted(d2sech2),
                                 extension_width=4.0)
        build_problem(coeff, 1280.0)
        seen.clear()
        prob = build_problem(coeff, 320.0)
        assert prob.grid.n_points == 16384
        assert seen == []
        assert len(maps) == 1

    # the finite-difference route is uncertified at this lambda
    @pytest.mark.filterwarnings("ignore:solvability hypotheses")
    def test_noisy_forcing_keeps_the_lambda_grid(self):
        # finite-difference noise never lets p-hat's base level resolve,
        # so a large lambda keeps the 2 sqrt(2) lambda grid
        coeff = Coefficient.make(compile_expression("1 + sech(t)**2"),
                                 -3.0, 3.0, extension_width=4.0)
        prob = build_problem(coeff, 1280.0)
        assert prob.grid == choose_grid(prob.map, 1280.0)
        assert prob.grid.n_points == 65536


class TestFitDecay:
    def test_synthetic_exponential(self):
        grid = SpectralGrid(50.0, 2048)
        F = SpectralSample(grid, np.exp(-np.abs(grid.xi)).astype(complex))
        gamma, mu = fit_decay(F)
        assert mu == pytest.approx(1.0, rel=0.02)
        assert gamma == pytest.approx(1.0, rel=0.02)

    def test_bound_holds_everywhere(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 20.0)
        absv = np.abs(prob.p_hat.values)
        bound = decay_bound(prob.grid.xi, prob.gamma_fit, prob.mu_fit)
        assert np.all(absv <= 1.01 * bound + 1e-300)

    def test_degenerate_zero(self):
        grid = SpectralGrid(10.0, 64)
        gamma, mu = fit_decay(SpectralSample(grid,
                                             np.zeros(64, dtype=complex)))
        assert gamma == 0.0 and mu == np.inf

    def test_too_few_nodes(self):
        grid = SpectralGrid(10.0, 64)
        vals = np.zeros(64, dtype=complex)
        vals[30:34] = 1.0
        with pytest.raises(FitError):
            fit_decay(SpectralSample(grid, vals))

    def test_growing_input_rejected(self):
        grid = SpectralGrid(10.0, 64)
        vals = np.exp(0.2 * np.abs(grid.xi)).astype(complex)
        with pytest.raises(FitError):
            fit_decay(SpectralSample(grid, vals))


class TestHypotheses:
    def test_constant_coefficient_degenerate(self):
        prob = build_problem(make_constant_coefficient(), 5.0)
        report = check_hypotheses(prob)
        assert report.degenerate
        assert report.certified

    def test_sech_certified_at_large_lambda(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 50.0)
        report = check_hypotheses(prob)
        assert report.lambda_ok and report.w_l1_ok
        assert prob.lam > 2.0 * max(1.0 / prob.mu_fit, prob.gamma_fit)

    def test_small_lambda_uncertified(self, sech_coefficient):
        with pytest.warns(UserWarning):
            prob = build_problem(sech_coefficient, 2.0)
        assert not check_hypotheses(prob).certified


class TestChooseGrid:
    def test_resolution_guard(self, sech_coefficient):
        cmap = build_map(sech_coefficient)
        with pytest.raises(ConfigurationError):
            choose_grid(cmap, 100.0, L=20.0, N=1024)

    def test_auto_covers_bump(self, sech_coefficient):
        cmap = build_map(sech_coefficient)
        grid = choose_grid(cmap, 40.0)
        assert grid.xi_max >= 2.0 * np.sqrt(2.0) * 40.0


class TestProblemFiles:
    def test_expression_problem(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({
            "q": "1 + sech(t)**2", "a": -3.0, "b": 3.0, "lambda": 20.0,
            "extension_width": 4.0, "grid": {"L": 22.0, "N": 2048},
        }))
        config = load_problem_file(path)
        assert config.lam == 20.0
        assert config.grid_L == 22.0 and config.grid_N == 2048
        t = np.linspace(-3, 3, 7)
        assert np.allclose(config.coefficient.q(t), sech2(t))

    def test_table_problem(self):
        t = np.linspace(-4.0, 4.0, 400)
        config = problem_config_from_dict({
            "q": np.stack([t, 2.0 + np.cos(t)], axis=1).tolist(),
            "a": -1.0, "b": 1.0,
        })
        s = np.linspace(-1, 1, 9)
        assert np.max(np.abs(config.coefficient.q(s)
                             - (2.0 + np.cos(s)))) <= 1e-7
        assert np.max(np.abs(config.coefficient.dq(s)
                             + np.sin(s))) <= 1e-5

    def test_missing_keys(self):
        with pytest.raises(DomainError):
            problem_config_from_dict({"q": "1", "a": 0.0})

    def test_bad_q_type(self):
        with pytest.raises(DomainError):
            problem_config_from_dict({"q": 7, "a": 0.0, "b": 1.0})
