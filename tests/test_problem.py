import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
import scipy.interpolate
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

import nophase.chebseries
import nophase.problem
from conftest import (d2sech2, dsech2, make_constant_coefficient,
                      make_sech_coefficient, sech2)
from helpers import forcing_at_every_node, mirrored_fit_decay
from nophase.errors import ConfigurationError, DomainError, FitError
from nophase.expr import compile_expression
from nophase.grid import SpectralGrid, SpectralSample, forward
from nophase.problem import (CLEAN_REL, Coefficient, CoefficientProblem,
                             ExtendedCoefficient, TableInterpolant,
                             build_map, build_problem, choose_grid,
                             decay_bound, fit_decay, load_problem_file,
                             problem_config_from_dict, schwarzian_p)
from nophase.solver import solve_problem
from nophase.sweep import sweep_point


def make_fd_coefficient():
    """The sech q as an expression without derivatives: the
    finite-difference route, whose p-hat is noisy at every node."""
    return Coefficient.make(compile_expression("1 + sech(t)**2"),
                            -3.0, 3.0, extension_width=4.0)


@pytest.fixture(scope="module")
def fit_levels():
    """(route, N, p-hat) on every level of the ladder's solves (exact
    derivatives, lambda = 20 to 1280: N = 1 024 to 8 192) and of a
    finite-difference solve at lambda = 640 (N = 1 024 to 32 768)."""
    exact, fd = make_sech_coefficient(), make_fd_coefficient()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fd is uncertified at 640
        for lam in (20.0, 80.0, 320.0, 1280.0):
            build_problem(exact, lam)
        build_problem(fd, 640.0)
    levels = [(route, n, p_hat)
              for route, coeff in (("exact", exact), ("fd", fd))
              for (_, n), (_, p_hat, _) in sorted(coeff.map.levels.items())]
    assert [n for _, n, _ in levels] \
        == [1024, 2048, 4096, 8192] + [1024 << k for k in range(6)]
    return levels


class TestCoefficient:
    def test_requires_ordered_interval(self):
        with pytest.raises(DomainError):
            Coefficient.make(np.exp, 1.0, 1.0)

    def test_default_extension_width(self):
        c = Coefficient.make(np.exp, 0.0, 2.0)
        assert c.extension_width == 1.0

    @pytest.mark.parametrize("a, width, name", [
        (0.0, 0, "extension_width"), (0.0, -2.0, "extension_width"),
        (0.0, np.inf, "extension_width"), (0.0, "4", "extension_width"),
        (None, 1.0, "a"), (True, 1.0, "a")])
    def test_numeric_fields_checked(self, a, width, name):
        with pytest.raises(DomainError, match=f"^{name} "):
            Coefficient.make(np.exp, a, 1.0, extension_width=width)

    @pytest.mark.parametrize("a, b, width", [
        (0.0, 1.0, 1e200), (0.0, 1.0, 1.35e154), (0.0, 1e160, None),
        (-1e308, 1e308, None)],
        ids=["square", "just-past-the-square", "default-width",
             "infinite-default-width"])
    def test_width_too_large_is_named(self, a, b, width):
        # the extension's blend divides by w**2 and lives on
        # [a - 3w, b + 3w]; neither may overflow
        with pytest.raises(DomainError,
                           match=r"^extension_width \S+ is too large for "
                                 r"\[a, b\] = \[\S+, \S+\]: .* = "
                                 r"\[\S+, \S+\] must be finite$"):
            Coefficient.make(np.exp, a, b, extension_width=width)

    def test_finite_difference_derivatives(self):
        c = Coefficient.make(np.exp, 0.0, 1.0)
        t = np.linspace(0.2, 0.8, 7)
        assert np.max(np.abs(c.dq(t) - np.exp(t))) <= 1e-10
        assert np.max(np.abs(c.d2q(t) - np.exp(t))) <= 1e-8

    def test_constant_callable_gets_exact_zeros(self):
        c = Coefficient.make(
            lambda t: np.full_like(np.asarray(t, dtype=float), 2.0), -1.0, 1.0)
        t = np.linspace(-4.0, 4.0, 801)     # all of [a - 3w, b + 3w]
        assert np.all(c.dq(t) == 0.0) and np.all(c.d2q(t) == 0.0)

    def test_flat_stencils_get_exact_zeros(self):
        def q(t):
            t = np.asarray(t, dtype=float)
            return np.where(t < 0.0, 2.0, 2.0 + t ** 3)

        c = Coefficient.make(q, -1.0, 1.0)
        # the step is h = 2e-3, so stencils at t < -4h lie where q = 2
        flat = np.linspace(-4.0, -0.01, 400)
        assert np.all(c.d2q(flat) == 0.0)
        straddling = np.linspace(-0.0075, 0.0075, 7)  # reach past t = 0
        assert np.all(c.d2q(straddling) != 0.0)
        curved = np.linspace(0.01, 1.0, 100)
        assert np.max(np.abs(c.d2q(curved) - 6.0 * curved)) <= 1e-8


class TestExtendedCoefficient:
    def test_agrees_inside(self, sech_coefficient):
        ext = ExtendedCoefficient(sech_coefficient)
        t = np.linspace(-3.0 - 4.0, 3.0 + 4.0, 41)  # [a-w, b+w]
        assert np.max(np.abs(ext.q(t) - sech2(t))) <= 1e-14
        assert np.max(np.abs(ext.jet(t)[1] - dsech2(t))) <= 1e-14

    def test_constant_outside(self, sech_coefficient):
        ext = ExtendedCoefficient(sech_coefficient)
        t = np.array([-30.0, -16.0, 16.0, 30.0])
        assert np.allclose(ext.q(t[:2]), sech2(-3.0), atol=1e-15)
        assert np.allclose(ext.q(t[2:]), sech2(3.0), atol=1e-15)
        _, dq, d2q = ext.jet(t)
        assert np.all(dq == 0.0)
        assert np.all(d2q == 0.0)

    def test_blend_derivative_consistency(self, sech_coefficient):
        ext = ExtendedCoefficient(sech_coefficient)
        t = np.linspace(-14.9, 14.9, 401)  # spans both blend regions
        h = 1e-6
        fd1 = (ext.q(t + h) - ext.q(t - h)) / (2 * h)
        _, dq, d2q = ext.jet(t)
        assert np.max(np.abs(fd1 - dq)) <= 1e-7
        fd2 = (ext.jet(t + h)[1] - ext.jet(t - h)[1]) / (2 * h)
        assert np.max(np.abs(fd2 - d2q)) <= 1e-6

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
        p = schwarzian_p(cmap, grid)
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
        pa = schwarzian_p(cmap, grid)
        cmap_fd = build_map(fd)
        pf = schwarzian_p(cmap_fd, grid)
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
        qv, dqv, d2qv = cmap.ext.jet(t)
        ratio = dqv / qv
        p_ref = (1.25 * ratio ** 2 - d2qv / qv) / qv
        assert np.max(np.abs(2.0 * schwarz - p_ref)) <= 1e-6

    def test_boundary_guard(self, sech_coefficient):
        cmap = build_map(sech_coefficient)
        grid = SpectralGrid(6.0, 1024)  # too narrow: p nonzero at the edge
        with pytest.raises(ConfigurationError):
            schwarzian_p(cmap, grid)


SUPPORT_ROUTES = {
    # t(x_lo) = ext.lo, t(x_hi) 1.8e-15 past ext.hi
    "sech-exact": make_sech_coefficient,
    "sech-fd": make_fd_coefficient,
    # t(x_hi) 8.9e-16 short of ext.hi
    "sine": lambda: problem_config_from_dict(
        {"q": "1 + 0.5*sin(3*t)", "a": -1.0, "b": 2.0}).coefficient,
    # t(x_lo) 4.4e-16 past ext.lo, inside the extension
    "exp": lambda: problem_config_from_dict(
        {"q": "exp(t)", "a": -1.0, "b": 1.0}).coefficient,
}


def nodes_about_the_ends(cmap):
    """x at and within a few ulps of x_lo and x_hi, and 1e-15 to 1e-13
    relative beyond them."""
    ends = np.array([cmap.x_lo, cmap.x_hi])
    ulps = [np.nextafter(ends, s) for s in (-np.inf, np.inf)]
    steps = np.geomspace(1e-15, 1e-13, 9)[:, None] * np.maximum(
        1.0, np.abs(ends))
    return np.concatenate([ends, *ulps, (ends + steps).ravel(),
                           (ends - steps).ravel()])


class TestForcingSupport:
    """p is evaluated only inside the map's `forcing_support` and is
    exactly +0.0 outside it, with the bits of the evaluation at every
    node (`forcing_at_every_node`)."""

    @pytest.mark.parametrize("route", SUPPORT_ROUTES)
    def test_bits_of_every_node(self, route):
        cmap = SUPPORT_ROUTES[route]().map
        x0, x1 = cmap.forcing_support
        t0, t1 = cmap.t_of_x(np.array([x0, x1]))
        assert t0 <= cmap.ext.lo and t1 >= cmap.ext.hi
        assert x0 <= cmap.x_lo and x1 >= cmap.x_hi
        assert max(cmap.x_lo - x0, x1 - cmap.x_hi) <= 1e-9 * (x1 - x0)
        L = cmap.covering_half_width
        half = 0.5 * (cmap.x_hi - cmap.x_lo)
        for grid in (SpectralGrid(L, 1024), SpectralGrid(L, 8192),
                     SpectralGrid(half, 64), SpectralGrid(2.0 * half, 64)):
            x = grid.x + cmap.x_shift
            for points in (x, x[1::2], nodes_about_the_ends(cmap)):
                p = nophase.problem._forcing(cmap, points)
                assert p.tobytes() \
                    == forcing_at_every_node(cmap, points).tobytes()

    def test_jet_sees_the_support_alone(self, monkeypatch):
        cmap = make_sech_coefficient().map
        x = choose_grid(cmap, 320.0).x + cmap.x_shift
        x0, x1 = cmap.forcing_support
        jet, seen = cmap.ext.jet, []

        def counted(t):
            seen.append(np.size(t))
            return jet(t)

        monkeypatch.setattr(cmap.ext, "jet", counted)
        p = nophase.problem._forcing(cmap, x)
        inside = (x > x0) & (x < x1)
        assert seen == [np.count_nonzero(inside)] and seen[0] < 0.8 * x.size
        assert np.all(p[~inside] == 0.0)
        assert not np.any(np.signbit(p[~inside]))

    def test_pad_grows_until_t_leaves_the_extension(self):
        # t(x) moved down by 0.01 reaches ext.hi only about
        # 0.01 sqrt(q(b)) past x_hi, far beyond the first pad of
        # 2^-40 (x_hi - x_lo); on the way the right step is below 1 and
        # p is not 0
        cmap = make_sech_coefficient().map
        coef = cmap.t_series.coef.copy()
        coef[0] -= 0.01
        moved = dataclasses.replace(
            cmap, t_series=nophase.chebseries.ChebSeries(
                cmap.t_series.edges, coef), levels={})
        x0, x1 = moved.forcing_support
        assert moved.t_of_x(np.array([x1]))[0] >= moved.ext.hi
        assert x1 - moved.x_hi >= 0.01 * np.sqrt(moved.ext.qb)
        x = np.concatenate([moved.x_hi + np.linspace(0.0, 0.02, 201),
                            nodes_about_the_ends(moved)])
        p = nophase.problem._forcing(moved, x)
        assert np.any(p[x > moved.x_hi] != 0.0)
        assert p.tobytes() == forcing_at_every_node(moved, x).tobytes()


def full_grid_transform(prob):
    """p-hat from p at every node of the problem's own grid, floored."""
    p = schwarzian_p(prob.map, prob.grid)
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
        coeff = make_fd_coefficient()
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
        assert prob.grid.n_points == 8192
        assert seen == []
        assert len(maps) == 1

    def test_levels_keep_their_grid_and_resolution(self, monkeypatch):
        # a second lambda on the same level shares its grid, with the
        # grid's cached nodes, and reads each level's resolution flag
        coeff = make_sech_coefficient()
        first = build_problem(coeff, 320.0)
        calls = []
        resolved = nophase.problem.resolved
        monkeypatch.setattr(nophase.problem, "resolved",
                            lambda vals: calls.append(1) or resolved(vals))
        second = build_problem(coeff, 1280.0)
        assert second.grid is first.grid
        assert calls == []

    @pytest.mark.filterwarnings("ignore:solvability hypotheses")
    def test_hypotheses_checked_once_per_problem(self, monkeypatch):
        # ||p-hat||_1 is summed once across build, solve and extraction,
        # whether the lambda condition holds (80) or fails first (2)
        calls = []
        l1_norm = nophase.problem.l1_norm
        monkeypatch.setattr(nophase.problem, "l1_norm",
                            lambda F: calls.append(1) or l1_norm(F))
        for lam in (2.0, 80.0):
            calls.clear()
            prob = build_problem(make_sech_coefficient(), lam)
            result, _ = solve_problem(prob)
            assert calls == [1], lam
            assert result.bounds_report.w_l1 == prob.w_l1 \
                == l1_norm(prob.p_hat)

    def test_dropped_coefficient_frees_its_setup(self):
        # the extension refers to a copy of the coefficient, not to the
        # coefficient that keeps the map: no reference cycle holds the
        # map's levels until the next full collection
        coeff = make_sech_coefficient()
        build_problem(coeff, 80.0)
        setup = weakref.ref(coeff.map)
        gc.disable()
        try:
            del coeff
            assert setup() is None
        finally:
            gc.enable()

    def test_level_cache_keyed_by_half_width(self):
        # the levels of one coefficient's map, kept per (L, n), give each
        # L the p-hat a fresh coefficient gives it
        shared = make_sech_coefficient()
        for L in (None, 20.0, None):
            fresh = build_problem(make_sech_coefficient(), 80.0, L=L)
            np.testing.assert_array_equal(
                build_problem(shared, 80.0, L=L).p_hat.values,
                fresh.p_hat.values)
        assert {L for L, _ in shared.map.levels} \
            == {20.0, choose_grid(shared.map, 80.0).half_width}

    # the finite-difference route is uncertified at this lambda
    @pytest.mark.filterwarnings("ignore:solvability hypotheses")
    def test_noisy_forcing_keeps_the_lambda_grid(self):
        # finite-difference noise never lets p-hat's base level resolve,
        # so a large lambda keeps the 2 sqrt(2) lambda grid
        coeff = make_fd_coefficient()
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
        vals[30:35] = [0.5, 1.0, 1.0, 1.0, 0.5]  # k = -2 .. 2
        with pytest.raises(FitError):
            fit_decay(SpectralSample(grid, vals))

    def test_growing_input_rejected(self):
        grid = SpectralGrid(10.0, 64)
        vals = np.exp(0.2 * np.abs(grid.xi)).astype(complex)
        with pytest.raises(FitError):
            fit_decay(SpectralSample(grid, vals))

    def test_half_spectrum_fit_is_the_mirrored_one(self, fit_levels):
        # mu to 2e-15 relative, Gamma to 2 ulps of polyfit on the mirror
        for route, n, p_hat in fit_levels:
            gamma, mu = fit_decay(p_hat)
            want_gamma, want_mu = mirrored_fit_decay(p_hat)
            assert abs(mu - want_mu) <= 2e-15 * want_mu, (route, n)
            assert abs(gamma - want_gamma) <= 2 * math.ulp(want_gamma), \
                (route, n)

    @pytest.mark.parametrize("usable, count", [
        ((1, 2, 3, 4), 8), ((0, 1, 2, 3), 7),
        ((0, 1, 2, 3, 32), 8), ((1, 2, 3, 32), 7)])
    def test_usable_nodes_counted_on_the_mirror(self, usable, count):
        # xi = 0 and the self-paired xi_max are one node of the centered
        # grid each, every other node of the half two
        grid = SpectralGrid(10.0, 64)
        half = np.zeros(33, dtype=complex)
        half[list(usable)] = np.exp(-0.3 * np.array(usable))
        p_hat = SpectralSample.of_half(grid, half)
        assert np.count_nonzero(p_hat.values) == count
        if count < 8:
            for fit in (fit_decay, mirrored_fit_decay):
                with pytest.raises(FitError, match="fewer than 8"):
                    fit(p_hat)
        else:  # both find the line |p_hat| = exp(-0.3 m)
            for fit in (fit_decay, mirrored_fit_decay):
                gamma, mu = fit(p_hat)
                assert mu == pytest.approx(0.3 / grid.dxi, rel=1e-14)
                assert gamma == pytest.approx(1.0, rel=1e-14)

    def test_no_lapack_least_squares(self, monkeypatch):
        # polyfit's SVD least squares paged LAPACK in for two numbers
        def refused(*args, **kwargs):
            raise AssertionError("numpy.linalg.lstsq called")

        lstsq = np.linalg.lstsq
        for module in list(sys.modules.values()):
            if vars(module).get("lstsq") is lstsq:  # polyfit's own import
                monkeypatch.setattr(module, "lstsq", refused)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # uncertified solves
            for coeff in (make_sech_coefficient(), make_fd_coefficient()):
                build_problem(coeff, 80.0)
            sweep_point(make_fd_coefficient(), 20.0)


class TestHypotheses:
    def test_constant_coefficient_degenerate(self):
        prob = build_problem(make_constant_coefficient(), 5.0)
        assert prob.gamma_fit == 0.0
        assert prob.lambda_ok is True and prob.w_l1_ok is True

    def test_sech_certified_at_large_lambda(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 50.0)
        assert prob.lambda_ok is True and prob.w_l1_ok is True
        assert prob.lam > 2.0 * max(1.0 / prob.mu_fit, prob.gamma_fit)
        assert prob.w_l1 <= 0.5 * np.pi * prob.lam ** 2

    def test_small_lambda_uncertified(self, sech_coefficient):
        with pytest.warns(UserWarning):
            prob = build_problem(sech_coefficient, 2.0)
        assert prob.lambda_ok is False and prob.w_l1_ok is True

    @pytest.mark.parametrize("route, lam", [
        ("exact", 0.5), ("exact", 2.0), ("exact", 4.0), ("exact", 20.0),
        ("exact", 80.0), ("fd", 300.0), ("fd", 319.9)])
    def test_warning_is_the_reports_hypotheses(self, route, lam):
        # build_problem warns exactly when the report fails a hypothesis
        coeff = make_sech_coefficient() if route == "exact" \
            else make_fd_coefficient()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prob = build_problem(coeff, lam)
        warned = any("solvability hypotheses" in str(w.message)
                     for w in caught)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the solver's own ||w||_1
            report = solve_problem(prob)[0].bounds_report
        failed = {"lambda_hypothesis_ok", "w_l1_hypothesis_ok"} \
            & set(report.failed_checks)
        assert warned == bool(failed)
        assert (report.lambda_hypothesis_ok, report.w_l1_hypothesis_ok) \
            == (prob.lambda_ok, prob.w_l1_ok)


class TestHeldOnce:
    # a problem keeps what build_problem measures; its map and grid are
    # its coefficient's and its p-hat's, so no copy can drift

    def test_replaced_coefficient_brings_its_map(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 80.0)
        other = make_sech_coefficient(extension_width=3.0)
        replaced = dataclasses.replace(prob, coefficient=other)
        assert replaced.map is other.map
        assert prob.map is sech_coefficient.map

    @pytest.mark.parametrize("lam, N, n", [
        (320.0, None, 8192), (20.0, 1024, 1024), (320.0, 65536, 65536)],
        ids=["automatic", "explicit", "zero-extended"])
    def test_grid_is_the_forcings(self, sech_coefficient, lam, N, n):
        prob = build_problem(sech_coefficient, lam, N=N)
        assert prob.grid is prob.p_hat.grid
        assert prob.grid.n_points == n
        assert prob.grid.half_width == prob.map.covering_half_width

    def test_fields_are_the_measured_five(self):
        assert [f.name for f in dataclasses.fields(CoefficientProblem)] \
            == ["coefficient", "lam", "p_hat", "gamma_fit", "mu_fit"]


class TestChooseGrid:
    def test_resolution_guard(self, sech_coefficient):
        cmap = build_map(sech_coefficient)
        with pytest.raises(ConfigurationError):
            choose_grid(cmap, 100.0, L=20.0, N=1024)

    def test_auto_covers_bump(self, sech_coefficient):
        cmap = build_map(sech_coefficient)
        grid = choose_grid(cmap, 40.0)
        assert grid.xi_max >= 2.0 * np.sqrt(2.0) * 40.0

    @pytest.mark.filterwarnings("ignore:solvability hypotheses")
    def test_refusal_suggests_the_default_half_width(self):
        # the grid is centered on x_shift, so a map off-center in x needs
        # no more than the default: L = 2 already solves here
        coeff = Coefficient.make(compile_expression("1 + 0.5*sin(3*t)"),
                                 0.0, 1.0, extension_width=0.5)
        with pytest.raises(ConfigurationError) as refused:
            build_problem(coeff, 50.0, L=1.5)
        default = choose_grid(coeff.map, 50.0).half_width
        suggested = float(str(refused.value).rsplit("L >= ", 1)[1])
        assert suggested == round(default, 2)
        assert default == coeff.map.covering_half_width
        prob = build_problem(coeff, 50.0, L=suggested)
        assert prob.grid.half_width == suggested
        result, _ = solve_problem(prob)
        assert np.isfinite(result.bounds_report.nu_inf)


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

    def test_table_honours_derivative_keys(self):
        t = np.linspace(-4.0, 4.0, 400)
        config = problem_config_from_dict({
            "q": np.stack([t, 2.0 + np.cos(t)], axis=1).tolist(),
            "a": -1.0, "b": 1.0, "dq": "-sin(t)",
        })
        s = np.linspace(-1, 1, 9)
        np.testing.assert_array_equal(config.coefficient.dq(s), -np.sin(s))

    def test_table_route_loads_no_scipy_interpolate(self):
        src = os.path.dirname(os.path.dirname(nophase.problem.__file__))
        code = (
            "import sys, numpy as np\n"
            "from nophase.problem import build_problem, "
            "problem_config_from_dict\n"
            "from nophase.solver import solve_problem\n"
            "t = np.linspace(-4.0, 4.0, 400)\n"
            "config = problem_config_from_dict({'q': np.stack("
            "[t, 2.0 + np.cos(t)], axis=1).tolist(), 'a': -1.0, 'b': 1.0})\n"
            "solve_problem(build_problem(config.coefficient, 10.0))\n"
            "print('scipy.interpolate' in sys.modules)\n")
        out = subprocess.run([sys.executable, "-W", "ignore", "-c", code],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_missing_keys(self):
        with pytest.raises(DomainError):
            problem_config_from_dict({"q": "1", "a": 0.0})

    def test_bad_q_type(self):
        with pytest.raises(DomainError):
            problem_config_from_dict({"q": 7, "a": 0.0, "b": 1.0})


class TestTableInterpolant:
    @pytest.fixture
    def sech_table(self):
        knots = np.linspace(-15.0, 15.0, 141)
        return knots, sech2(knots)

    def test_exact_at_knots(self, sech_table):
        # [a - 3w, b + 3w] often ends on a knot, where the difference
        # stencil is clipped
        knots, values = sech_table
        f = TableInterpolant(np.stack(sech_table, axis=1))
        np.testing.assert_array_equal(f(knots), values)
        assert f(knots[0]) == values[0] and f(knots[-1]) == values[-1]

    def test_float_for_a_scalar_shape_for_an_array(self, sech_table):
        f = TableInterpolant(np.stack(sech_table, axis=1))
        assert type(f(0.3)) is float
        assert type(f(np.array(0.3))) is float
        assert f(np.zeros((2, 3))).shape == (2, 3)
        t = np.linspace(-15.0, 15.0, 12).reshape(3, 4)
        np.testing.assert_array_equal(f(t), f(t.ravel()).reshape(3, 4))
        assert f(0.3) == f(np.array([0.3]))[0]

    def test_blocks_do_not_change_values(self, sech_table, monkeypatch):
        f = TableInterpolant(np.stack(sech_table, axis=1))
        t = np.linspace(-15.0, 15.0, 1001)
        whole = f(t)
        monkeypatch.setattr(nophase.problem, "FH_BLOCK", 3 * 141)
        np.testing.assert_array_equal(f(t), whole)

    def test_constant_table_is_exact(self):
        f = TableInterpolant([[-4.0, 3.0], [0.5, 3.0], [4.0, 3.0]])
        np.testing.assert_array_equal(f(np.linspace(-4.0, 4.0, 101)), 3.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 141])
    def test_weights_are_the_formula(self, rng, n):
        # the formula's loop over k and i, in the same order of operations
        knots = np.cumsum(rng.uniform(0.1, 1.0, n))
        d = min(3, n - 1)
        ref = np.zeros(n)
        for k in range(n):
            for i in range(max(k - d, 0), min(k, n - 1 - d) + 1):
                prod = 1.0
                for j in range(i, i + d + 1):
                    if j != k:
                        prod *= abs(knots[k] - knots[j])
                ref[k] += 1.0 / prod
            ref[k] *= (-1.0) ** (k - d)
        f = TableInterpolant(np.stack([knots, np.ones(n)], axis=1))
        np.testing.assert_array_equal(f.weights, ref)

    @pytest.mark.skipif(
        not hasattr(scipy.interpolate, "FloaterHormannInterpolator"),
        reason="scipy < 1.14 has no FloaterHormannInterpolator")
    def test_matches_scipy(self, sech_table):
        ref = scipy.interpolate.FloaterHormannInterpolator(*sech_table, d=3)
        f = TableInterpolant(np.stack(sech_table, axis=1))
        np.testing.assert_array_equal(f.weights, ref.weights)
        t = np.linspace(-15.0, 15.0, 10001)
        assert np.max(np.abs(f(t) - ref(t))) <= 1e-14

    @pytest.mark.parametrize("table, message", [
        ([[0.0, 1.0], [2.0, 1.0], [1.0, 1.0]], "knots must be finite and "
         "strictly increasing"),
        ([[0.0, 1.0], [1.0, 1.0], [1.0, 1.0]], "knots must be finite and "
         "strictly increasing"),
        ([[0.0, 1.0], [np.nan, 1.0], [2.0, 1.0]], "knots must be finite and "
         "strictly increasing"),
        ([[0.0, 1.0], [1.0, np.nan], [2.0, 1.0]], "values must be finite"),
        ([[0.0, 1.0]], "must be a list of at least 2"),
        ([[0.0, 1.0, 2.0], [1.0, 1.0, 2.0]], "must be a list of at least 2"),
        ([[0.0, 1.0], [1.0]], "must be a list of at least 2"),
        ([[0.0, 1.0], [1.0, {}]], "must be a list of at least 2"),
    ], ids=["unsorted", "duplicate", "nan-knot", "nan-value", "one-knot",
            "triple", "ragged", "non-numeric"])
    def test_rejects_bad_tables(self, table, message):
        with pytest.raises(DomainError, match=f"^table (q|coefficient) "
                                              f"{message}"):
            TableInterpolant(table)
