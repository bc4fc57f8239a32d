import functools
import math
import tracemalloc

import numpy as np
import pytest

import nophase.chebseries
import nophase.phase
from conftest import make_constant_coefficient, make_sech_coefficient
from nophase.errors import DomainError, MagnitudeError
from nophase.expr import compile_expression
from nophase.grid import (RealSample, SpectralGrid, SpectralSample, forward,
                          linf_norm)
from helpers import apply_S, unblocked_evaluator
from nophase.phase import (EVAL_BLOCK, PhaseFunction, band_limited_evaluator,
                           basis_derivatives, build_phase, eval_basis,
                           interior_nodes, kummer_residual)
from nophase.problem import Coefficient, build_problem
from nophase.solver import solve_problem


def solved_phase(coefficient, lam):
    prob = build_problem(coefficient, lam)
    result, _ = solve_problem(prob)
    return prob, result, build_phase(result, prob)


@functools.cache
def solved_delta(source):
    """(delta-hat, its grid's half width) of q = 1 + sech^2 t on [-3, 3]:
    with exact derivatives at lambda = source, or from the expression
    without derivatives (finite differences) at lambda = 640 for "fd-640",
    or of the constant q = 2.25 on [-1, 1] at lambda = 8 for "constant"."""
    if source == "fd-640":
        coefficient, lam = Coefficient.make(
            compile_expression("1 + sech(t)**2"), -3.0, 3.0,
            extension_width=4.0), 640.0
    elif source == "constant":
        coefficient, lam = make_constant_coefficient(2.25, -1.0, 1.0), 8.0
    else:
        coefficient, lam = make_sech_coefficient(), float(source)
    prob = build_problem(coefficient, lam)
    result, _ = solve_problem(prob)
    return result.delta_hat, prob.grid.half_width


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
        # a real sample that is not symmetric, plus a real value at the
        # self-paired node -N/2 dxi, which has no +xi partner
        grid = SpectralGrid(half_width=8.0, n_points=64)
        x = grid.x
        F = forward(RealSample(grid, x * np.exp(-x * x)
                               + np.exp(-(x - 1.0) ** 2)))
        values = F.values.copy()
        values[0] = 0.3
        F = SpectralSample(grid, values)
        t = np.linspace(-9.0, 9.0, 701)
        full = (grid.dxi / (2.0 * np.pi)) * np.real(
            np.exp(1j * np.outer(t, grid.xi)) @ F.values)
        assert np.max(np.abs(band_limited_evaluator(F)(t) - full)) <= 1e-15

    @pytest.mark.parametrize("n", [64, 65536])
    @pytest.mark.parametrize("top", ["1", "B-1", "B", "B+1", "N/2+1"])
    def test_blocked_sum_matches_direct_sum(self, rng, n, top):
        # dxi = 1/8 exactly and the points are dyadic, so every argument
        # x k dxi is exact in both sums; points straddle +-L = +-8 pi and
        # go beyond it
        grid = SpectralGrid(half_width=8.0 * np.pi, n_points=n)
        half, block = n // 2, math.isqrt(n // 2) + 1
        top = {"1": 1, "B-1": block - 1, "B": block, "B+1": block + 1,
               "N/2+1": half + 1}[top]
        # a random half, real at the self-paired 0 and xi_max
        on = np.arange(half + 1) < top
        coef = np.zeros(half + 1, dtype=complex)
        coef[on] = [1, 1j] @ rng.standard_normal((2, np.count_nonzero(on)))
        coef[[0, half]] = coef[[0, half]].real
        F = SpectralSample.of_half(grid, coef)
        values = F.values
        x = np.array([0.0, -25.125, 25.125, -25.25, 25.25, 50.25, -75.5,
                      100.5])
        direct = (grid.dxi / (2.0 * np.pi)) * np.real(
            np.exp(1j * np.outer(x, grid.xi)) @ values)
        mass = grid.dxi / (2.0 * np.pi) * np.sum(np.abs(values))
        assert np.max(np.abs(band_limited_evaluator(F)(x) - direct)) \
            <= 4.0 * np.finfo(float).eps * mass

    @pytest.mark.filterwarnings("ignore:solvability hypotheses")
    @pytest.mark.parametrize("source", ["20", "80", "320", "1280", "fd-640",
                                        "constant"])
    @pytest.mark.parametrize("count", ["1", "run-1", "run", "run+1",
                                       "3run+5"])
    def test_runs_give_the_one_call_bits(self, rng, source, count):
        F, half_width = solved_delta(source)
        if source == "constant":
            assert not np.any(F.half)
        n = F.grid.n_points // 2
        block = math.isqrt(n) + 1
        top = np.flatnonzero(F.half)[-1] + 1 if np.any(F.half) else 0
        run = EVAL_BLOCK // (block + -(-top // block))
        size = {"1": 1, "run-1": run - 1, "run": run, "run+1": run + 1,
                "3run+5": 3 * run + 5}[count]
        x = rng.uniform(-half_width, half_width, size)
        assert np.array_equal(band_limited_evaluator(F)(x),
                              unblocked_evaluator(F)(x))

    @pytest.mark.parametrize("source", ["80", "constant"])
    def test_scalar_point(self, source):
        F, _ = solved_delta(source)
        got = band_limited_evaluator(F)(0.375)
        assert got.shape == (1,)
        assert np.array_equal(got, unblocked_evaluator(F)(0.375))

    def test_working_set_is_bounded(self):
        # full support on N = 32768: B + Q = 129 + 128 table columns, so
        # tables for all 2048 points at once would take 2048 x 257 x 16 B
        # = 8.4 MB; one run's two tables hold at most EVAL_BLOCK entries
        grid = SpectralGrid(10.0, 32768)
        F = SpectralSample.of_half(
            grid, np.ones(grid.n_points // 2 + 1, dtype=complex))
        evaluate = band_limited_evaluator(F)
        x = np.linspace(-10.0, 10.0, 2048)
        tracemalloc.start()
        try:
            evaluate(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * EVAL_BLOCK * np.dtype(complex).itemsize  # 1 MiB


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

    def test_no_clenshaw_sums_at_fit_nodes(self, sech_coefficient,
                                           monkeypatch):
        # r reads delta, and the speed fit reads r, from the values they
        # were fitted from; the only sum left is chebint's own one-point
        # value at its lower bound.  Every ChebSeries sum runs through
        # the chebval kernel.
        prob = build_problem(sech_coefficient, 80.0)
        result, _ = solve_problem(prob)
        points = []
        chebval = nophase.chebseries.chebval

        def counting(x, c):
            points.append(np.size(x))
            return chebval(x, c)

        monkeypatch.setattr(nophase.chebseries, "chebval", counting)
        build_phase(result, prob)
        assert points == [1]

    def test_resolved_length_flat_to_large_lambda(self, sech_coefficient):
        # r and alpha are cut at their round-off plateau, which does not
        # move with lambda: r keeps the same coefficient count at every
        # lambda, and alpha within two, as its last kept coefficient
        # lies close to eps times the largest
        r_lens, alpha_lens = [], []
        for lam in (80.0, 320.0, 1280.0, 1e4, 1e6, 1e8, 1e12):
            prob, _, phase = solved_phase(sech_coefficient, lam)
            r_lens.append(len(phase.r_t.coef))
            alpha_lens.append(len(phase.alpha_t.coef))
            assert phase.delta_degree == 66
            if lam >= 320.0:
                assert prob.grid.n_points == 8192
            t = interior_nodes(phase.a, phase.b)
            res = kummer_residual(phase, prob.coefficient.q, t)
            assert np.max(np.abs(res)) <= 2e-15 * lam ** 2
        assert len(set(r_lens)) == 1
        assert max(alpha_lens) - min(alpha_lens) <= 2
        assert max(r_lens + alpha_lens) <= 80

    @pytest.mark.parametrize("lam", [80.0, 1e12])
    def test_cut_phase_stays_near_the_uncut_fits(self, sech_coefficient,
                                                 lam):
        # r and alpha' differ from their fits at all n+1 nodes by at most
        # the dropped count times eps times the largest coefficient
        _, _, phase = solved_phase(sech_coefficient, lam)
        speed = nophase.chebseries.ChebSeries.adaptive_fit(
            lambda t: phase.dalpha_of_r(phase.r_t.sampled(t)),
            phase.a, phase.b)
        t = np.linspace(phase.a, phase.b, 1000)
        for series in (phase.r_t, speed):
            full = nophase.chebseries.ChebSeries.fit(
                lambda _: series.values, phase.a, phase.b,
                len(series.values) - 1)
            dropped = len(full.coef) - len(series.coef)
            assert dropped > 0
            assert np.max(np.abs(series(t) - full(t))) \
                <= dropped * np.finfo(float).eps * np.max(np.abs(full.coef))


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

    @pytest.mark.parametrize("check", ["kummer_residual", "basis_derivatives"])
    @pytest.mark.parametrize("t", [-3.5, 3.5, 5.0])
    def test_other_checks_share_the_guard(self, sech_coefficient, check, t):
        # unguarded, kummer_residual read 1.0e5 at 3.5 and inf at 5
        prob, _, phase = solved_phase(sech_coefficient, 80.0)
        calls = {"kummer_residual": lambda t: kummer_residual(
                     phase, prob.coefficient.q, t),
                 "basis_derivatives": lambda t: basis_derivatives(phase, t)}
        calls[check](np.array([phase.a, phase.b]))  # the ends pass
        with pytest.raises(DomainError, match="outside"):
            calls[check](np.array([0.0, t]))


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
        nodes = interior_nodes(0.0, 10.0)
        assert len(nodes) == 400
        assert nodes[0] == pytest.approx(0.5)
        assert nodes[-1] == pytest.approx(9.5)
