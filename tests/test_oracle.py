import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import nophase
from conftest import make_constant_coefficient
from nophase.errors import DomainError
from nophase.oracle import (basis_error, liouville_green, ode_oracle,
                            undo_liouville_green)
from nophase.phase import basis_derivatives, build_phase
from nophase.problem import Coefficient, build_problem
from nophase.solver import solve_problem


class TestOdeOracle:
    def test_unit_coefficient_sine(self):
        prob = build_problem(make_constant_coefficient(1.0, 0.0, 1.0), 10.0)
        tol = 1e-13
        t = np.linspace(0.0, 1.0, 101)
        y, dy = ode_oracle(prob, 0.0, 10.0, t, tol=tol)
        assert np.max(np.abs(y - np.sin(10.0 * t))) <= 10.0 * tol * 10.0
        assert np.max(np.abs(dy - 10.0 * np.cos(10.0 * t))) <= 1e-10

    @pytest.mark.filterwarnings("ignore:solvability hypotheses")
    def test_self_consistency_on_airy_like(self):
        # q(t) = t on [1, 2]: no closed form needed, compare tolerances
        coeff = Coefficient.make(
            lambda t: np.asarray(t, dtype=float), 1.0, 2.0,
            dq=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            d2q=lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        prob = build_problem(coeff, 10.0)
        t = np.linspace(1.0, 2.0, 101)
        yc, _ = ode_oracle(prob, 1.0, 0.0, t, tol=1e-10)
        yf, _ = ode_oracle(prob, 1.0, 0.0, t, tol=1e-13)
        assert np.max(np.abs(yc - yf)) <= 1e-8

    def test_energy_conservation(self):
        # for constant q, E = (y')^2 + (lam^2 q) y^2 is conserved
        prob = build_problem(make_constant_coefficient(2.0, 0.0, 3.0), 7.0)
        t = np.linspace(0.0, 3.0, 301)
        y, dy = ode_oracle(prob, 0.3, -1.1, t, tol=1e-13)
        energy = dy ** 2 + 2.0 * 49.0 * y ** 2
        assert np.max(np.abs(energy - energy[0])) <= 1e-9 * energy[0]

    def test_two_solutions_in_one_pass(self):
        prob = build_problem(make_constant_coefficient(1.0, 0.0, 1.0), 10.0)
        tol = 1e-13
        t = np.linspace(0.0, 1.0, 101)
        y, dy = ode_oracle(prob, [0.0, 1.0], [10.0, 0.0], t, tol=tol)
        assert y.shape == dy.shape == (2, 101)
        assert np.max(np.abs(y[0] - np.sin(10.0 * t))) <= 10.0 * tol * 10.0
        assert np.max(np.abs(dy[0] - 10.0 * np.cos(10.0 * t))) <= 1e-10
        assert np.max(np.abs(y[1] - np.cos(10.0 * t))) <= 10.0 * tol * 10.0
        assert np.max(np.abs(dy[1] + 10.0 * np.sin(10.0 * t))) <= 1e-10

    def test_nodes_within_round_off_of_the_interval(self):
        prob = build_problem(make_constant_coefficient(1.0, 0.0, 1.0), 10.0)
        y, _ = ode_oracle(prob, 0.0, 10.0, [-1e-16, np.nextafter(1.0, 2.0)])
        assert np.max(np.abs(y - [0.0, np.sin(10.0)])) <= 1e-11
        with pytest.raises(DomainError):
            ode_oracle(prob, 0.0, 10.0, [0.5, 1.01])

    def test_tolerance_guard(self):
        prob = build_problem(make_constant_coefficient(1.0, 0.0, 1.0), 5.0)
        with pytest.raises(ValueError):
            ode_oracle(prob, 1.0, 0.0, [0.0, 1.0], tol=1e-15)


class TestLiouvilleGreen:
    def test_identity_for_unit_coefficient(self):
        prob = build_problem(make_constant_coefficient(1.0, 0.0, 1.0), 10.0)
        tr = liouville_green(prob, 0.0, 10.0)
        # q = 1: x = t and phi = y
        assert np.max(np.abs(tr.phi - np.sin(10.0 * tr.x))) <= 1e-9

    def test_constant_scaling(self):
        # q = 4: x = 2t, phi = sqrt(2) y, and the flat equation is
        # phi'' + lam^2 phi = 0 in x
        prob = build_problem(make_constant_coefficient(4.0, 0.0, 1.0), 5.0)
        tr = liouville_green(prob, 0.0, 10.0)  # y = sin(10 t) = sin(5 x)
        assert np.max(np.abs(tr.phi - np.sqrt(2.0) * np.sin(5.0 * tr.x))) \
            <= 1e-9
        assert tr.residual_rel <= 1e-7

    def test_residual_small_for_sech(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 20.0)
        tr = liouville_green(prob, 1.0, 0.0)
        assert tr.residual_rel <= 1e-6

    def test_last_node_one_ulp_past_b(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 20.0)
        assert prob.map.t_of_x(prob.map.x_b) > prob.coefficient.interval_b
        assert liouville_green(prob, 1.0, 0.0).residual_rel <= 1e-6

    def test_round_trip(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 20.0)
        tr = liouville_green(prob, 1.0, 0.0)
        t, y = undo_liouville_green(prob, tr)
        y_ref, _ = ode_oracle(prob, 1.0, 0.0, t)
        assert np.max(np.abs(y - y_ref)) <= 1e-10 * np.max(np.abs(y_ref))


class TestBasisError:
    def test_constant_coefficient(self):
        prob = build_problem(make_constant_coefficient(1.0, 0.0, 1.0), 10.0)
        result, _ = solve_problem(prob)
        phase = build_phase(result, prob)
        tol = 1e-13
        err_u, err_v = basis_error(phase, prob, tol=tol)
        assert err_u <= 1e-11
        assert err_v <= 1e-11

    def test_sech_small_errors(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 40.0)
        result, _ = solve_problem(prob)
        phase = build_phase(result, prob)
        err_u, err_v = basis_error(phase, prob)
        # amplitude scale is 1/sqrt(lambda); errors should sit near the
        # oracle tolerance, far below the solution scale
        assert max(err_u, err_v) <= 1e-9

    def test_one_pass_for_both_solutions(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 40.0)
        result, _ = solve_problem(prob)
        phase = build_phase(result, prob)
        calls = [0]

        def q(t):
            calls[0] += 1
            return sech_coefficient.q(t)

        counted = dataclasses.replace(
            prob, coefficient=dataclasses.replace(sech_coefficient, q=q))
        basis_error(phase, counted)
        joint = calls[0]

        calls[0] = 0
        u0, du0, v0, dv0 = basis_derivatives(phase, phase.a)
        t = np.linspace(phase.a, phase.b, 400)
        ode_oracle(counted, u0, du0, t)
        ode_oracle(counted, v0, dv0, t)
        assert joint <= 0.6 * calls[0]


def test_import_leaves_scipy_integrate_unloaded():
    src = os.path.dirname(os.path.dirname(nophase.__file__))
    code = "import sys, nophase; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
