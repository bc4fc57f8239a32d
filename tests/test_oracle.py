import dataclasses
import os
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import nophase
from conftest import make_constant_coefficient, sech2
from helpers import transfer_matrices_reference
from liouville import liouville_green, undo_liouville_green
from nophase.errors import DomainError, NumericalError
from nophase import oracle
from nophase.oracle import CHECK_NODES, ORACLE_TOL, basis_error, ode_oracle
from nophase.phase import basis_derivatives, build_phase
from nophase.problem import (Coefficient, build_problem,
                             problem_config_from_dict)
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
        for tol in (1e-15, np.nan, np.inf):
            with pytest.raises(ValueError):
                ode_oracle(prob, 1.0, 0.0, [0.0, 1.0], tol=tol)

    def test_repeated_and_adjacent_nodes(self):
        # DOP853 cannot step to the node it stands on, nor to one a few
        # ulps away; such nodes still get the solution there
        prob = build_problem(make_constant_coefficient(1.0, 0.0, 1.0), 10.0)
        t = np.array([0.0, 0.0, 0.5, 0.5, np.nextafter(0.5, 1.0), 1.0])
        y, dy = ode_oracle(prob, 0.0, 10.0, t)
        assert y[0] == y[1] == 0.0 and dy[0] == dy[1] == 10.0
        assert np.max(np.abs(y - np.sin(10.0 * t))) <= 1e-11
        assert np.max(np.abs(dy - 10.0 * np.cos(10.0 * t))) <= 1e-10
        with pytest.raises(ValueError):
            ode_oracle(prob, 0.0, 10.0, [0.5, 0.2])


def _with_q(prob, q):
    return dataclasses.replace(
        prob, coefficient=dataclasses.replace(prob.coefficient, q=q))


class TestCompiledIntegrator:
    """The lane integrator's mechanics: q on arrays, exceptions from q,
    Ctrl-C, failures, and the tableau and results of scipy's DOP853."""

    @pytest.mark.parametrize("error", [DomainError("q undefined past 0.5"),
                                       KeyboardInterrupt()],
                             ids=["domain-error", "interrupt"])
    def test_exception_from_q_propagates(self, sech_coefficient, error):
        # the integration stops at the first q call that raises
        prob = build_problem(sech_coefficient, 40.0)
        t = np.linspace(-3.0, 3.0, 400)
        clean, _ = ode_oracle(prob, [1.0, 0.0], [0.0, 1.0], t)
        calls = []  # the q points from the first raise on

        def q(s):
            if calls or np.any(s > 0.5):
                calls.extend(np.ravel(s))
                raise error
            return sech_coefficient.q(s)

        with pytest.raises(type(error)) as info:
            ode_oracle(_with_q(prob, q), [1.0, 0.0], [0.0, 1.0], t)
        assert info.value is error
        assert len(calls) < 5000
        again, _ = ode_oracle(prob, [1.0, 0.0], [0.0, 1.0], t)
        assert np.array_equal(again, clean)

    @pytest.mark.skipif(os.name != "posix", reason="sends SIGINT")
    def test_interrupt_while_integrating(self, sech_coefficient):
        # a Ctrl-C from outside, arriving while the lanes step; q sleeps
        # 5 ms a call once the signal is on its way, so that the
        # integration outlasts the sender's 50 ms delay
        prob = build_problem(sech_coefficient, 320.0)
        sender = subprocess.Popen(
            [sys.executable, "-c",
             "import os, signal, sys, time\n"
             "if sys.stdin.buffer.read(1):\n"
             "    time.sleep(0.05)\n"
             f"    os.kill({os.getpid()}, signal.SIGINT)\n"],
            stdin=subprocess.PIPE)
        calls = []  # the q points
        sent = []

        def q(s):
            calls.extend(np.ravel(s))
            if sent:
                time.sleep(0.005)
            elif len(calls) >= 1000:  # the integration has begun
                sent.append(time.perf_counter())
                sender.stdin.write(b"x")
                sender.stdin.flush()
            return sech_coefficient.q(s)

        handler = signal.getsignal(signal.SIGINT)
        with pytest.raises(KeyboardInterrupt):
            try:
                ode_oracle(_with_q(prob, q), [1.0, 0.0], [0.0, 1.0],
                           np.linspace(-3.0, 3.0, 400))
            finally:
                sender.stdin.close()
                sender.wait()
        assert time.perf_counter() - sent[0] < 1.0
        assert signal.getsignal(signal.SIGINT) is handler

    def test_integrator_failure_is_numerical_error(self, sech_coefficient):
        prob = build_problem(sech_coefficient, 40.0)

        def q(s):
            return np.where(s > 0.5, np.nan, sech_coefficient.q(s))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match=r"^reference integrator failed: [a-z ]+$"):
                ode_oracle(_with_q(prob, q), [1.0, 0.0], [0.0, 1.0],
                           np.linspace(-3.0, 3.0, 400))

    def test_nan_error_estimate_stops_the_integration(self,
                                                      sech_coefficient):
        # q is NaN only between two nodes, so the lanes start from finite
        # values and a stage inside a step meets the NaN; its error
        # estimate must end the integration, not shrink the step forever
        prob = build_problem(sech_coefficient, 40.0)
        t = np.linspace(-3.0, 3.0, 400)
        calls = [0]

        def q(s):
            calls[0] += 1
            return np.where((s > 0.501) & (s < 0.502), np.nan,
                            sech_coefficient.q(s))

        assert not np.any((t > 0.501) & (t < 0.502))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError,
                               match=r"^reference integrator failed: [a-z ]+$"):
                ode_oracle(_with_q(prob, q), [1.0, 0.0], [0.0, 1.0], t)
        assert calls[0] < 100

    def test_list_rhs_bit_identical(self):
        # a q with the 0-d array contract wrapped around the expression
        # must give the same steps and the same bits
        config = problem_config_from_dict({
            "q": "1 + sech(t)**2", "dq": "-(exp(t) - exp(-t))*sech(t)**3",
            "d2q": "((exp(t) - exp(-t))**2 - 2)*sech(t)**4",
            "a": -3.0, "b": 3.0, "extension_width": 4.0})
        prob = build_problem(config.coefficient, 40.0)
        q = config.coefficient.q
        t = np.linspace(-3.0, 3.0, 400)

        def run(wrap):
            calls = []

            def counted(s):
                calls.append(s)
                return wrap(s)

            y, dy = ode_oracle(_with_q(prob, counted), [1.0, 0.0],
                               [0.0, 1.0], t)
            return y, dy, len(calls)

        y, dy, n = run(q)
        y0, dy0, n0 = run(lambda s: np.asarray(q(np.asarray(s))))
        assert np.array_equal(y, y0) and np.array_equal(dy, dy0)
        assert n == n0 > 0

    def test_float_form_bit_identical(self):
        # basis_error with an expression q, called with 1-D float arrays
        # as the solver calls it, against the same q forced through
        # np.asarray
        config = problem_config_from_dict({
            "q": "1 + sech(t)**2", "dq": "-(exp(t) - exp(-t))*sech(t)**3",
            "d2q": "((exp(t) - exp(-t))**2 - 2)*sech(t)**4",
            "a": -3.0, "b": 3.0, "extension_width": 4.0})
        prob = build_problem(config.coefficient, 80.0)
        result, _ = solve_problem(prob)
        phase = build_phase(result, prob)
        q = config.coefficient.q

        def run(wrap):
            calls = []

            def counted(s):
                calls.append((type(s), np.ndim(s), np.asarray(s).dtype))
                return wrap(s)

            return basis_error(phase, _with_q(prob, counted)), calls

        errors, calls = run(q)
        errors0, calls0 = run(lambda s: q(np.asarray(s)))
        assert errors == errors0
        assert len(calls) == len(calls0) > 0
        assert set(calls) == {(np.ndarray, 1, np.dtype(float))}

    def test_tableau_is_scipys(self):
        # the Dormand-Prince 8(5,3) coefficients, bit for bit
        from scipy.integrate._ivp import dop853_coefficients as ref

        assert np.array_equal(oracle._C, ref.C[:12])
        for s, row in enumerate(oracle._A_ROWS, start=1):
            assert np.array_equal(row, ref.A[s, :s])
        assert np.array_equal(oracle._B, ref.B)
        assert np.array_equal(oracle._WEIGHTS,
                              [ref.B, ref.E3[:12], ref.E5[:12]])

    @pytest.mark.parametrize("lam", [40.0, 320.0])
    def test_matches_solve_ivp(self, sech_coefficient, lam):
        # scipy's Python DOP853 at the same tolerances, on both basis
        # solutions at basis_error's nodes
        from scipy.integrate import solve_ivp

        prob, y0, dy0, t = _basis_problem(sech_coefficient, lam)
        tol = 1e-13

        def rhs(s, y):
            return np.concatenate(
                (y[2:], -lam ** 2 * float(sech_coefficient.q(s)) * y[:2]))

        ref = solve_ivp(rhs, (t[0], t[-1]), np.concatenate((y0, dy0)),
                        method="DOP853", rtol=2.5e-14, atol=tol, t_eval=t)
        assert ref.success
        y, dy = ode_oracle(prob, y0, dy0, t, tol=tol)
        assert np.max(np.abs(y - ref.y[:2])) <= 1e-11
        assert np.max(np.abs(dy - ref.y[2:])) <= 1e-11 * lam

    @pytest.mark.parametrize("lam", [40.0, 320.0])
    def test_matches_compiled_dop853(self, sech_coefficient, lam):
        # scipy's compiled DOP853 (`ode`) stepped from node to node, with
        # the tolerances of test_matches_solve_ivp
        from scipy.integrate import ode

        prob, y0, dy0, t = _basis_problem(sech_coefficient, lam)
        tol = 1e-13

        def rhs(s, y):
            c = -lam ** 2 * float(sech_coefficient.q(s))
            return [y[2], y[3], c * y[0], c * y[1]]

        solver = ode(rhs).set_integrator("dop853", rtol=2.5e-14, atol=tol,
                                         nsteps=2 ** 31 - 1)
        solver.set_initial_value(np.concatenate((y0, dy0)), t[0])
        ref = np.column_stack([solver.integrate(tk) for tk in t[1:]])
        assert solver.successful()
        y, dy = ode_oracle(prob, y0, dy0, t, tol=tol)
        assert np.max(np.abs(y[:, 1:] - ref[:2])) <= 1e-11
        assert np.max(np.abs(dy[:, 1:] - ref[2:])) <= 1e-11 * lam


class TestSteppedInPlace:
    """The lanes' state table and stage buffer against the loop that
    builds every stage anew (`transfer_matrices_reference`): the same q
    calls, of the same sizes, the same transfer matrices to the bit,
    and the same failures at the same call."""

    @staticmethod
    def both(q, lam, ends, tol=ORACLE_TOL):
        """[(matrices or the NumericalError raised, q-call sizes)] of the
        oracle's loop and of the reference."""
        runs = []
        for transfer in (oracle._transfer_matrices,
                         transfer_matrices_reference):
            sizes = []

            def recorded(s):
                sizes.append(np.size(s))
                return q(s)

            q_ends = np.asarray(q(ends), dtype=float)
            try:
                out = transfer(recorded, lam, ends, q_ends, tol)
            except NumericalError as error:
                out = error
            runs.append((out, sizes))
        return runs

    def assert_same(self, q, lam, ends, tol=ORACLE_TOL):
        (out, sizes), (ref, ref_sizes) = self.both(q, lam, ends, tol)
        assert sizes == ref_sizes and len(sizes) > 2
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("lam", [20.0, 80.0, 320.0, 1280.0])
    def test_expression_route(self, lam):
        # the verify path's q, at basis_error's nodes
        q = problem_config_from_dict(
            {"q": "1 + sech(t)**2", "a": -3.0, "b": 3.0}).coefficient.q
        self.assert_same(q, lam, np.linspace(-3.0, 3.0, CHECK_NODES))

    def test_uneven_lanes(self, rng):
        # lanes of many lengths, which finish at many different steps
        ends = np.concatenate(([-3.0], np.sort(rng.uniform(-3.0, 3.0, 60)),
                               [3.0]))
        self.assert_same(sech2, 80.0, ends, tol=1e-10)

    @pytest.mark.parametrize("lam", [10.0, 200.0])
    def test_q_that_returns_its_argument(self, lam):
        # q(t) = t on [1, 2] gives back the stage nodes it is called
        # with, so a write into q's result would move them
        def q(t):
            return t

        self.assert_same(q, lam, np.linspace(1.0, 2.0, 101))

    def test_read_only_q(self):
        # a write into q's result raises here
        def q(t):
            out = sech2(t)
            out.flags.writeable = False
            return out

        self.assert_same(q, 320.0, np.linspace(-3.0, 3.0, CHECK_NODES))

    @pytest.mark.parametrize("value, message", [
        (1e20, "step size becomes too small"),
        (np.nan, "error estimate is not a number")])
    def test_failure_at_the_same_call(self, value, message):
        # q takes `value` only between two nodes, so the lanes start from
        # finite values and a step inside one lane meets it
        def q(s):
            return np.where((s > 0.501) & (s < 0.502), value, sech2(s))

        ends = np.linspace(-3.0, 3.0, CHECK_NODES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (out, sizes), (ref, ref_sizes) = self.both(q, 40.0, ends)
        assert isinstance(out, NumericalError)
        assert str(out) == str(ref) == (
            f"reference integrator failed: {message}")
        assert sizes == ref_sizes and len(sizes) > 2


def _basis_problem(coefficient, lam):
    """The problem at lam, the initial data of its phase-function basis
    at a, and basis_error's nodes."""
    prob = build_problem(coefficient, lam)
    result, _ = solve_problem(prob)
    phase = build_phase(result, prob)
    u0, du0, v0, dv0 = basis_derivatives(phase, np.array([phase.a]))
    t = np.linspace(phase.a, phase.b, CHECK_NODES)
    return prob, np.concatenate((u0, v0)), np.concatenate((du0, dv0)), t


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
        b = prob.coefficient.interval_b
        assert prob.map.t_of_x(prob.map.x_of_t(b)) > b
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


def test_import_leaves_scipy_integrate_unloaded(tmp_path):
    # `import nophase`, then one `nophase verify` in the same process
    src = os.path.dirname(os.path.dirname(nophase.__file__))
    problem = tmp_path / "sech.json"
    problem.write_text('{"q": "1 + sech(t)**2", "a": -3.0, "b": 3.0, '
                       '"extension_width": 4.0}')
    code = ("import sys, nophase\n"
            "print('scipy.integrate' in sys.modules)\n"
            "from nophase.cli import main\n"
            f"code = main(['verify', {str(problem)!r}, '--lambda', '20'])\n"
            "print(code, sorted(m for m in sys.modules\n"
            "                   if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "False"
    assert lines[-1] == "0 []"


def test_verify_leaves_numpy_polynomial_unloaded(tmp_path):
    # `import nophase.cli`, then one `nophase verify` in the same process:
    # the Chebyshev kernels are the package's own
    src = os.path.dirname(os.path.dirname(nophase.__file__))
    problem = tmp_path / "sech.json"
    problem.write_text('{"q": "1 + sech(t)**2", "a": -3.0, "b": 3.0, '
                       '"extension_width": 4.0}')
    code = ("import sys\n"
            "from nophase.cli import main\n"
            f"code = main(['verify', {str(problem)!r}, '--lambda', '20'])\n"
            "print(code, sorted(m for m in sys.modules\n"
            "                   if m.startswith('numpy.polynomial')))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip().splitlines()[-1] == "0 []"
