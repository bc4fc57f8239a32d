"""Independent validation oracles: a high-order adaptive ODE integrator
for y'' + lambda^2 q y = 0 and basis-error measurement against the phase
function."""

import math
import signal
import threading
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import DomainError, NumericalError
from .phase import basis_derivatives

_MIN_RTOL = 2.5e-14  # DOP853's floor is 100 * machine epsilon
CHECK_NODES = 400  # equispaced nodes of basis_error
_NSTEPS = 2 ** 31 - 1  # no step cap per node, as solve_ivp has none
# DOP853 stops with "step size becomes too small" on an interval below
# about 10 * 2.3e-16 * |t|; nodes closer than this to the last one are
# reached by one Euler step from it
_MIN_GAP = 1e-14
MIN_TOL = 1e-14  # smallest tolerance the oracle accepts
ORACLE_TOL = 1e-13  # default tolerance of verify's and sweep's basis error


def check_tol(tol, name):
    """ValueError naming `name` unless tol is finite and >= MIN_TOL."""
    if not (math.isfinite(tol) and tol >= MIN_TOL):
        raise ValueError(
            f"{name} must be a finite number >= {MIN_TOL:g}, not {tol!r}")


def ode_oracle(prob, y0, dy0, t, tol=ORACLE_TOL):
    """Adaptive 8th-order Runge-Kutta (DOP853, scipy's compiled code)
    solutions over [a, b], integrated from node to node over the
    ascending nodes t.  Uses the original coefficient, not its extension.

    y0 and dy0 may be length-m arrays: the m solutions are integrated as
    one 2m-dimensional system, with one q evaluation per stage and one
    step control for all of them.  Returns (y, dy) of shape (m, len(t)),
    or (len(t),) for scalar initial data.  Nodes within round-off of
    [a, b] are clipped onto it.  An exception raised by q propagates
    unchanged; any other integrator failure is a NumericalError.

    q is called once per stage with a Python float node.  With an
    expression q, which takes the float without making it an array
    (`expr.py`), a q call costs the oracle about 2.5 µs at lambda = 320
    on a 2-core machine, of which q itself is about 0.8 µs and the rest
    is scipy's compiled stepping and the right-hand side.  Each node
    restarts DOP853's choice of a first step, which costs about 7 %
    extra q calls at lambda = 320 and 29 % at lambda = 20; scipy's `ode`
    exposes no dense output that would let the nodes be sampled inside
    steps."""
    from scipy.integrate import ode

    check_tol(tol, "tol")
    a = prob.coefficient.interval_a
    b = prob.coefficient.interval_b
    t = np.asarray(t, dtype=float)
    slack = 1e-12 * (b - a)
    if np.any(t < a - slack) or np.any(t > b + slack):
        raise DomainError("oracle node outside [a, b]")
    t = np.clip(t, a, b)
    if np.any(np.diff(t) < 0):
        raise ValueError("oracle nodes must be ascending")
    neg_lam2 = -prob.lam ** 2
    q = prob.coefficient.q
    start = np.concatenate((np.atleast_1d(y0), np.atleast_1d(dy0)))
    m = start.size // 2
    nans = np.full(start.size, np.nan)
    raised = []

    # the compiled integrator swallows exceptions from its right-hand
    # side and keeps stepping; keep the first one and return NaNs, which
    # make it stop with a failure code within a few thousand calls
    def rhs(s, y):
        if not raised:
            try:
                # a list, not an array: for a few components numpy's
                # calls cost more than the arithmetic they do
                c = neg_lam2 * float(q(s))
                if m == 2:  # basis_error's pair, unpacked: half the cost
                    u, v, du, dv = y.tolist()
                    return [du, dv, c * u, c * v]
                v = y.tolist()
                return v[m:] + [c * x for x in v[:m]]
            except BaseException as exc:
                raised.append(exc)
        return nans

    solver = ode(rhs).set_integrator("dop853", rtol=max(tol, _MIN_RTOL),
                                     atol=tol, nsteps=_NSTEPS)
    solver.set_initial_value(start, a)
    out = np.empty((start.size, t.size))
    y, t_done, failure = start, a, None
    with _interrupts_kept(raised), warnings.catch_warnings():
        # scipy reports a failure code as a warning; raise it here instead
        warnings.filterwarnings("error", message="dop853: ",
                                category=UserWarning)
        try:
            for k, tk in enumerate(t):
                if tk - t_done > _MIN_GAP * abs(t_done):
                    y, t_done = solver.integrate(tk), tk
                    out[:, k] = y
                else:
                    out[:, k] = (y if tk == t_done else y + (tk - t_done)
                                 * np.asarray(rhs(t_done, y)))
                if raised:
                    break
        except UserWarning as warning:
            failure = str(warning).removeprefix("dop853: ")
    if raised:
        raise raised[0]
    if failure is not None:
        raise NumericalError("reference integrator failed: " + failure)
    y, dy = out[:m], out[m:]
    if np.ndim(y0) == 0:
        return y[0], dy[0]
    return y, dy


@contextmanager
def _interrupts_kept(raised):
    """Run the Python SIGINT (Ctrl-C) handler through a wrapper that
    appends what it raises to `raised`.  Python runs a handler at its next
    check between bytecodes, which may fall before the right-hand side's
    try, and the compiled integrator swallows an exception raised there.
    Only the main thread sets and runs signal handlers."""
    handler = signal.getsignal(signal.SIGINT)
    if (not callable(handler)
            or threading.current_thread() is not threading.main_thread()):
        yield
        return

    def keep(signum, frame):
        try:
            handler(signum, frame)
        except BaseException as exc:
            raised.append(exc)

    signal.signal(signal.SIGINT, keep)
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, handler)


def basis_error(phase, prob, tol=ORACLE_TOL):
    """Max-norm differences, at CHECK_NODES equispaced nodes of [a, b],
    between the phase-function basis (u, v) and reference solutions with
    the same initial data at t = a, both integrated in one pass."""
    a, b = phase.a, phase.b
    u0, du0, v0, dv0 = basis_derivatives(phase, np.array([a]))
    t = np.linspace(a, b, CHECK_NODES)
    u, _, v, _ = basis_derivatives(phase, t)
    y, _ = ode_oracle(prob, np.concatenate((u0, v0)),
                      np.concatenate((du0, dv0)), t, tol=tol)
    return float(np.max(np.abs(u - y[0]))), float(np.max(np.abs(v - y[1])))
