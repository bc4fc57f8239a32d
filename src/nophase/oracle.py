"""Independent validation oracles: a high-order adaptive ODE integrator
for y'' + lambda^2 q y = 0, the Liouville-Green transform of its
solutions, and basis-error measurement against the phase function."""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalError
from .phase import basis_derivatives

_MIN_RTOL = 2.5e-14  # DOP853's floor is 100 * machine epsilon


def ode_oracle(prob, y0, dy0, t, tol=1e-13):
    """Adaptive 8th-order Runge-Kutta (DOP853) solutions over [a, b],
    sampled at the ascending nodes t.  Uses the original coefficient, not
    its extension.

    y0 and dy0 may be length-m arrays: the m solutions are integrated as
    one 2m-dimensional system, with one q evaluation per stage and one
    step control for all of them.  Returns (y, dy) of shape (m, len(t)),
    or (len(t),) for scalar initial data.  Nodes within round-off of
    [a, b] are clipped onto it."""
    from scipy.integrate import solve_ivp

    if tol < 1e-14:
        raise ValueError("tol must be >= 1e-14")
    a = prob.coefficient.interval_a
    b = prob.coefficient.interval_b
    t = np.asarray(t, dtype=float)
    slack = 1e-12 * (b - a)
    if np.any(t < a - slack) or np.any(t > b + slack):
        raise DomainError("oracle node outside [a, b]")
    neg_lam2 = -prob.lam ** 2
    q = prob.coefficient.q
    start = np.concatenate((np.atleast_1d(y0), np.atleast_1d(dy0)))
    m = start.size // 2

    def rhs(s, y):
        return np.concatenate((y[m:], neg_lam2 * float(q(s)) * y[:m]))

    sol = solve_ivp(rhs, (a, b), start, method="DOP853",
                    rtol=max(tol, _MIN_RTOL), atol=tol,
                    t_eval=np.clip(t, a, b))
    if not sol.success:
        raise NumericalError(f"reference integrator failed: {sol.message}")
    y, dy = sol.y[:m], sol.y[m:]
    if np.ndim(y0) == 0:
        return y[0], dy[0]
    return y, dy


@dataclass(frozen=True)
class TransformedSolution:
    """phi(x) = q(t(x))^(1/4) y(t(x)) on [0, x(b)] with its residual in
    the constant-coefficient form phi'' + lambda^2 phi + (1/4) p phi = 0."""

    x: np.ndarray
    phi: np.ndarray
    residual_rel: float


def liouville_green(prob, y0, dy0, n_nodes=3001):
    """Transform the oracle solution with initial data (y0, dy0) at t = a
    and measure the residual of the constant-coefficient equation by
    6th-order finite differences."""
    x_b = prob.map.x_b
    x = np.linspace(0.0, x_b, n_nodes)
    t = prob.map.t_of_x(x)
    y, _ = ode_oracle(prob, y0, dy0, t)
    qv = np.asarray(prob.coefficient.q(t))
    phi = qv ** 0.25 * y

    # p as a function of x on these nodes
    ratio = np.asarray(prob.coefficient.dq(t)) / qv
    p = (1.25 * ratio * ratio - np.asarray(prob.coefficient.d2q(t)) / qv) / qv

    h = x[1] - x[0]
    i = np.arange(3, n_nodes - 3)
    d2phi = (2.0 * (phi[i - 3] + phi[i + 3])
             - 27.0 * (phi[i - 2] + phi[i + 2])
             + 270.0 * (phi[i - 1] + phi[i + 1])
             - 490.0 * phi[i]) / (180.0 * h * h)
    resid = d2phi + prob.lam ** 2 * phi[i] + 0.25 * p[i] * phi[i]
    scale = float(np.max(np.abs(phi)))
    residual_rel = float(np.max(np.abs(resid))) / scale if scale > 0 else 0.0
    return TransformedSolution(x=x, phi=phi, residual_rel=residual_rel)


def undo_liouville_green(prob, transformed):
    """Recover y(t) = q(t)^(-1/4) phi(x(t)) on the transform's nodes."""
    t = prob.map.t_of_x(transformed.x)
    qv = np.asarray(prob.coefficient.q(t))
    return t, transformed.phi / qv ** 0.25


def basis_error(phase, prob, tol=1e-13, n_samples=400):
    """Max-norm differences between the phase-function basis (u, v) and
    reference solutions with the same initial data at t = a, both
    integrated in one pass."""
    a, b = phase.a, phase.b
    u0, du0, v0, dv0 = basis_derivatives(phase, np.array([a]))
    t = np.linspace(a, b, n_samples)
    u, _, v, _ = basis_derivatives(phase, t)
    y, _ = ode_oracle(prob, np.concatenate((u0, v0)),
                      np.concatenate((du0, dv0)), t, tol=tol)
    return float(np.max(np.abs(u - y[0]))), float(np.max(np.abs(v - y[1])))
