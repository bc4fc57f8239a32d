"""The Liouville-Green transform of oracle solutions, used by the
acceptance check of criterion 9 and the oracle tests."""

from dataclasses import dataclass

import numpy as np

from nophase.oracle import ode_oracle


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
    x_b = prob.map.x_of_t(prob.coefficient.interval_b)
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
