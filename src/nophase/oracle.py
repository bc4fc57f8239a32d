"""Independent validation oracles: a high-order adaptive ODE integrator
for y'' + lambda^2 q y = 0 and basis-error measurement against the phase
function."""

import math

import numpy as np

from .errors import NumericalError
from .phase import _points_in_interval, basis_derivatives

_MIN_RTOL = 2.5e-14  # DOP853's floor is 100 * machine epsilon
CHECK_NODES = 400  # equispaced nodes of basis_error
# DOP853 stops with "step size becomes too small" on an interval below
# about 10 * 2.3e-16 * |t|; nodes closer than this to the last one are
# reached by one Euler step from it
_MIN_GAP = 1e-14
MIN_TOL = 1e-14  # smallest tolerance the oracle accepts
ORACLE_TOL = 1e-13  # default tolerance of verify's and sweep's basis error

# The Dormand-Prince 8(5,3) pair of Hairer, Norsett & Wanner, "Solving
# Ordinary Differential Equations I" (2nd ed., 1993), section II.10, code
# dop853.f: the nodes c_1..c_12, the rows a_i of the stages 2..12, the
# weights b of the 8th-order solution, the weights of the embedded
# 3rd-order solution at stages 1, 9 and 12 (bhh), and the 5th-order
# error weights (er)
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0])
_A_ROWS = (
    np.array([0.05260015195876773]),
    np.array([0.0197250569845379, 0.0591751709536137]),
    np.array([0.02958758547680685, 0.0, 0.08876275643042054]),
    np.array([0.2413651341592667, 0.0, -0.8845494793282861,
              0.924834003261792]),
    np.array([0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
              0.12546768756682242]),
    np.array([0.037109375, 0.0, 0.0, 0.17025221101954405,
              0.06021653898045596, -0.017578125]),
    np.array([0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
              0.10726203044637328, -0.015319437748624402,
              0.008273789163814023]),
    np.array([0.6241109587160757, 0.0, 0.0, -3.3608926294469414,
              -0.868219346841726, 27.59209969944671, 20.154067550477894,
              -43.48988418106996]),
    np.array([0.47766253643826434, 0.0, 0.0, -2.4881146199716677,
              -0.590290826836843, 21.230051448181193, 15.279233632882423,
              -33.28821096898486, -0.020331201708508627]),
    np.array([-0.9371424300859873, 0.0, 0.0, 5.186372428844064,
              1.0914373489967295, -8.149787010746927, -18.52006565999696,
              22.739487099350505, 2.4936055526796523,
              -3.0467644718982196]),
    np.array([2.273310147516538, 0.0, 0.0, -10.53449546673725,
              -2.0008720582248625, -17.9589318631188, 27.94888452941996,
              -2.8589982771350235, -8.87285693353063, 12.360567175794303,
              0.6433927460157636]),
)
_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259])
_BHH = np.array([
    0.2440944881889764, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.7338466882816118, 0.0, 0.0, 0.022058823529411766])
_ER = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294])
# b, b - bhh and er: one product with the stages gives the 8th-order
# increment and both error estimates
_WEIGHTS = np.array([_B, _B - _BHH, _ER])
# dop853's step controller with scipy `ode`'s defaults: safety factor,
# bounds fac1 <= h_new / h <= fac2, and the unit round-off of its
# "step size becomes too small" test; beta = 0, so no Lund stabilisation
_SAFE, _FAC1, _FAC2 = 0.9, 0.3, 6.0
_UROUND = 2.3e-16


def check_tol(tol, name):
    """ValueError naming `name` unless tol is finite and >= MIN_TOL."""
    if not (math.isfinite(tol) and tol >= MIN_TOL):
        raise ValueError(
            f"{name} must be a finite number >= {MIN_TOL:g}, not {tol!r}")


def ode_oracle(prob, y0, dy0, t, tol=ORACLE_TOL):
    """Adaptive 8th-order Runge-Kutta (DOP853) solutions over [a, b] at
    the ascending nodes t.  Uses the original coefficient, not its
    extension.

    Every interval from one node to the next is integrated on its own,
    from its own first step, as one lane of a numpy DOP853 that steps
    all lanes together (`_transfer_matrices`).  A lane carries two
    solutions and gives a 2x2 transfer matrix; the matrices are chained
    in node order and applied to the initial data at a.  y0 and dy0 may
    be length-m arrays.  Returns (y, dy) of shape (m, len(t)), or
    (len(t),) for scalar initial data.  Nodes within round-off of [a, b]
    are clipped onto it.  A repeated node gets the values of the one
    before it, and a node within _MIN_GAP * |t| of the last integrated
    one is reached by one Euler step from it.

    q is called with 1-D arrays of nodes, as the solver calls it: once
    at the ends of the lanes, once for the first steps, and once per
    step for all live lanes at the 11 stage nodes past the step's start.
    An exception raised by q propagates unchanged; a step size that
    becomes too small or an error estimate that is not a number is a
    NumericalError."""
    check_tol(tol, "tol")
    a, b = prob.coefficient.interval_a, prob.coefficient.interval_b
    t = np.clip(_points_in_interval(t, a, b), a, b)
    if np.any(np.diff(t) < 0):
        raise ValueError("oracle nodes must be ascending")
    q = prob.coefficient.q
    # the nodes integrated to: a, then every node farther than _MIN_GAP
    # from the last of them; `ends[at[k]]` is the one node k comes from
    ends = [a]
    at = np.empty(t.size, dtype=int)
    for k, tk in enumerate(t.tolist()):
        if tk - ends[-1] > _MIN_GAP * abs(ends[-1]):
            ends.append(tk)
        at[k] = len(ends) - 1
    ends = np.array(ends)
    q_ends = np.asarray(q(ends), dtype=float)
    transfer = _transfer_matrices(q, prob.lam, ends, q_ends, tol)
    state = np.array([np.atleast_1d(y0), np.atleast_1d(dy0)], dtype=float)
    states = [state]
    for matrix in transfer:
        state = matrix @ state
        states.append(state)
    y, dy = np.stack(states)[at].transpose(1, 2, 0)
    gap = t - ends[at]
    c = -prob.lam ** 2 * q_ends[at]
    euler = gap != 0.0
    y, dy = (np.where(euler, y + gap * dy, y),
             np.where(euler, dy + gap * (c * y), dy))
    if np.ndim(y0) == 0:
        return y[0], dy[0]
    return y, dy


def _transfer_matrices(q, lam, ends, q_ends, tol):
    """The (len(ends) - 1, 2, 2) transfer matrices of y'' = -lam^2 q y
    from each node of `ends` to the next, each interval one lane of
    dop853's method and step control: an initial step from dop853's
    HINIT, then steps of the 8(5,3) pair, each accepted when its error
    estimate is at most 1 in the norm with atol = tol and
    rtol = max(tol, _MIN_RTOL).  A lane carries the solutions with
    initial data (1, 0) and (0, omega), omega = lam sqrt(q) at the lane's
    start, so that both are of one size in the error norm; the second
    is divided by omega at the end.  dop853's stiffness test is left
    out: h lam sqrt(q) stays far below its threshold of 6.1 on this
    oscillatory equation.

    The live lanes are the columns of one state table (x, xend, hmax, cx,
    lane index, next step, y), updated in place and compacted by one
    gather.  Stage s is Y_s and k_s = (Y_s', c_s Y_s) in one (12, 6, n)
    buffer, formed in place by the pair's operations in their order."""
    atol, rtol = tol, max(tol, _MIN_RTOL)
    neg_lam2 = -lam ** 2
    x, xend = ends[:-1], ends[1:]
    lanes = x.size
    if lanes == 0:
        return np.empty((0, 2, 2))
    omega = lam * np.sqrt(np.maximum(q_ends[:-1], 0.0))
    omega[~(omega > 0.0)] = 1.0  # q not positive there: left unscaled
    y = np.zeros((4, lanes))
    y[0], y[3] = 1.0, omega
    cx = neg_lam2 * q_ends[:-1]
    hmax = xend - x

    # HINIT: an explicit Euler step estimates the second derivative
    f0 = np.concatenate((y[2:], cx * y[:2]))
    sk = atol + rtol * np.abs(y)
    dnf = np.sum((f0 / sk) ** 2, axis=0)
    dny = np.sum((y / sk) ** 2, axis=0)
    h = np.where((dnf <= 1e-10) | (dny <= 1e-10), 1e-6,
                 np.sqrt(dny / dnf) * 0.01)
    h = np.minimum(h, hmax)
    y1, c1 = y + h * f0, neg_lam2 * np.asarray(q(x + h), dtype=float)
    f1 = np.concatenate((y1[2:], c1 * y1[:2]))
    der2 = np.sqrt(np.sum(((f1 - f0) / sk) ** 2, axis=0)) / h
    der12 = np.maximum(np.abs(der2), np.sqrt(dnf))
    h1 = np.where(der12 <= 1e-15, np.maximum(1e-6, np.abs(h) * 1e-3),
                  (0.01 / der12) ** 0.125)
    h = np.minimum(np.minimum(100.0 * h, h1), hmax)

    table = np.vstack((x, xend, hmax, cx, np.arange(lanes), h, y))
    end = np.empty((4, lanes))
    reject = np.zeros(lanes, dtype=bool)
    while n := table.shape[1]:
        (x, xend, hmax, cx, lane, h), y = table[:6], table[6:]
        stages = np.empty((12, 6, n))
        k = stages.reshape(12, 6 * n)[:, 2 * n:]  # (12, 4n): every k_s
        sums = [(row, k[:s], stages[s, :4], stages[s, :4].reshape(-1),
                 stages[s, 4:]) for s, row in enumerate(_A_ROWS, start=1)]
        done = np.zeros(n, dtype=bool)
        while not done.any():  # steps until a lane finishes
            if (0.1 * h <= np.abs(x) * _UROUND).any():
                raise NumericalError(
                    "reference integrator failed: step size becomes too small")
            last = x + 1.01 * h - xend > 0.0
            step = np.where(last, xend - x, h)
            nodes = x + _C[1:, None] * step  # the last row is x + step
            # never written into: q may return a view of the nodes
            c = neg_lam2 * np.asarray(q(nodes.ravel()),
                                      dtype=float).reshape(11, n)
            stages[0, :4] = y
            np.multiply(cx, y[:2], out=stages[0, 4:])
            for (row, ks, ys, flat, cy), cs in zip(sums, c):
                np.matmul(row, ks, out=flat)
                ys *= step
                ys += y
                np.multiply(cs, ys[:2], out=cy)
            product = (_WEIGHTS @ k).reshape(3, 4, n)
            y_new, estimates = product[0], product[1:]
            y_new *= step
            y_new += y
            sk = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            estimates /= sk
            estimates *= estimates
            err3, err5 = estimates.sum(axis=1)
            deno = err5 + 0.01 * err3
            deno[deno <= 0.0] = 1.0
            err = step * err5 * np.sqrt(1.0 / (4.0 * deno))
            if np.isnan(err).any():
                raise NumericalError("reference integrator failed: "
                                     "error estimate is not a number")
            # the next step is step / fac, at most 1 / fac1 times
            # smaller, and after an accepted step at most fac2 times larger
            fac = np.minimum(1.0 / _FAC1, err ** 0.125 / _SAFE)
            accept = err <= 1.0
            h_accepted = np.minimum(step / np.maximum(1.0 / _FAC2, fac), hmax)
            np.minimum(h_accepted, step, out=h_accepted, where=reject)
            np.divide(step, fac, out=h)
            np.copyto(h, h_accepted, where=accept)
            np.copyto(x, nodes[-1], where=accept)
            np.copyto(cx, c[-1], where=accept)
            np.copyto(y, y_new, where=accept)
            reject = ~accept
            done = accept & last
        end[:, lane[done].astype(int)] = y[:, done]
        table, reject = table[:, ~done], reject[~done]
    return np.stack((end[0], end[1] / omega, end[2], end[3] / omega),
                    axis=-1).reshape(lanes, 2, 2)


def basis_error(phase, prob, tol=ORACLE_TOL):
    """Max-norm differences, at CHECK_NODES equispaced nodes of [a, b],
    between the phase-function basis (u, v) and reference solutions with
    the same initial data at t = a, both integrated in one pass."""
    a, b = phase.a, phase.b
    t = np.linspace(a, b, CHECK_NODES)  # t[0] is a
    u, du, v, dv = basis_derivatives(phase, t)
    y, _ = ode_oracle(prob, np.array([u[0], v[0]]), np.array([du[0], dv[0]]),
                      t, tol=tol)
    return float(np.max(np.abs(u - y[0]))), float(np.max(np.abs(v - y[1])))
