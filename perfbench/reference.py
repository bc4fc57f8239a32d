"""The benchmark's own closed forms and correctness checks.

Nothing here calls into nophase: the checks judge the program's outputs
against the closed-form coefficient, the phase equation written out by
hand, and an ODE integration that does not go through `oracle.py`.
"""

import numpy as np
from scipy.integrate import solve_ivp

# q = 1 + sech^2 t on [A, B], blended to constants over width WIDTH
A, B, WIDTH = -3.0, 3.0, 4.0
Q_SUP = 2.0  # max of q over [A, B], attained at t = 0

# The same q and its exact derivatives in the grammar of nophase's
# expression evaluator (no sinh/cosh there, so sinh t = (e^t - e^-t)/2).
Q_EXPR = "1 + sech(t)**2"
DQ_EXPR = "-(exp(t) - exp(-t))*sech(t)**3"
D2Q_EXPR = "((exp(t) - exp(-t))**2 - 2)*sech(t)**4"

# `nophase verify` passes when the basis error is below
# max(1e4 * oracle_tol, 1e-9) and the Kummer residual below 1e-8 lambda^2;
# the benchmark runs the oracle at its default tolerance 1e-13.
ORACLE_TOL = 1e-13
BASIS_TOL = max(1e4 * ORACLE_TOL, 1e-9)
RESIDUAL_REL = 1e-8
# Round-off allowance on the Kummer residual, relative to lambda^2 ||q||,
# on top of the theoretical ||q|| ||nu|| / 4.  About 500 ulp: the residual
# subtracts two terms of size lambda^2 ||q||.
ROUNDOFF_REL = 1e-13
DEGREE_SPREAD = 5
# window of the high-lambda integration check
WINDOW = (0.25, 0.5)


def q(t):
    t = np.asarray(t, dtype=float)
    return 1.0 + 1.0 / np.cosh(t) ** 2


def dq(t):
    t = np.asarray(t, dtype=float)
    return -2.0 * np.sinh(t) / np.cosh(t) ** 3


def d2q(t):
    t = np.asarray(t, dtype=float)
    return (4.0 * np.sinh(t) ** 2 - 2.0) / np.cosh(t) ** 4


def expression_error():
    """Largest mismatch between the expression strings and the closed
    forms over the extended interval, evaluated with numpy directly."""
    t = np.linspace(A - 3.0 * WIDTH, B + 3.0 * WIDTH, 241)
    names = {"t": t, "exp": np.exp, "sech": lambda u: 1.0 / np.cosh(u)}
    worst = 0.0
    for source, exact in ((Q_EXPR, q), (DQ_EXPR, dq), (D2Q_EXPR, d2q)):
        value = eval(source, {"__builtins__": {}}, dict(names))  # noqa: S307 - fixed strings above
        worst = max(worst, float(np.max(np.abs(value - exact(t)))))
    return worst


def interior_nodes(a=A, b=B, n=400, trim=0.05):
    """The nodes `nophase verify` samples the residual at: equispaced,
    trimming 5% of the interval at each end."""
    pad = trim * (b - a)
    return np.linspace(a + pad, b - pad, n)


def basis(phase, t):
    """(u, u', v, v') from the phase's alpha, alpha' and r' with
    u = cos(alpha)/sqrt(alpha'), v = sin(alpha)/sqrt(alpha') and
    alpha'' = alpha' r'/2."""
    t = np.asarray(t, dtype=float)
    alpha = np.asarray(phase.alpha_t(t))
    speed = np.asarray(phase.dalpha_t(t))
    dr = np.asarray(phase.dr_t(t))
    root = np.sqrt(speed)
    u = np.cos(alpha) / root
    v = np.sin(alpha) / root
    return u, -np.sin(alpha) * root - 0.25 * dr * u, \
        v, np.cos(alpha) * root - 0.25 * dr * v


def kummer_residual(phase, lam, t):
    """(alpha')^2 - lambda^2 q + r''/4 - (r')^2/16 with the closed-form q,
    where alpha' = lambda exp(r/2)."""
    t = np.asarray(t, dtype=float)
    speed = np.asarray(phase.dalpha_t(t))
    dr = np.asarray(phase.dr_t(t))
    d2r = np.asarray(phase.d2r_t(t))
    return speed * speed - lam * lam * q(t) + 0.25 * d2r - dr * dr / 16.0


def kummer_bound(lam, nu_inf):
    """||q|| ||nu|| / 4 plus the round-off allowance."""
    return Q_SUP * nu_inf / 4.0 + ROUNDOFF_REL * lam * lam * Q_SUP


def integration_error(phase, lam, t0, t1, n=401):
    """Largest |u - y_u| and |v - y_v| on [t0, t1], where y_u, y_v solve
    y'' + lambda^2 q y = 0 by DOP853 from the phase's own initial data."""
    start = [float(np.ravel(z)[0]) for z in basis(phase, [t0])]

    def rhs(t, y):
        k = -lam * lam * (1.0 + 1.0 / np.cosh(t) ** 2)
        return [y[1], k * y[0], y[3], k * y[2]]

    nodes = np.linspace(t0, t1, n)
    sol = solve_ivp(rhs, (t0, t1), start, method="DOP853", rtol=ORACLE_TOL,
                    atol=ORACLE_TOL, t_eval=nodes)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    u, _, v, _ = basis(phase, nodes)
    return max(float(np.max(np.abs(u - sol.y[0]))),
               float(np.max(np.abs(v - sol.y[2]))))


def certificate_problems(report):
    """Names of the certificate flags of a BoundsReport that do not hold."""
    flags = ("certified", "lambda_hypothesis_ok", "w_l1_hypothesis_ok",
             "sigma_support_ok", "sigma_decay_ok", "nu_bound_ok")
    return [name for name in flags if not getattr(report, name)]


def verify_problems(lam, err, res):
    """`nophase verify`'s gates on a basis error and a max |Kummer
    residual| at lambda, as messages for those that fail."""
    problems = []
    if not err <= BASIS_TOL:
        problems.append(f"basis error {err:.3e} > {BASIS_TOL:.1e}")
    limit = RESIDUAL_REL * lam * lam
    if not res <= limit:
        problems.append(f"Kummer residual {res:.3e} > {limit:.3e}")
    return problems


def lambda_hypothesis_holds(lam, gamma, mu):
    """lambda > 2 max(1/mu, Gamma), the condition the certificate needs."""
    return lam > 2.0 * max(1.0 / mu, gamma)
