"""Assembly of the phase function from the solved density and evaluation
of the (u, v) solution basis.

r(t) = log q(t) + delta(x(t)) and alpha(t) = lambda int_a^t exp(r/2); the
basis is u = cos(alpha)/sqrt(alpha'), v = sin(alpha)/sqrt(alpha').  The
band-limited correction delta is summed from its trigonometric series
(exact for band-limited data) once, at the Lobatto nodes of a single
adaptive Chebyshev fit of delta(x(t)) over [a, b]; r, its derivatives and
alpha are built from that series, because alpha grows linearly and is not
periodic.  The fits of r and of alpha' read delta and r from the values
those were fitted from, at the nodes they share.  Each fit keeps its
coefficients up to its round-off plateau (`ChebSeries.adaptive_fit`), so
r, its derivatives and alpha are summed at their resolved length, which
does not grow with lambda.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .chebseries import ChebSeries, call_together
from .errors import DomainError

INTERIOR_N = 400       # points of interior_nodes
INTERIOR_TRIM = 0.05   # fraction of [a, b] it leaves out at each end


def band_limited_evaluator(F):
    """Callable x -> f(x) = (dxi/2pi) Re sum_k F_k exp(i x xi_k), summing
    only up to the last support node.  Exact for band-limited samples.

    The sum runs over F's nonnegative half, xi = m dxi: each xi > 0 stands
    for itself and -xi, since Re F(-xi) e^{-i x xi} = Re conj F(-xi)
    e^{i x xi}, so it carries weight 2, except the self-paired xi_max.
    So only m = 0 .. top-1 is summed, where F is 0 beyond top.  It is
    summed in blocks of B = ceil(sqrt(N/2 + 1)) nodes,

        sum_m c_m e^{i x m dxi}
            = sum_q e^{i x qB dxi} (sum_r c_{qB+r} e^{i x r dxi}),

    from two tables of exponentials (points x B and points x Q, with
    Q = ceil(top/B)) and one matrix product, instead of one exponential
    per point and node.  B depends on the grid alone, so evaluators of
    two samples on one grid build the same tables."""
    half, n = F.half, F.grid.n_points // 2
    support = np.flatnonzero(half)
    top = int(support[-1]) + 1 if support.size else 0
    block = math.isqrt(n) + 1  # ceil(sqrt(n + 1))
    blocks = -(-top // block)
    coef = np.zeros(blocks * block, dtype=complex)
    coef[:top] = half[:top] * (F.grid.dxi / (2.0 * np.pi))
    coef[1:min(top, n)] *= 2.0
    coef = coef.reshape(blocks, block).T
    fine = np.arange(block) * F.grid.dxi
    coarse = np.arange(0, blocks * block, block) * F.grid.dxi

    def evaluate(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        inner = np.exp(1j * np.outer(x, fine)).dot(coef)
        return np.einsum("pq,pq->p", np.exp(1j * np.outer(x, coarse)),
                         inner).real

    return evaluate


@dataclass(frozen=True)
class PhaseFunction:
    """The phase alpha with its log-derivative r (alpha' = lambda e^{r/2})
    on [a, b], all evaluable callables."""

    lam: float
    a: float
    b: float
    r_t: object
    dr_t: object
    d2r_t: object
    alpha_t: object
    delta_degree: int = 0
    r_degree: int = 0

    def dalpha_t(self, t):
        """alpha' = lambda exp(r/2) at t.  The package's own paths hold r
        already and call `dalpha_of_r`; the benchmark's reference checks
        (`basis` and `kummer_residual` in perfbench/reference.py) call
        this."""
        return self.dalpha_of_r(self.r_t(t))

    def dalpha_of_r(self, r):
        """alpha' from the values of r."""
        return self.lam * np.exp(0.5 * np.asarray(r))

    @classmethod
    def from_log_derivative(cls, r, dr, d2r, lam, a, b):
        """Build from analytic callables for r and its derivatives; alpha
        is obtained by Clenshaw-Curtis antidifferentiation, anchored at
        alpha(a) = 0.  A fitted `ChebSeries` r is read from its own
        samples at the speed fit's nodes (`ChebSeries.sampled`)."""
        r_at = r.sampled if isinstance(r, ChebSeries) else r
        speed = ChebSeries.adaptive_fit(
            lambda t: lam * np.exp(0.5 * np.asarray(r_at(t))), a, b)
        alpha = speed.antideriv()
        return cls(lam=lam, a=a, b=b, r_t=r, dr_t=dr, d2r_t=d2r,
                   alpha_t=alpha)


def build_phase(result, prob):
    """Assemble the phase function for a solved problem.

    delta's trigonometric series (the transform `result.delta_hat`) is
    summed once, at the nodes of one adaptive Chebyshev fit of
    delta(x(t)) over [a, b]; r = log q + delta is fitted from that series
    and the exact q, and alpha integrates lambda exp(r/2) anchored at
    alpha(a) = 0 (`PhaseFunction.from_log_derivative`)."""
    a, b = prob.coefficient.interval_a, prob.coefficient.interval_b
    delta_on_grid = band_limited_evaluator(result.delta_hat)
    x_of_t, shift = prob.map.x_of_t, prob.map.x_shift
    delta = ChebSeries.adaptive_fit(
        lambda t: delta_on_grid(x_of_t(t) - shift), a, b)
    r = ChebSeries.adaptive_fit(
        lambda t: np.log(prob.coefficient.q(t)) + delta.sampled(t), a, b)
    dr = r.deriv()
    phase = PhaseFunction.from_log_derivative(r, dr, dr.deriv(), prob.lam,
                                              a, b)
    return replace(phase, delta_degree=delta.degree_for_tail(),
                   r_degree=r.degree_for_tail())


def eval_basis(phase, t):
    """The pair u = cos(alpha)/sqrt(|alpha'|), v = sin(alpha)/sqrt(|alpha'|)."""
    t_arr = np.asarray(t, dtype=float)
    slack = 1e-12 * (phase.b - phase.a)
    if np.any(t_arr < phase.a - slack) or np.any(t_arr > phase.b + slack):
        raise DomainError("evaluation point outside [a, b]")
    alpha, r = map(np.asarray,
                   call_together((phase.alpha_t, phase.r_t), t_arr))
    root = np.sqrt(np.abs(phase.dalpha_of_r(r)))
    return np.cos(alpha) / root, np.sin(alpha) / root


def basis_derivatives(phase, t):
    """(u, u', v, v') from alpha and r analytically."""
    alpha, r, dr = map(np.asarray, call_together(
        (phase.alpha_t, phase.r_t, phase.dr_t), t))
    da = phase.dalpha_of_r(r)
    root = np.sqrt(da)
    u = np.cos(alpha) / root
    v = np.sin(alpha) / root
    # d/dt [cos(alpha) da^(-1/2)] with da' = da * dr / 2
    du = -np.sin(alpha) * root - 0.25 * dr * u
    dv = np.cos(alpha) * root - 0.25 * dr * v
    return u, du, v, dv


def kummer_residual(phase, q, t_nodes):
    """Residual of the third-order phase equation at the given nodes:

        (alpha')^2 - lambda^2 q + (1/2) alpha'''/alpha'
                   - (3/4)(alpha''/alpha')^2
        = (alpha')^2 - lambda^2 q + r''/4 - (r')^2/16.

    Theory predicts |residual| <= ||q||_inf ||nu||_inf / 4."""
    t = np.asarray(t_nodes, dtype=float)
    r, dr, d2r = map(np.asarray, call_together(
        (phase.r_t, phase.dr_t, phase.d2r_t), t))
    da = phase.dalpha_of_r(r)
    return da * da - phase.lam ** 2 * np.asarray(q(t)) \
        + 0.25 * d2r - dr * dr / 16.0


def interior_nodes(a, b):
    """INTERIOR_N equispaced sample nodes, excluding the fraction
    INTERIOR_TRIM of [a, b] at each end, where extension effects
    concentrate."""
    pad = INTERIOR_TRIM * (b - a)
    return np.linspace(a + pad, b - pad, INTERIOR_N)
