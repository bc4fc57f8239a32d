"""Assembly of the phase function from the solved density and evaluation
of the (u, v) solution basis.

r(t) = log q(t) + delta(x(t)) and alpha(t) = lambda int_a^t exp(r/2); the
basis is u = cos(alpha)/sqrt(alpha'), v = sin(alpha)/sqrt(alpha').  The
band-limited correction delta is summed from its trigonometric series
(exact for band-limited data) once, at the Lobatto nodes of a single
adaptive Chebyshev fit of delta(x(t)) over [a, b]; r, its derivatives and
alpha are built from that series, because alpha grows linearly and is not
periodic.
"""

from dataclasses import dataclass, replace

import numpy as np

from .chebseries import ChebSeries
from .errors import DomainError, MagnitudeError
from .grid import RealSample, SpectralSample, forward, inverse

_CHUNK = 512


def apply_S(f, lam):
    """The nonlinear operator S[f] = (f')^2/4 - 4 lambda^2 (exp(f)-1-f),
    with f' by spectral differentiation."""
    if np.max(np.abs(f.values)) >= 700.0:
        raise MagnitudeError("space-domain magnitude too large for exp")
    F = forward(f)
    df = inverse(SpectralSample(f.grid, 1j * f.grid.xi * F.values))
    vals = 0.25 * df.values ** 2 \
        - 4.0 * lam ** 2 * (np.expm1(f.values) - f.values)
    return RealSample(f.grid, vals)


def band_limited_evaluator(F):
    """Callable x -> f(x) = (dxi/2pi) Re sum_k F_k exp(i x xi_k), summing
    only over the support nodes.  Exact for band-limited samples."""
    on = np.abs(F.values) > 0.0
    xi = F.grid.xi[on]
    coef = F.values[on] * (F.grid.dxi / (2.0 * np.pi))

    def evaluate(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        for start in range(0, len(x), _CHUNK):
            xs = x[start:start + _CHUNK]
            out[start:start + _CHUNK] = np.exp(1j * np.outer(xs, xi)).dot(coef).real
        return out

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
        return self.lam * np.exp(0.5 * np.asarray(self.r_t(t)))

    @classmethod
    def from_log_derivative(cls, r, dr, d2r, lam, a, b, tail_tol=1e-13):
        """Build from analytic callables for r and its derivatives; alpha
        is obtained by Clenshaw-Curtis antidifferentiation."""
        speed = ChebSeries.adaptive_fit(
            lambda t: lam * np.exp(0.5 * np.asarray(r(t))), a, b, tol=tail_tol)
        alpha = speed.antideriv(anchor=a, value=0.0)
        return cls(lam=lam, a=a, b=b, r_t=r, dr_t=dr, d2r_t=d2r,
                   alpha_t=alpha)


def build_phase(result, prob, tail_tol=1e-13):
    """Assemble the phase function for a solved problem.

    delta's trigonometric series (the transform `result.delta_hat`) is
    summed once, at the nodes of one adaptive Chebyshev fit of
    delta(x(t)) over [a, b]; r = log q + delta is fitted from that series
    and the exact q, and alpha integrates lambda exp(r/2) anchored at
    alpha(a) = 0 (`PhaseFunction.from_log_derivative`)."""
    a, b = prob.coefficient.interval_a, prob.coefficient.interval_b
    delta_on_grid = band_limited_evaluator(result.delta_hat)
    x_of_t, shift = prob.map.x_of_t, prob.x_shift
    delta = ChebSeries.adaptive_fit(
        lambda t: delta_on_grid(x_of_t(t) - shift), a, b, tol=tail_tol)
    r = ChebSeries.adaptive_fit(
        lambda t: np.log(prob.coefficient.q(t)) + delta(t), a, b,
        tol=tail_tol)
    dr = r.deriv()
    phase = PhaseFunction.from_log_derivative(r, dr, dr.deriv(), prob.lam,
                                              a, b, tail_tol=tail_tol)
    return replace(phase, delta_degree=delta.degree_for_tail(1e-12),
                   r_degree=r.degree_for_tail(1e-12))


def eval_basis(phase, t):
    """The pair u = cos(alpha)/sqrt(|alpha'|), v = sin(alpha)/sqrt(|alpha'|)."""
    t_arr = np.asarray(t, dtype=float)
    slack = 1e-12 * (phase.b - phase.a)
    if np.any(t_arr < phase.a - slack) or np.any(t_arr > phase.b + slack):
        raise DomainError("evaluation point outside [a, b]")
    alpha = np.asarray(phase.alpha_t(t_arr))
    root = np.sqrt(np.abs(np.asarray(phase.dalpha_t(t_arr))))
    return np.cos(alpha) / root, np.sin(alpha) / root


def basis_derivatives(phase, t):
    """(u, u', v, v') from alpha and r analytically."""
    t_arr = np.asarray(t, dtype=float)
    alpha = np.asarray(phase.alpha_t(t_arr))
    da = np.asarray(phase.dalpha_t(t_arr))
    dr = np.asarray(phase.dr_t(t_arr))
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
    da = np.asarray(phase.dalpha_t(t))
    dr = np.asarray(phase.dr_t(t))
    d2r = np.asarray(phase.d2r_t(t))
    return da * da - phase.lam ** 2 * np.asarray(q(t)) \
        + 0.25 * d2r - dr * dr / 16.0


def interior_nodes(a, b, n=400, trim=0.05):
    """Equispaced sample nodes excluding a fraction of the interval at
    each endpoint, where extension effects concentrate."""
    pad = trim * (b - a)
    return np.linspace(a + pad, b - pad, n)
