"""Band-limited fixed-point solver in the frequency domain.

The iteration solves psi = R[psi] with

    R[f] = (1/8pi) Wt[f]*Wt[f] - 4 lambda^2 exp2[Wb[f]] + w,

where Wb multiplies by bhat(xi)/(4 lambda^2 - xi^2), Wt by
-i xi bhat(xi)/(4 lambda^2 - xi^2), w is the transform of the forcing p,
and bhat is a C-infinity cutoff equal to 1 on [-lambda, lambda] and
supported inside (-sqrt(2) lambda, sqrt(2) lambda).  The fixed point is
the transform of the band-limited solution density; multiplying it by
bhat and inverting the Helmholtz multiplier yields the phase correction.
"""

import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .convexp import exp2_star
from .errors import ConfigurationError, ConvergenceError
from .grid import (RealSample, SpectralSample, convolve, inverse, l1_norm,
                   linf_norm, symmetrize)
from .mollifier import smooth_step
from .problem import below_floor, check_hypotheses, decay_bound

# absolute floor, relative to the largest magnitude in play, below which
# a theoretical bound is unmeasurable in double precision
BOUND_FLOOR_REL = 1e-14
SIGMA_SLACK = 1.01
NU_SLACK = 1.05

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Bump:
    """The frequency cutoff bhat with its geometry constants
    c = (sqrt(2)+1) lambda / 2 and alpha = (sqrt(2)-1) lambda / 4, and the
    band multiplier bhat/(4 lambda^2 - xi^2), exactly zero off the cutoff
    support so the vanishing denominator at |xi| = 2 lambda is never
    touched."""

    grid: object
    lam: float
    b_hat: SpectralSample
    c: float
    alpha: float
    multiplier: np.ndarray


def _cutoff(grid, lam):
    c = 0.5 * (_SQRT2 * lam + lam)
    alpha = 0.25 * (_SQRT2 * lam - lam)
    xi = grid.xi
    vals = smooth_step((xi + c) / alpha) - smooth_step((xi - c) / alpha)
    b_hat = SpectralSample(grid, vals.astype(complex))
    return Bump(grid=grid, lam=float(lam), b_hat=b_hat, c=c, alpha=alpha,
                multiplier=invert_helmholtz(b_hat, float(lam)).values.real)


def make_bump(grid, lam):
    """Evaluate the cutoff at the frequency nodes; requires
    xi_max >= 2 sqrt(2) lambda."""
    if grid.xi_max < 2.0 * _SQRT2 * lam:
        raise ConfigurationError(
            "xi_max must be at least 2*sqrt(2)*lambda to resolve the cutoff"
        )
    return _cutoff(grid, lam)


def make_unit_bump(grid, lam):
    """The same cutoff on a grid inside its plateau, where bhat is exactly
    1 at every node and the band multiplier is 1/(4 lambda^2 - xi^2);
    requires xi_max <= lambda."""
    if grid.xi_max > lam:
        raise ConfigurationError(
            "xi_max must be at most lambda for the cutoff to be 1 on the grid"
        )
    return _cutoff(grid, lam)


def apply_Wb(f, bump):
    """Multiply by bhat(xi)/(4 lambda^2 - xi^2)."""
    if f.grid != bump.grid:
        raise ConfigurationError("sample and bump live on different grids")
    return SpectralSample(f.grid, f.values * bump.multiplier)


def apply_Wb_tilde(f, bump):
    """Multiply by -i xi bhat(xi)/(4 lambda^2 - xi^2)."""
    if f.grid != bump.grid:
        raise ConfigurationError("sample and bump live on different grids")
    mult = -1j * f.grid.xi * bump.multiplier
    return SpectralSample(f.grid, f.values * mult)


def apply_R(psi, w_hat, bump):
    """One application of the fixed-point map."""
    wt = apply_Wb_tilde(psi, bump)
    wb = apply_Wb(psi, bump)
    # (1/8pi)(Wt * Wt) = convolve(Wt, Wt)/4 since convolve carries 1/2pi
    quad = convolve(wt, wt).values / 4.0
    expo = exp2_star(wb).values
    vals = quad - 4.0 * bump.lam ** 2 * expo + w_hat.values
    return SpectralSample(psi.grid, vals)


@dataclass
class SolverState:
    """Iterate, forcing, and the L1 increment history."""

    psi: SpectralSample
    w_hat: SpectralSample
    iteration: int
    l1_deltas: list
    converged: bool = False


def fixed_point_solve(w_hat, lam, tol=1e-14, max_iter=100, bump=None):
    """Iterate psi_{n+1} = R[psi_n] from psi_0 = w until the L1 increment
    drops below tol relative to ||w||_1.

    Convergence is guaranteed when ||w||_1 <= (pi/2) lambda^2; outside
    that ball the iteration proceeds with a warning."""
    if bump is None:
        bump = make_bump(w_hat.grid, lam)
    w_l1 = l1_norm(w_hat)
    if w_l1 > 0.5 * np.pi * lam ** 2:
        warnings.warn(
            "||w||_1 exceeds (pi/2) lambda^2: convergence is not certified",
            stacklevel=2,
        )
    threshold = tol * max(w_l1, 1e-300)
    psi = w_hat
    deltas = []
    for iteration in range(1, max_iter + 1):
        nxt = apply_R(psi, w_hat, bump)
        delta = l1_norm(SpectralSample(w_hat.grid, nxt.values - psi.values))
        deltas.append(delta)
        psi = nxt
        if delta <= threshold:
            return SolverState(psi=psi, w_hat=w_hat, iteration=iteration,
                               l1_deltas=deltas, converged=True)
    raise ConvergenceError(
        f"fixed-point iteration did not reach tol={tol} in {max_iter} steps",
        history=deltas,
    )


def invert_helmholtz(f_hat, lam):
    """The Helmholtz inverse on the frequency side: f-hat/(4l^2-xi^2) on
    the support of f-hat and exactly zero off it.  The band multiplier is
    this applied to bhat, and delta-hat this applied to sigma-hat.

    Requires the support of f-hat to lie strictly inside
    (-2 lambda, 2 lambda), away from the multiplier's zeros."""
    if f_hat.support_radius >= 2.0 * lam:
        raise ConfigurationError(
            "sample support reaches the Helmholtz multiplier's zeros"
        )
    xi = f_hat.grid.xi
    vals = np.zeros_like(f_hat.values)
    on = np.abs(f_hat.values) > 0.0
    vals[on] = f_hat.values[on] / (4.0 * lam ** 2 - xi[on] ** 2)
    return SpectralSample(f_hat.grid, vals)


def apply_T(sigma_hat, lam):
    """Invert the Helmholtz multiplier: delta = inverse transform of
    sigma-hat/(4l^2-xi^2).

    Requires the support of sigma-hat to lie strictly inside
    (-2 lambda, 2 lambda)."""
    return inverse(invert_helmholtz(sigma_hat, lam))


@dataclass
class BoundsReport:
    """Runtime checks of the decay/support bounds against the fitted
    (Gamma, mu).  Bounds that fall below the double-precision floor are
    checked against the floor instead and flagged."""

    lam: float
    gamma: float
    mu: float
    w_l1: float
    lambda_hypothesis_ok: bool
    w_l1_hypothesis_ok: bool
    certified: bool
    iterations: int
    final_delta: float
    sigma_support_ok: bool
    sigma_decay_ok: bool
    sigma_decay_floor_limited: bool
    nu_inf: float
    nu_bound: float
    nu_bound_ok: bool
    nu_floor_limited: bool
    delta_tail: float     # mass of delta-hat cut below its floor
    band_tail: float      # bound on the mass of sigma-hat beyond xi_max

    def as_dict(self):
        return asdict(self)


@dataclass
class SolveResult:
    """Output of one band-limited solve."""

    psi: SpectralSample          # transform of the band-limited density
    sigma_hat: SpectralSample    # psi * bhat, compactly supported
    nu: RealSample               # sigma - sigma_b, the residual forcing
    delta_hat: SpectralSample    # Helmholtz-inverted phase correction
    bounds_report: BoundsReport

    @property
    def delta(self):
        """The phase correction sampled on the space grid."""
        return inverse(self.delta_hat)


def extract_solution(state, bump, prob):
    """Form sigma-hat = psi * bhat, the residual nu, the transform of the
    phase correction delta, and the checked bounds.

    delta-hat is cut to its floor support: values below the floor p-hat
    has (CLEAN_REL times the largest) are zeroed.  The report's
    delta_tail is the mass cut, (dxi/2pi) sum |delta-hat_cut|, which
    bounds the change in delta at every x.

    When bhat is 1 at every node (`make_unit_bump`), sigma-hat is psi and
    nu is zero by construction: the report marks nu as not measured
    (nu_floor_limited) and keeps nu_bound.  The grid then ends inside the
    cutoff's support, and band_tail is the mass beyond xi_max of the
    sigma-hat decay bound that the report checks,
    (1/2pi) int_{|xi| > xi_max} (1 + 2 Gamma/lambda) Gamma e^{-mu |xi|};
    it is 0 on a grid that holds the whole support."""
    lam = bump.lam
    psi = state.psi
    grid = psi.grid
    b = bump.b_hat.values.real
    sigma_vals = psi.values * b
    sigma_vals[b == 0.0] = 0.0
    sigma_hat = SpectralSample(grid, sigma_vals)
    # sigma - psi is Hermitian by construction but its round-off asymmetry
    # scales with |psi|, which can dwarf the difference itself
    nu = inverse(symmetrize(SpectralSample(grid, sigma_vals - psi.values)))
    delta_vals = invert_helmholtz(sigma_hat, lam).values
    cut = below_floor(delta_vals)
    delta_tail = grid.dxi / (2.0 * np.pi) \
        * float(np.sum(np.abs(delta_vals[cut])))
    delta_vals[cut] = 0.0
    delta_hat = SpectralSample(grid, delta_vals)

    hyp = check_hypotheses(prob)
    gamma, mu = prob.gamma_fit, prob.mu_fit
    xi = grid.xi
    abs_sigma = np.abs(sigma_vals)
    floor = BOUND_FLOOR_REL * max(float(np.max(abs_sigma)),
                                  float(np.max(np.abs(prob.p_hat.values))),
                                  1e-300)

    outside = np.abs(xi) >= _SQRT2 * lam
    sigma_support_ok = bool(np.all(abs_sigma[outside] == 0.0))

    inside = ~outside
    bound = (1.0 + 2.0 * gamma / lam) * decay_bound(xi[inside], gamma, mu)
    measurable = bound >= floor
    decay_ok = bool(np.all(
        (abs_sigma[inside] <= SIGMA_SLACK * bound)
        | (abs_sigma[inside] <= floor)
    ))
    floor_limited = not bool(np.all(measurable))

    nu_inf = linf_norm(nu)
    if prob.degenerate:
        nu_bound = 0.0
    else:
        nu_bound = (gamma / (2.0 * mu)) * (1.0 + 4.0 * gamma / lam) \
            * np.exp(-mu * lam)
    nu_floor = BOUND_FLOOR_REL * max(float(np.max(np.abs(psi.values))), 1e-300)
    nu_floor_limited = nu_bound < nu_floor or bool(np.all(b == 1.0))
    nu_ok = bool(nu_inf <= NU_SLACK * nu_bound or nu_inf <= nu_floor)
    if grid.xi_max < _SQRT2 * lam and not prob.degenerate:
        band_tail = (1.0 + 2.0 * gamma / lam) * gamma / (np.pi * mu) \
            * np.exp(-mu * grid.xi_max)
    else:
        band_tail = 0.0

    report = BoundsReport(
        lam=lam, gamma=gamma, mu=mu, w_l1=hyp.w_l1,
        lambda_hypothesis_ok=hyp.lambda_ok,
        w_l1_hypothesis_ok=hyp.w_l1_ok,
        certified=hyp.certified,
        iterations=state.iteration,
        final_delta=state.l1_deltas[-1] if state.l1_deltas else 0.0,
        sigma_support_ok=sigma_support_ok,
        sigma_decay_ok=decay_ok,
        sigma_decay_floor_limited=floor_limited,
        nu_inf=nu_inf,
        nu_bound=float(nu_bound),
        nu_bound_ok=nu_ok,
        nu_floor_limited=bool(nu_floor_limited),
        delta_tail=delta_tail,
        band_tail=float(band_tail),
    )
    return SolveResult(psi=psi, sigma_hat=sigma_hat, nu=nu,
                       delta_hat=delta_hat, bounds_report=report)


def solve_problem(prob, tol=1e-14, max_iter=100):
    """Convenience wrapper: bump, iteration, extraction.

    On a grid with xi_max <= lambda (the regime `build_problem` picks
    once lambda passes p-hat's base band) the cutoff is 1 at every node,
    and the bump is `make_unit_bump`'s; otherwise it is `make_bump`'s."""
    if prob.grid.xi_max <= prob.lam:
        bump = make_unit_bump(prob.grid, prob.lam)
    else:
        bump = make_bump(prob.grid, prob.lam)
    state = fixed_point_solve(prob.p_hat, prob.lam, tol=tol,
                              max_iter=max_iter, bump=bump)
    return extract_solution(state, bump, prob), state
