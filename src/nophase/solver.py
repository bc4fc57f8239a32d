"""Band-limited fixed-point solver in the frequency domain.

The iteration solves psi = R[psi] with

    R[f] = (1/8pi) Wt[f]*Wt[f] - 4 lambda^2 exp2[Wb[f]] + w,

where Wb multiplies by bhat(xi)/(4 lambda^2 - xi^2), Wt by
-i xi bhat(xi)/(4 lambda^2 - xi^2), w is the transform of the forcing p,
and bhat is a C-infinity cutoff equal to 1 on [-lambda, lambda] and
supported inside (-sqrt(2) lambda, sqrt(2) lambda).  The fixed point is
the transform of the band-limited solution density; multiplying it by
bhat gives sigma-hat, and by Wb's multiplier the phase correction.
lambda enters R only through bhat and its multipliers: `make_bump` takes
and checks it, and the fixed point and extraction read it from the bump.

The iteration stops on its L1 increment, or on Banach's a-posteriori
bound at the measured contraction, within TOL ||w||_1 (`fixed_point_solve`);
the rate falls fast with lambda, so the bound saves the last, round-off step.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .convexp import exp2
from .errors import ConfigurationError, ConvergenceError, DomainError
from .grid import (RealSample, SpectralSample, forward_half, inverse_half,
                   l1_norm, linf_norm, mirror)
from .mollifier import smooth_step
from .problem import (_finite, below_floor, check_lambda_square,
                      decay_bound, floored, resolved)

# absolute floor, relative to the largest magnitude in play, below which
# a theoretical bound is unmeasurable in double precision
BOUND_FLOOR_REL = 1e-14
SIGMA_SLACK = 1.01
NU_SLACK = 1.05
MAX_ITER = 100  # fixed-point iterations before ConvergenceError
# L1 increment, or its contraction estimate rho delta / (1 - rho),
# relative to ||w||_1, that stops the iteration
TOL = 1e-14

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Bump:
    """The frequency cutoff bhat, the band multiplier
    bhat/(4 lambda^2 - xi^2), exactly zero off the cutoff support so the
    vanishing denominator at |xi| = 2 lambda is never touched, and its odd
    partner -i xi bhat/(4 lambda^2 - xi^2), zero at the self-paired node
    xi_max, whose imaginary part the inverse real FFT drops: each on the
    nonnegative half, where the solver runs; all three are even or odd in
    xi, so the half holds them whole."""

    grid: object
    lam: float
    half_xi: np.ndarray  # the half's nodes m dxi, m = 0 .. N/2
    half_b: np.ndarray
    half_multiplier: np.ndarray
    half_odd_multiplier: np.ndarray


def make_bump(grid, lam):
    """Evaluate the cutoff at the nonnegative half's nodes: it falls from
    1 to 0 as xi crosses [c - alpha, c + alpha], c = (sqrt(2)+1) lambda/2
    and alpha = (sqrt(2)-1) lambda/4, and it is even.  On a grid with
    xi_max <= lambda it is 1 at every node, and the band multiplier is
    1/(4 lambda^2 - xi^2).

    This is where the lambda stage takes lambda: one that is not finite
    and positive, or whose 4 lambda^2 or 1/(4 lambda^2) overflows, is a
    DomainError naming it."""
    if _finite(lam, "lambda") <= 0.0:
        raise DomainError(f"lambda={lam:g} must be positive")
    check_lambda_square(lam)
    c = 0.5 * (_SQRT2 * lam + lam)
    alpha = 0.25 * (_SQRT2 * lam - lam)
    xi = np.arange(grid.n_points // 2 + 1) * grid.dxi
    vals = 1.0 - smooth_step((xi - c) / alpha)
    on = vals > 0.0
    multiplier = np.zeros_like(vals)
    multiplier[on] = vals[on] * (1.0 / (4.0 * lam ** 2 - xi[on] ** 2))
    odd_multiplier = -1j * xi * multiplier
    odd_multiplier[-1] = 0.0
    return Bump(grid=grid, lam=float(lam), half_xi=xi, half_b=vals,
                half_multiplier=multiplier,
                half_odd_multiplier=odd_multiplier)


def _require_bump_grid(f, bump):
    if f.grid != bump.grid:
        raise ConfigurationError("sample and bump live on different grids")


def apply_Wb(f, bump):
    """Multiply by bhat(xi)/(4 lambda^2 - xi^2), on the half."""
    _require_bump_grid(f, bump)
    return SpectralSample.of_half(f.grid, f.half * bump.half_multiplier)


def apply_Wb_tilde(f, bump):
    """Multiply by -i xi bhat(xi)/(4 lambda^2 - xi^2), and by zero at the
    self-paired node -xi_max (the bump's odd multiplier), on the half."""
    _require_bump_grid(f, bump)
    return SpectralSample.of_half(f.grid, f.half * bump.half_odd_multiplier)


def _half_step(psi_half, bump):
    """The map without w on psi's nonnegative half, in three real FFTs:
    with f_b, f_t the space sides of Wb psi, Wt psi, one transform of
    f_t^2/4 - 4 lambda^2 (exp(f_b) - f_b - 1) gives (1/8pi)(Wt * Wt)
    (`convolve` carries 1/2pi) and -4 lambda^2 exp2[Wb]."""
    grid = bump.grid
    f_b, f_t = (RealSample(grid, inverse_half(grid, psi_half * m))
                for m in (bump.half_multiplier, bump.half_odd_multiplier))
    space = 0.25 * f_t.values ** 2 - 4.0 * bump.lam ** 2 * exp2(f_b)
    return forward_half(grid, RealSample(grid, space).values)


def apply_R(psi, w_hat, bump):
    """One application of the fixed-point map: the half step on psi's
    half, plus w's."""
    _require_bump_grid(psi, bump)
    return SpectralSample.of_half(
        psi.grid, _half_step(psi.half, bump) + w_hat.half)


@dataclass
class SolverState:
    """The converged iterate, its L1 increments and the bump it ran on."""

    psi: SpectralSample
    iteration: int
    l1_deltas: list
    bump: Bump


def fixed_point_solve(w_hat, bump):
    """Iterate psi_{n+1} = R[psi_n] from psi_0 = w, at the bump's lambda
    and on its grid, for at most MAX_ITER steps, until the L1 increment
    delta_n is at most TOL ||w||_1, or, with rho = delta_n / delta_{n-1}
    below 1 from the second step on, until Banach's bound
    rho delta_n / (1 - rho) on the distance left to the fixed point is.
    An increment that does not shrink (rho >= 1) gives no bound.

    A w on another grid than the bump's is a ConfigurationError before
    any arithmetic, and a first Wb w / dx (what `inverse` forms) that
    overflows is a DomainError naming lambda.  Outside the ball
    ||w||_1 <= (pi/2) lambda^2, where convergence is guaranteed, the
    iteration proceeds with a warning.  On a grid with
    xi_max < 2 sqrt(2) lambda the quadratic term Wt*Wt is not resolved a
    priori, so the converged psi must be, by the rule p-hat's level meets
    (`resolved`), or ConfigurationError is raised."""
    _require_bump_grid(w_hat, bump)
    grid, lam = bump.grid, bump.lam
    with np.errstate(over="ignore"):  # named below, not warned about
        first = np.max(np.abs(w_hat.half) * bump.half_multiplier) / grid.dx
    if np.isinf(first):
        raise DomainError(f"lambda={lam:g} is too small: the band multiplier "
                          f"times w overflows double precision")
    w_l1 = l1_norm(w_hat)
    if w_l1 > 0.5 * np.pi * lam ** 2:
        warnings.warn("||w||_1 exceeds (pi/2) lambda^2: convergence is "
                      "not certified", stacklevel=2)
    threshold = TOL * max(w_l1, 1e-300)
    psi, deltas = w_hat, []
    for iteration in range(1, MAX_ITER + 1):
        nxt = apply_R(psi, w_hat, bump)
        delta = l1_norm(SpectralSample.of_half(grid, nxt.half - psi.half))
        deltas.append(delta)
        psi = nxt
        # Banach's a-posteriori bound at the measured contraction rho
        rho = delta / deltas[-2] if iteration > 1 else 1.0
        if delta <= threshold or (
                rho < 1.0 and rho * delta / (1.0 - rho) <= threshold):
            if grid.xi_max < 2.0 * _SQRT2 * lam and not resolved(psi.half):
                raise ConfigurationError(
                    "grid frequency range too small: the solution does not "
                    "vanish on the outer half of the grid; give grid N"
                )
            return SolverState(psi=psi, iteration=iteration, l1_deltas=deltas,
                               bump=bump)
    raise ConvergenceError(
        f"fixed-point iteration did not reach tol={TOL} in {MAX_ITER} steps",
        history=deltas,
    )


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


@dataclass
class SolveResult:
    """Output of one band-limited solve."""

    psi: SpectralSample          # transform of the band-limited density
    sigma_hat: SpectralSample    # psi * bhat, compactly supported
    nu: RealSample               # sigma - sigma_b, the residual forcing
    delta_hat: SpectralSample    # Helmholtz-inverted phase correction
    bounds_report: BoundsReport


def extract_solution(state, prob):
    """Form sigma-hat = psi * bhat, the residual nu, the transform of the
    phase correction delta-hat = Wb psi, and the checked bounds, each on
    the nonnegative half, with the bump the state was solved with.

    delta-hat is cut to its floor support: values below the floor p-hat
    has (CLEAN_REL times the largest) are zeroed.  The report's
    delta_tail is the mass cut, (dxi/2pi) sum |delta-hat_cut|, which
    bounds the change in delta at every x.

    On a grid with xi_max < sqrt(2) lambda, which ends inside the
    cutoff's support, band_tail is the mass beyond xi_max of the
    sigma-hat decay bound that the report checks,
    (1/2pi) int_{|xi| > xi_max} (1 + 2 Gamma/lambda) Gamma e^{-mu |xi|};
    it is 0 otherwise.  Once xi_max <= lambda, bhat is 1 at every node,
    sigma-hat is psi and nu is zero by construction, so nu is not
    transformed: the report marks it as not measured (nu_floor_limited)
    and keeps nu_bound."""
    psi, bump = state.psi, state.bump
    lam = bump.lam
    grid = psi.grid
    psi_half, b = psi.half, bump.half_b
    sigma_half = psi_half * b
    unit = bool(np.all(b == 1.0))
    nu = RealSample(grid, np.zeros(grid.n_points) if unit
                    else inverse_half(grid, sigma_half - psi_half))
    delta_half = psi_half * bump.half_multiplier
    # moduli are even in xi: sums take the mirror, in the centered order
    spread = mirror(grid, np.abs(delta_half))
    delta_tail = grid.dxi / (2.0 * np.pi) * float(np.sum(
        spread[below_floor(spread)]))
    floored(delta_half)

    hyp = prob.hypotheses
    gamma, mu = prob.gamma_fit, prob.mu_fit
    xi = bump.half_xi
    abs_sigma = np.abs(sigma_half)
    floor = BOUND_FLOOR_REL * max(float(np.max(abs_sigma)),
                                  float(np.max(np.abs(prob.p_hat.half))),
                                  1e-300)

    outside = xi >= _SQRT2 * lam
    sigma_support_ok = bool(np.all(abs_sigma[outside] == 0.0))

    inside = ~outside
    bound = (1.0 + 2.0 * gamma / lam) * decay_bound(xi[inside], gamma, mu)
    decay_ok = bool(np.all((abs_sigma[inside] <= SIGMA_SLACK * bound)
                           | (abs_sigma[inside] <= floor)))
    floor_limited = not bool(np.all(bound >= floor))

    nu_inf = linf_norm(nu)
    nu_bound = (gamma / (2.0 * mu)) * (1.0 + 4.0 * gamma / lam) \
        * np.exp(-mu * lam)
    nu_floor = BOUND_FLOOR_REL * max(float(np.max(np.abs(psi_half))), 1e-300)
    nu_floor_limited = nu_bound < nu_floor or unit
    nu_ok = bool(nu_inf <= NU_SLACK * nu_bound or nu_inf <= nu_floor)
    band_tail = (1.0 + 2.0 * gamma / lam) * gamma / (np.pi * mu) \
        * np.exp(-mu * grid.xi_max) if grid.xi_max < _SQRT2 * lam else 0.0

    report = BoundsReport(
        lam=lam, gamma=gamma, mu=mu, w_l1=hyp.w_l1,
        lambda_hypothesis_ok=hyp.lambda_ok,
        w_l1_hypothesis_ok=hyp.w_l1_ok,
        certified=hyp.certified,
        iterations=state.iteration,
        final_delta=state.l1_deltas[-1],
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
    return SolveResult(psi=psi,
                       sigma_hat=SpectralSample.of_half(grid, sigma_half),
                       nu=nu,
                       delta_hat=SpectralSample.of_half(grid, delta_half),
                       bounds_report=report)


def solve_problem(prob):
    """Convenience wrapper: bump, iteration to TOL, extraction on
    prob.grid."""
    bump = make_bump(prob.grid, prob.lam)
    state = fixed_point_solve(prob.p_hat, bump)
    return extract_solution(state, prob), state
