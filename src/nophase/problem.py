"""Problem setup: coefficient q, its smooth extension to the real line,
the coordinate change x(t) = int_a^t sqrt(q), the Schwarzian-derived
forcing p, and the fitted decay certificate (Gamma, mu) for p-hat.
"""

import json
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chebseries import PiecewiseCheb
from .errors import ConfigurationError, DomainError, FitError, NumericalError
from .expr import compile_expression
from .grid import RealSample, SpectralGrid, SpectralSample, forward, l1_norm
from .mollifier import smooth_step, smooth_step_deriv, smooth_step_deriv2

P_EDGE_REL = 1e-14      # required smallness of p at the grid boundary
MAP_TOL = 1e-13         # coefficient-tail tolerance of the coordinate map
NEWTON_STEPS = 50       # cap on Newton steps when inverting the map
FIT_THRESHOLD = 1e-12   # relative cutoff for decay-fit nodes
CLEAN_REL = 3e-15       # relative floor that zeroes p-hat and delta-hat
BASE_N = 1024           # points of the first grid p is sampled on

# 8th-order centered finite-difference weights
_FD1 = np.array([4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0])
_FD2 = np.array([8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0])
_FD2_CENTER = -205.0 / 72.0


def _fd_derivatives(q, h):
    def dq(t):
        t = np.asarray(t, dtype=float)
        acc = np.zeros_like(t)
        for k in range(1, 5):
            acc += _FD1[k - 1] * (q(t + k * h) - q(t - k * h))
        return acc / h

    def d2q(t):
        t = np.asarray(t, dtype=float)
        acc = _FD2_CENTER * q(t)
        for k in range(1, 5):
            acc += _FD2[k - 1] * (q(t + k * h) + q(t - k * h))
        return acc / (h * h)

    return dq, d2q


@dataclass(frozen=True)
class Coefficient:
    """The coefficient q on [a, b] with its first two derivatives.

    q must be evaluable on [a - 3w, b + 3w] where w is the extension
    width; the smooth blend to constants lives there.
    """

    q: object
    dq: object
    d2q: object
    interval_a: float
    interval_b: float
    extension_width: float

    @classmethod
    def make(cls, q, a, b, dq=None, d2q=None, extension_width=None):
        if not (a < b):
            raise DomainError("interval must satisfy a < b")
        w = extension_width if extension_width is not None else 0.5 * (b - a)
        if dq is None or d2q is None:
            fd_dq, fd_d2q = _fd_derivatives(q, 1e-3 * (b - a))
            dq = dq if dq is not None else fd_dq
            d2q = d2q if d2q is not None else fd_d2q
        return cls(q=q, dq=dq, d2q=d2q, interval_a=a, interval_b=b,
                   extension_width=w)

    @cached_property
    def prepared(self):
        """The lambda-independent setup of every solve for this
        coefficient (`prepare`), built on first use and kept as long as
        the coefficient is."""
        return prepare(self)


class ExtendedCoefficient:
    """q blended to the constants q(a), q(b) outside [a, b].

    The blend runs over [a-3w, a-w] on the left and [b+w, b+3w] on the
    right using the C-infinity smooth step, so the extension is constant
    outside [a-3w, b+3w] and agrees with q on [a-w, b+w].
    """

    def __init__(self, coeff: Coefficient):
        self.base = coeff
        a, b, w = coeff.interval_a, coeff.interval_b, coeff.extension_width
        self.lo = a - 3.0 * w
        self.hi = b + 3.0 * w
        self.w = w
        self.qa = float(np.asarray(coeff.q(np.array(a))))
        self.qb = float(np.asarray(coeff.q(np.array(b))))
        self._ul_center = a - 2.0 * w    # left step argument ((center-t)/w)
        self._ur_center = b + 2.0 * w    # right step argument ((t-center)/w)

    def _steps(self, t):
        ul = (self._ul_center - t) / self.w
        ur = (t - self._ur_center) / self.w
        return ul, ur

    def _blend(self, t):
        """The base q at t clipped into [lo, hi], and the left and right
        smooth steps at t."""
        ul, ur = self._steps(t)
        return (self.base.q(np.clip(t, self.lo, self.hi)),
                smooth_step(ul), smooth_step(ur))

    def q(self, t):
        qv, sl, sr = self._blend(np.asarray(t, dtype=float))
        return qv + (self.qa - qv) * sl + (self.qb - qv) * sr

    def jet(self, t):
        """q, q' and q'' at the points t, from one evaluation of each
        smooth step and of the base q, q', q''; a scalar t is taken as a
        single point."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        qv, sl, sr = self._blend(t)
        q = qv + (self.qa - qv) * sl + (self.qb - qv) * sr
        dq = np.zeros_like(t)
        d2q = np.zeros_like(t)
        inside = (t > self.lo) & (t < self.hi)
        if np.any(inside):
            ti, qv, sl, sr = t[inside], qv[inside], sl[inside], sr[inside]
            dqv = self.base.dq(ti)
            d2qv = self.base.d2q(ti)
            ul, ur = self._steps(ti)
            dsl = -smooth_step_deriv(ul) / self.w
            dsr = smooth_step_deriv(ur) / self.w
            d2sl = smooth_step_deriv2(ul) / self.w ** 2
            d2sr = smooth_step_deriv2(ur) / self.w ** 2
            dq[inside] = (dqv * (1.0 - sl - sr)
                          + (self.qa - qv) * dsl + (self.qb - qv) * dsr)
            d2q[inside] = (d2qv * (1.0 - sl - sr)
                           - 2.0 * dqv * (dsl + dsr)
                           + (self.qa - qv) * d2sl + (self.qb - qv) * d2sr)
        return q, dq, d2q

    def dq(self, t):
        return self.jet(t)[1]

    def d2q(self, t):
        return self.jet(t)[2]

    def sqrt_q(self, t):
        qv = self.q(t)
        if np.any(qv <= 0.0):
            raise DomainError("coefficient is not strictly positive")
        return np.sqrt(qv)


@dataclass(frozen=True)
class CoordinateMap:
    """The monotone change of variables x(t) = int_a^t sqrt(q) and its
    inverse, built on the extended coefficient.

    Both directions are piecewise Chebyshev series on [t_lo, t_hi] and
    [x_lo, x_hi] = [x(t_lo), x(t_hi)]; beyond those ends q is constant
    and both are continued linearly."""

    ext: ExtendedCoefficient
    x_series: PiecewiseCheb
    t_series: PiecewiseCheb
    x_b: float

    @property
    def t_lo(self):
        return float(self.x_series.edges[0])

    @property
    def t_hi(self):
        return float(self.x_series.edges[-1])

    @property
    def x_lo(self):
        return float(self.t_series.edges[0])

    @property
    def x_hi(self):
        return float(self.t_series.edges[-1])

    def x_of_t(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = self.t_lo, self.t_hi
        return (self.x_series(np.clip(t, lo, hi))
                + np.sqrt(self.ext.qa) * np.minimum(t - lo, 0.0)
                + np.sqrt(self.ext.qb) * np.maximum(t - hi, 0.0))

    def t_of_x(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.x_lo, self.x_hi
        return (self.t_series(np.clip(x, lo, hi))
                + np.minimum(x - lo, 0.0) / np.sqrt(self.ext.qa)
                + np.maximum(x - hi, 0.0) / np.sqrt(self.ext.qb))


def build_map(coeff):
    """Build the coordinate map on the extended coefficient.

    x(t) is the antiderivative, anchored at x(a) = 0, of a piecewise
    Chebyshev fit of sqrt(q) that starts from the blend breaks
    a-3w, a-w, b+w, b+3w and bisects pieces until each is resolved to
    MAP_TOL.  t(x) is fitted the same way, starting from the x-images of
    the pieces of x(t) so that it inherits their resolution of any kinks
    in q, from values found by Newton's method at its Lobatto nodes."""
    ext = coeff if isinstance(coeff, ExtendedCoefficient) else ExtendedCoefficient(coeff)
    a, b, w = ext.base.interval_a, ext.base.interval_b, ext.w
    breaks = np.array([ext.lo, a - w, b + w, ext.hi])
    speed = PiecewiseCheb.adaptive_fit(ext.sqrt_q, breaks, tol=MAP_TOL)
    x_series = speed.antideriv(anchor=a, value=0.0)
    x_at = x_series(x_series.edges)

    def invert(x):
        t = np.interp(x, x_at, x_series.edges)
        for _ in range(NEWTON_STEPS):
            step = (x_series(t) - x) / speed(t)
            t -= step
            if np.max(np.abs(step)) <= MAP_TOL * max(1.0, np.max(np.abs(t))):
                return t
        raise NumericalError("coordinate inversion did not converge")

    t_series = PiecewiseCheb.adaptive_fit(invert, x_at, tol=MAP_TOL)
    return CoordinateMap(ext=ext, x_series=x_series, t_series=t_series,
                         x_b=float(x_series(b)))


def _forcing(ext, cmap, x):
    """p = (1/q)(5/4 (q'/q)^2 - q''/q) evaluated at t(x)."""
    qv, dqv, d2qv = ext.jet(cmap.t_of_x(x))
    if np.any(qv <= 0.0):
        raise DomainError("coefficient is not strictly positive on the grid")
    ratio = dqv / qv
    return (1.25 * ratio * ratio - d2qv / qv) / qv


def _require_vanishing_edges(p, cmap):
    """p at the first and last grid nodes must be below P_EDGE_REL times
    its largest value, or the periodic grid cuts its support."""
    pmax = float(np.max(np.abs(p)))
    if pmax > 0.0:
        edge = max(abs(p[0]), abs(p[-1]))
        if edge > P_EDGE_REL * pmax:
            suggested = 1.3 * max(abs(cmap.x_lo), abs(cmap.x_hi)) + 1.0
            raise ConfigurationError(
                f"grid half-width too small: p does not vanish at the "
                f"boundary; use L >= {suggested:.2f}"
            )


def schwarzian_p(coeff, cmap, grid, x_shift=0.0):
    """The forcing p as a function of x at the grid's space nodes:
    p(x_j) = (1/q)(5/4 (q'/q)^2 - q''/q) evaluated at t(x_j + x_shift)."""
    ext = coeff if isinstance(coeff, ExtendedCoefficient) else cmap.ext
    p = _forcing(ext, cmap, grid.x + x_shift)
    _require_vanishing_edges(p, cmap)
    return RealSample(grid, p)


def below_floor(vals):
    """Mask of the values below CLEAN_REL times the largest; no value is
    below the floor of an all-zero array."""
    absv = np.abs(vals)
    return absv < CLEAN_REL * np.max(absv)


def default_half_width(cmap):
    """The grid half-width L that covers the support of p with margin."""
    span = 0.5 * (cmap.x_hi - cmap.x_lo)
    return 1.3 * span + 1.0


@dataclass(frozen=True, eq=False)
class PreparedCoefficient:
    """The lambda-independent part of every solve for one coefficient:
    the extension, the coordinate map, the default grid half-width, the
    shift that centers the grid on the support of p, and p on the nested
    grids of `forcing_transform`, kept per (L, n) and extended on
    demand."""

    extended: ExtendedCoefficient
    map: CoordinateMap
    half_width: float
    x_shift: float
    levels: dict = field(default_factory=dict)

    def level(self, L, n):
        """p and its transform, floored at CLEAN_REL, on SpectralGrid(L, n).
        When the level with n/2 points exists, p is evaluated only at the
        new midpoints."""
        if (L, n) not in self.levels:
            grid = SpectralGrid(L, n)
            coarse = self.levels.get((L, n // 2))
            if coarse is None:
                p = schwarzian_p(self.extended, self.map, grid,
                                 self.x_shift).values
            else:
                # the finer grid's own odd nodes, not the coarse nodes +
                # dx/2, so that every node rounds as on the full grid
                mid = _forcing(self.extended, self.map,
                               grid.x[1::2] + self.x_shift)
                p = np.stack((coarse[0], mid), axis=1).ravel()
            p_hat = forward(RealSample(grid, p)).values
            p_hat[below_floor(p_hat)] = 0.0
            p.flags.writeable = p_hat.flags.writeable = False
            self.levels[(L, n)] = (p, p_hat)
        return self.levels[(L, n)]


def prepare(coefficient):
    """Build the lambda-independent setup of a coefficient; p is sampled
    later, level by level, as solves ask for it."""
    ext = ExtendedCoefficient(coefficient)
    cmap = build_map(ext)
    return PreparedCoefficient(extended=ext, map=cmap,
                               half_width=default_half_width(cmap),
                               x_shift=0.5 * (cmap.x_lo + cmap.x_hi))


def forcing_transform(prep, grid):
    """p-hat on the coarsest grid over the grid's [-L, L) that resolves it.

    Starting from BASE_N points (or the grid's N, if smaller), the point
    count doubles until p-hat, floored at CLEAN_REL, vanishes on the outer
    half of its frequency range, or until it reaches the grid's own N.
    The grids are nested (`PreparedCoefficient.level`), so p is evaluated
    at no more than N points, and only once per coefficient.  Returns that
    level's grid and its floored p-hat values."""
    L, n = grid.half_width, min(BASE_N, grid.n_points)
    while True:
        p, p_hat = prep.level(L, n)
        outer = np.abs(np.arange(n) - n // 2) >= n // 4
        if n == grid.n_points or not np.any(p_hat[outer]):
            break
        n *= 2
    _require_vanishing_edges(p, prep.map)  # at the final level's end nodes
    return SpectralGrid(L, n), p_hat


def fit_decay(p_hat):
    """Fit |p_hat(xi)| <= Gamma exp(-mu |xi|) by least squares on
    (|xi|, log |p_hat|) over nodes above the relative threshold, then
    inflate Gamma minimally so the bound holds at every nonzero node.

    Returns (gamma, mu); the degenerate p_hat == 0 case returns
    (0.0, inf)."""
    absv = np.abs(p_hat.values)
    vmax = float(np.max(absv))
    if vmax == 0.0:
        return 0.0, np.inf
    usable = absv > FIT_THRESHOLD * vmax
    if int(np.sum(usable)) < 8:
        raise FitError("fewer than 8 usable nodes for the decay fit")
    xi_abs = np.abs(p_hat.grid.xi[usable])
    logv = np.log(absv[usable])
    slope, _ = np.polyfit(xi_abs, logv, 1)
    mu = -float(slope)
    if mu <= 0.0:
        raise FitError("transform does not decay; cannot certify")
    nonzero = absv > 0.0
    gamma = float(np.max(absv[nonzero]
                         * np.exp(mu * np.abs(p_hat.grid.xi[nonzero]))))
    return gamma, mu


def decay_bound(xi, gamma, mu):
    """Gamma * exp(-mu |xi|), with the degenerate mu = inf handled as 0."""
    if not np.isfinite(mu):
        return np.zeros_like(np.asarray(xi, dtype=float))
    return gamma * np.exp(-mu * np.abs(xi))


@dataclass(frozen=True)
class HypothesisReport:
    """Measured quantities and flags for the solvability hypotheses."""

    lam: float
    gamma: float
    mu: float
    w_l1: float
    lambda_ok: bool       # lambda > 2 max(1/mu, gamma)
    w_l1_ok: bool         # ||w||_1 <= (pi/2) lambda^2
    degenerate: bool

    @property
    def certified(self):
        return self.lambda_ok and self.w_l1_ok


@dataclass(frozen=True)
class CoefficientProblem:
    """Everything the solver needs for one (q, lambda) instance."""

    coefficient: Coefficient
    extended: ExtendedCoefficient
    lam: float
    map: CoordinateMap
    grid: SpectralGrid
    p_hat: SpectralSample
    gamma_fit: float
    mu_fit: float
    # the grid is centered on the support of p, so grid coordinates are
    # x - x_shift; x(a) = 0 stays the map's anchor
    x_shift: float = 0.0

    @property
    def degenerate(self):
        return self.gamma_fit == 0.0


def check_hypotheses(prob):
    """Evaluate both solvability conditions.  The solver refuses to
    certify bounds when either flag is false but may still iterate."""
    w_l1 = l1_norm(prob.p_hat)
    if prob.degenerate:
        lambda_ok = prob.lam > 0.0
    else:
        lambda_ok = prob.lam > 2.0 * max(1.0 / prob.mu_fit, prob.gamma_fit)
    w_l1_ok = w_l1 <= 0.5 * np.pi * prob.lam ** 2
    return HypothesisReport(lam=prob.lam, gamma=prob.gamma_fit,
                            mu=prob.mu_fit, w_l1=w_l1,
                            lambda_ok=bool(lambda_ok),
                            w_l1_ok=bool(w_l1_ok),
                            degenerate=prob.degenerate)


def _next_pow2(n):
    return 1 << max(4, int(np.ceil(np.log2(max(n, 1)))))


def choose_grid(cmap, lam, L=None, N=None):
    """Grid geometry: L covers the support of p with margin; N keeps
    xi_max comfortably above 2 sqrt(2) lambda so quadratic terms of the
    iteration stay resolved."""
    if L is None:
        L = default_half_width(cmap)
    if N is None:
        need = 2.0 * L * 2.0 * np.sqrt(2.0) * 1.15 * lam / np.pi
        N = _next_pow2(int(np.ceil(max(need, 1024))))
    grid = SpectralGrid(half_width=float(L), n_points=int(N))
    if grid.xi_max < 2.0 * np.sqrt(2.0) * lam:
        raise ConfigurationError(
            "grid frequency range too small: xi_max must be at least "
            "2*sqrt(2)*lambda"
        )
    return grid


def build_problem(coefficient, lam, L=None, N=None):
    """Assemble a CoefficientProblem: grid, forcing transform and decay
    fit, on the coefficient's prepared lambda-independent setup
    (`Coefficient.prepared`: extension, map, and p on nested grids).

    The grid is `choose_grid`'s, with xi_max above 2 sqrt(2) lambda,
    except in one regime: when N is not given, p-hat's base level is
    resolved, and lambda >= that level's xi_max, the problem lives on the
    base level itself.  The cutoff is then 1 at every node, and
    `solve_problem` solves with `make_unit_bump`.  Values of p_hat below
    the round-off floor are zeroed so the decay certificate is meaningful
    at every node."""
    if lam <= 0:
        raise DomainError("lambda must be positive")
    prep = coefficient.prepared
    grid = choose_grid(prep.map, lam,
                       L=prep.half_width if L is None else L, N=N)
    level, level_hat = forcing_transform(prep, grid)
    # a level that stopped at N without resolving p-hat is choose_grid's
    # own grid, whose xi_max exceeds 2 sqrt(2) lambda, so it never passes
    if N is None and lam >= level.xi_max:
        grid = level
    vals = np.zeros(grid.n_points, dtype=complex)
    start = (grid.n_points - level.n_points) // 2
    vals[start:start + level.n_points] = level_hat
    p_hat = SpectralSample(grid, vals)
    gamma, mu = fit_decay(p_hat)
    prob = CoefficientProblem(coefficient=coefficient,
                              extended=prep.extended, lam=float(lam),
                              map=prep.map, grid=grid, p_hat=p_hat,
                              gamma_fit=gamma, mu_fit=mu,
                              x_shift=prep.x_shift)
    hyp = check_hypotheses(prob)
    if not hyp.certified:
        warnings.warn(
            "solvability hypotheses not satisfied; the solve may still "
            "converge but its bounds are uncertified",
            stacklevel=2,
        )
    return prob


@dataclass(frozen=True)
class ProblemConfig:
    """Parsed contents of a problem definition JSON file."""

    coefficient: Coefficient
    lam: float = None
    grid_L: float = None
    grid_N: int = None


def load_problem_file(path):
    """Read a problem definition:

    { "q": <expression or [[t, q], ...] table>, "a": .., "b": ..,
      "lambda": .., "dq": .., "d2q": .., "grid": {"L": .., "N": ..},
      "extension_width": .. }
    """
    with open(path) as handle:
        data = json.load(handle)
    return problem_config_from_dict(data)


def problem_config_from_dict(data):
    for key in ("q", "a", "b"):
        if key not in data:
            raise DomainError(f"problem definition is missing {key!r}")
    a, b = float(data["a"]), float(data["b"])
    qdef = data["q"]
    dq = d2q = None
    if isinstance(qdef, str):
        q = compile_expression(qdef)
        if "dq" in data:
            dq = compile_expression(data["dq"])
        if "d2q" in data:
            d2q = compile_expression(data["d2q"])
    elif isinstance(qdef, list):
        from scipy.interpolate import CubicSpline

        table = np.asarray(qdef, dtype=float)
        if table.ndim != 2 or table.shape[1] != 2:
            raise DomainError("table coefficient must be a list of [t, q] pairs")
        spline = CubicSpline(table[:, 0], table[:, 1])
        q = spline
        dq = spline.derivative(1)
        d2q = spline.derivative(2)
    else:
        raise DomainError("q must be an expression string or a sample table")
    coeff = Coefficient.make(q, a, b, dq=dq, d2q=d2q,
                             extension_width=data.get("extension_width"))
    gridspec = data.get("grid", {})
    return ProblemConfig(
        coefficient=coeff,
        lam=float(data["lambda"]) if "lambda" in data else None,
        grid_L=float(gridspec["L"]) if "L" in gridspec else None,
        grid_N=int(gridspec["N"]) if "N" in gridspec else None,
    )
