"""Problem setup: coefficient q, its smooth extension to the real line,
the coordinate change x(t) = int_a^t sqrt(q), the Schwarzian-derived
forcing p, and the fitted decay certificate (Gamma, mu) for p-hat.
"""

import json
import math
import numbers
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .chebseries import ChebSeries, call_together
from .errors import ConfigurationError, DomainError, FitError, NumericalError
from .expr import compile_expression
from .grid import (RealSample, SpectralGrid, SpectralSample, forward,
                   l1_norm)
from .mollifier import smooth_step, smooth_step_deriv, smooth_step_deriv2

P_EDGE_REL = 1e-14      # required smallness of p at the grid boundary
MAP_TOL = 1e-13         # coefficient-tail tolerance of the coordinate map
NEWTON_STEPS = 50       # cap on Newton steps when inverting the map
FIT_THRESHOLD = 1e-12   # relative cutoff for decay-fit nodes
CLEAN_REL = 3e-15       # relative floor that zeroes p-hat and delta-hat
BASE_N = 1024           # points of the first grid p is sampled on
FH_DEGREE = 3           # blending degree of a table q's interpolant
FH_BLOCK = 65536        # (points x knots) entries a table q evaluates at once

# 8th-order centered finite-difference weights
_FD1 = np.array([4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0])
_FD2 = np.array([8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0])
_FD2_CENTER = -205.0 / 72.0


def _finite(value, name):
    """value as a float; DomainError unless it is a finite real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise DomainError(f"{name} must be a finite number, not {value!r}")
    return float(value)


def _fd_derivatives(q, h, lo, hi):
    """8th-order centered differences of q with step h at t in [lo, hi],
    where q must be evaluable; the points t +- kh are clipped into it.
    Near the ends the clipped values are wrong, but the extension's
    weight on them is flat to every order there
    (`ExtendedCoefficient.jet`).  d2q is exactly 0 where the stencil's
    nine values of q are equal, as its weights cancel only in exact
    arithmetic; dq's are exact there, so a constant q gets exact zeros."""
    def at(t, k):
        return q(np.clip(t + k * h, lo, hi))

    def dq(t):
        t = np.asarray(t, dtype=float)
        acc = np.zeros_like(t)
        for k in range(1, 5):
            acc += _FD1[k - 1] * (at(t, k) - at(t, -k))
        return acc / h

    def d2q(t):
        t = np.asarray(t, dtype=float)
        center = q(t)
        acc, flat = _FD2_CENTER * center, True
        for k in range(1, 5):
            right, left = at(t, k), at(t, -k)
            acc += _FD2[k - 1] * (right + left)
            flat = flat & (right == center) & (left == center)
        return np.where(flat, 0.0, acc / (h * h))

    return dq, d2q


@dataclass(frozen=True)
class Coefficient:
    """The coefficient q on [a, b] with its first two derivatives.

    q must be evaluable on [a - 3w, b + 3w] where w is the extension
    width; the smooth blend to constants lives there.  `make` fills in a
    derivative that is not given with 8th-order finite differences of q,
    whatever q is: a callable, an expression, or a table's interpolant.
    They are exact zeros where q is constant (`_fd_derivatives`).
    """

    q: object
    dq: object
    d2q: object
    interval_a: float
    interval_b: float
    extension_width: float

    @classmethod
    def make(cls, q, a, b, dq=None, d2q=None, extension_width=None):
        a, b = _finite(a, "a"), _finite(b, "b")
        if not (a < b):
            raise DomainError("interval must satisfy a < b")
        if extension_width is None:
            w = 0.5 * (b - a)
        else:
            w = _finite(extension_width, "extension_width")
            if w <= 0.0:
                raise DomainError("extension_width must be positive")
        lo, hi = a - 3.0 * w, b + 3.0 * w
        if not (math.isfinite(w * w) and math.isfinite(lo)
                and math.isfinite(hi)):
            raise DomainError(
                f"extension_width {w:g} is too large for [a, b] = "
                f"[{a:g}, {b:g}]: its square and [a - 3w, b + 3w] = "
                f"[{lo:g}, {hi:g}] must be finite")
        if dq is None or d2q is None:
            fd_dq, fd_d2q = _fd_derivatives(q, 1e-3 * (b - a), lo, hi)
            dq = dq if dq is not None else fd_dq
            d2q = d2q if d2q is not None else fd_d2q
        return cls(q=q, dq=dq, d2q=d2q, interval_a=a, interval_b=b,
                   extension_width=w)

    @cached_property
    def map(self):
        """The lambda-independent setup of every solve for this
        coefficient (`build_map`), built on first use and kept as long as
        the coefficient is."""
        return build_map(self)


class ExtendedCoefficient:
    """q blended to the constants q(a), q(b) outside [a, b].

    The blend runs over [a-3w, a-w] on the left and [b+w, b+3w] on the
    right using the C-infinity smooth step, so the extension is constant
    outside [a-3w, b+3w] and agrees with q on [a-w, b+w].
    """

    def __init__(self, coeff: Coefficient):
        # a copy without the map, which keeps this: no reference cycle
        self.base = replace(coeff)
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
        smooth steps at t, from one smooth_step call."""
        sl, sr = smooth_step(np.stack(self._steps(t)))
        return self.base.q(np.clip(t, self.lo, self.hi)), sl, sr

    def q(self, t):
        qv, sl, sr = self._blend(np.asarray(t, dtype=float))
        return qv + (self.qa - qv) * sl + (self.qb - qv) * sr

    def jet(self, t):
        """q, q', q'' at the points t (a scalar is one point): one call of
        the base q, q', q'' each, and one of the steps and each derivative."""
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
            u = np.stack(self._steps(ti))
            dul, dsr = smooth_step_deriv(u) / self.w  # sl' is -dul
            d2sl, d2sr = smooth_step_deriv2(u) / self.w ** 2
            dq[inside] = (dqv * (1.0 - sl - sr)
                          - (self.qa - qv) * dul + (self.qb - qv) * dsr)
            d2q[inside] = (d2qv * (1.0 - sl - sr)
                           - 2.0 * dqv * (dsr - dul)
                           + (self.qa - qv) * d2sl + (self.qb - qv) * d2sr)
        return q, dq, d2q

    def require_positive(self, qv):
        """DomainError unless every value of q in qv is finite and
        positive; NaN fails too."""
        if not np.all(np.isfinite(qv) & (qv > 0.0)):
            raise DomainError(
                f"coefficient is not finite and strictly positive on "
                f"[a - 3w, b + 3w] = [{self.lo:g}, {self.hi:g}]")

    def sqrt_q(self, t):
        qv = self.q(t)
        self.require_positive(qv)
        return np.sqrt(qv)


@dataclass(frozen=True)
class CoordinateMap:
    """The monotone change of variables x(t) = int_a^t sqrt(q) and its
    inverse, built on the extended coefficient.

    Both directions are `ChebSeries` of bisected pieces, on [ext.lo,
    ext.hi] (the end edges of x_series) and [x_lo, x_hi] = [x(ext.lo),
    x(ext.hi)]; beyond those ends q is constant and both are continued
    linearly.

    The map also keeps p on the nested grids of `forcing_transform`, per
    (L, n) and extended on demand (`level`)."""

    ext: ExtendedCoefficient
    x_series: ChebSeries
    t_series: ChebSeries
    levels: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def x_lo(self):
        return self.t_series.a

    @property
    def x_hi(self):
        return self.t_series.b

    @property
    def x_shift(self):
        """The center of [x_lo, x_hi]: grid coordinates are x - x_shift,
        so the grid is centered on the support of p; x(a) = 0 stays the
        map's anchor."""
        return 0.5 * (self.x_lo + self.x_hi)

    @property
    def covering_half_width(self):
        """The default grid half-width L: a grid centered on x_shift
        covers [x_lo, x_hi], the support of p, with margin."""
        return 1.3 * (0.5 * (self.x_hi - self.x_lo)) + 1.0

    def x_of_t(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = self.ext.lo, self.ext.hi
        return (self.x_series(np.clip(t, lo, hi))
                + np.sqrt(self.ext.qa) * np.minimum(t - lo, 0.0)
                + np.sqrt(self.ext.qb) * np.maximum(t - hi, 0.0))

    def t_of_x(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.x_lo, self.x_hi
        return (self.t_series(np.clip(x, lo, hi))
                + np.minimum(x - lo, 0.0) / np.sqrt(self.ext.qa)
                + np.maximum(x - hi, 0.0) / np.sqrt(self.ext.qb))

    @cached_property
    def forcing_support(self):
        """(x0, x1): [x_lo, x_hi] padded until t(x0) <= ext.lo and
        t(x1) >= ext.hi.  t is nondecreasing past x_lo and x_hi, so outside
        (x0, x1) q' = q'' = 0 and p = 0 / q = +0.0, q checked positive."""
        pad = 2.0 ** -40 * (self.x_hi - self.x_lo)
        while True:
            x0, x1 = self.x_lo - pad, self.x_hi + pad
            t0, t1 = self.t_of_x(np.array([x0, x1]))
            if t0 <= self.ext.lo and t1 >= self.ext.hi:
                self.ext.require_positive(self.ext.q(np.array([t0, t1])))
                return x0, x1
            pad *= 2.0

    def level(self, L, n):
        """p on SpectralGrid(L, n), its transform floored at CLEAN_REL
        there, a sample on that grid shared by the problems on it, and
        whether that is `resolved`; with the n/2-point level, only the
        midpoints are new."""
        if (L, n) not in self.levels:
            grid = SpectralGrid(L, n)
            coarse = self.levels.get((L, n // 2))
            if coarse is None:
                p = schwarzian_p(self, grid).values
            else:
                # the finer grid's own odd nodes, not the coarse nodes +
                # dx/2, so that every node rounds as on the full grid
                mid = _forcing(self, grid.x[1::2] + self.x_shift)
                p = np.stack((coarse[0], mid), axis=1).ravel()
            half = floored(forward(RealSample(grid, p)).half)
            p.flags.writeable = half.flags.writeable = False
            p_hat = SpectralSample.of_half(grid, half)
            self.levels[(L, n)] = (p, p_hat, resolved(half))
        return self.levels[(L, n)]


def build_map(coeff):
    """Build the coordinate map on the coefficient's extension, which the
    map keeps as `ext`.

    x(t) is the antiderivative, anchored at x(a) = 0, of a fit of sqrt(q)
    by `ChebSeries.adaptive_pieces` that starts from the blend breaks
    a-3w, a-w, b+w, b+3w and bisects pieces until each is resolved to
    MAP_TOL.  t(x) is fitted the same way, starting from the x-images of
    the pieces of x(t) so that it inherits their resolution of any kinks
    in q, from values found by Newton's method at its Lobatto nodes; each
    Newton step sums x(t) and x'(t) in one pass (`call_together`)."""
    ext = ExtendedCoefficient(coeff)
    a, b, w = coeff.interval_a, coeff.interval_b, ext.w
    breaks = np.array([ext.lo, a - w, b + w, ext.hi])
    speed = ChebSeries.adaptive_pieces(ext.sqrt_q, breaks, tol=MAP_TOL)
    x_series = speed.antideriv(anchor=a)
    x_at = x_series(x_series.edges)

    def invert(x):
        t = np.interp(x, x_at, x_series.edges)
        for _ in range(NEWTON_STEPS):
            x_t, speed_t = call_together((x_series, speed), t)
            step = (x_t - x) / speed_t
            t -= step
            if np.max(np.abs(step)) <= MAP_TOL * max(1.0, np.max(np.abs(t))):
                return t
        raise NumericalError("coordinate inversion did not converge")

    t_series = ChebSeries.adaptive_pieces(invert, x_at, tol=MAP_TOL)
    return CoordinateMap(ext=ext, x_series=x_series, t_series=t_series)


def _forcing(cmap, x):
    """p = (1/q)(5/4 (q'/q)^2 - q''/q) evaluated at t(x) inside the map's
    `forcing_support`, and exactly +0.0 outside it."""
    inside = (x > cmap.forcing_support[0]) & (x < cmap.forcing_support[1])
    qv, dqv, d2qv = cmap.ext.jet(cmap.t_of_x(x[inside]))
    cmap.ext.require_positive(qv)
    ratio = dqv / qv
    p = np.zeros_like(x)
    p[inside] = (1.25 * ratio * ratio - d2qv / qv) / qv
    return p


def _require_vanishing_edges(p, cmap):
    """p at the first and last grid nodes must be below P_EDGE_REL times
    its largest value, or the periodic grid cuts its support."""
    edge = max(abs(p[0]), abs(p[-1]))
    if edge > P_EDGE_REL * float(np.max(np.abs(p))):
        raise ConfigurationError(
            f"grid half-width too small: p does not vanish at the "
            f"boundary; use L >= {cmap.covering_half_width:.2f}"
        )


def schwarzian_p(cmap, grid):
    """The forcing p as a function of x at the grid's space nodes:
    p(x_j) = (1/q)(5/4 (q'/q)^2 - q''/q) evaluated at t(x_j + x_shift),
    with the map's x_shift."""
    p = _forcing(cmap, grid.x + cmap.x_shift)
    _require_vanishing_edges(p, cmap)
    return RealSample(grid, p)


def below_floor(vals):
    """Mask of the values below CLEAN_REL times the largest; no value is
    below the floor of an all-zero array."""
    absv = np.abs(vals)
    return absv < CLEAN_REL * np.max(absv)


def floored(vals):
    """vals, with the values below its floor set to 0 in place."""
    vals[below_floor(vals)] = 0.0
    return vals


def resolved(half):
    """True when the half of a frequency sample on n nodes, floored at
    CLEAN_REL, vanishes on the outer half of its range, m >= n/4."""
    quarter = (half.size - 1) // 2
    return not np.any(half[quarter:][~below_floor(half)[quarter:]])


def forcing_transform(cmap, grid):
    """p-hat on the coarsest grid over the grid's [-L, L) that resolves it.

    Starting from BASE_N points (or the grid's N, if smaller), the point
    count doubles until p-hat, floored at CLEAN_REL, vanishes on the outer
    half of its frequency range, or until it reaches the grid's own N.
    The grids are nested (`CoordinateMap.level`), so p is evaluated
    at no more than N points, and only once per coefficient.  Returns that
    level's floored p-hat."""
    L, n = grid.half_width, min(BASE_N, grid.n_points)
    while True:
        p, p_hat, done = cmap.level(L, n)
        if done or n == grid.n_points:
            break
        n *= 2
    _require_vanishing_edges(p, cmap)  # at the final level's end nodes
    return p_hat


def fit_decay(p_hat):
    """Fit |p_hat(xi)| <= Gamma exp(-mu |xi|) by least squares on
    (|xi|, log |p_hat|) over nodes above the relative threshold, then
    inflate Gamma minimally so the bound holds at every nonzero node.

    The fit is the least-squares line over the centered grid, taken on
    the nonnegative half in closed form: every node there stands for two
    nodes of the grid, xi and -xi, and so has weight 2, but for xi = 0
    and the self-paired xi_max, which have weight 1.  The same weights
    count the at least 8 usable nodes the fit needs, and Gamma's
    inflation takes its maximum on the half, which holds every modulus
    of the grid.  No LAPACK routine runs (np.polyfit's least squares
    paged one in for two numbers).

    Returns (gamma, mu); gamma is inf when the inflation overflows, and
    the degenerate p_hat == 0 case returns (0.0, inf)."""
    absv = np.abs(p_hat.half)
    vmax = float(np.max(absv))
    if vmax == 0.0:
        return 0.0, np.inf
    m = np.flatnonzero(absv > FIT_THRESHOLD * vmax)
    weight = np.where((m == 0) | (m == absv.size - 1), 1.0, 2.0)
    total = float(np.sum(weight))
    if total < 8:
        raise FitError("fewer than 8 usable nodes for the decay fit")
    xi = m * p_hat.grid.dxi
    logv = np.log(absv[m])
    xi_c = xi - np.sum(weight * xi) / total
    slope = np.sum(weight * xi_c * (logv - np.sum(weight * logv) / total)) \
        / np.sum(weight * xi_c * xi_c)
    mu = -float(slope)
    if mu <= 0.0:
        raise FitError("transform does not decay; cannot certify")
    nonzero = np.flatnonzero(absv)
    with np.errstate(over="ignore"):  # inf, which the certificate refuses
        gamma = float(np.max(absv[nonzero]
                             * np.exp(mu * (nonzero * p_hat.grid.dxi))))
    return gamma, mu


def decay_bound(xi, gamma, mu):
    """Gamma * exp(-mu |xi|), with the degenerate mu = inf handled as 0."""
    if not np.isfinite(mu):
        return np.zeros_like(np.asarray(xi, dtype=float))
    return gamma * np.exp(-mu * np.abs(xi))


@dataclass(frozen=True)
class CoefficientProblem:
    """One (q, lambda) instance: what `build_problem` measures, with the
    coefficient's map, p-hat's grid, w_l1 = ||p-hat||_1 (summed once) and
    the solvability conditions lambda_ok, lambda > 2 max(1/mu, Gamma),
    and w_l1_ok, w_l1 <= (pi/2) lambda^2.  For p-hat == 0 (Gamma = 0,
    mu = inf) the lambda condition is lambda > 0."""

    coefficient: Coefficient
    lam: float
    p_hat: SpectralSample
    gamma_fit: float
    mu_fit: float

    map = property(lambda self: self.coefficient.map)
    grid = property(lambda self: self.p_hat.grid)
    w_l1 = cached_property(lambda self: l1_norm(self.p_hat))
    lambda_ok = property(lambda self: bool(
        self.lam > 2.0 * max(1.0 / self.mu_fit, self.gamma_fit)))
    w_l1_ok = property(lambda self: bool(
        self.w_l1 <= 0.5 * np.pi * self.lam ** 2))


def choose_grid(cmap, lam, L=None, N=None):
    """Grid geometry: L covers the support of p with margin (the map's
    `covering_half_width`); N keeps xi_max comfortably above 2 sqrt(2)
    lambda, where the iteration is resolved whatever its forcing.  An
    explicit N must meet that bound; without one, the grid caps the
    levels `forcing_transform` tries, and DomainError names lambda and L
    when the N they need is not finite."""
    if L is None:
        L = cmap.covering_half_width
    if N is None:
        # Python floats overflow to inf without a numpy warning
        need = 2.0 * float(L) * 2.0 * math.sqrt(2.0) * 1.15 * float(lam) \
            / math.pi
        if not math.isfinite(need):
            raise DomainError(
                f"no grid for lambda={lam:g} on [-L, L] with L={L:g}: the "
                f"N it needs, 2 L 2 sqrt(2) 1.15 lambda / pi, is not finite")
        N = 1 << int(np.ceil(np.log2(np.ceil(max(need, 1024)))))
    grid = SpectralGrid(half_width=float(L), n_points=int(N))
    if grid.xi_max < 2.0 * np.sqrt(2.0) * lam:
        raise ConfigurationError(
            "grid frequency range too small: xi_max must be at least "
            "2*sqrt(2)*lambda"
        )
    return grid


def check_lambda_square(lam):
    """DomainError naming lambda unless 4 lambda^2 and 1/(4 lambda^2),
    the band multiplier at xi = 0, are finite doubles: lambda between
    about 3.73e-155 and 6.7e153."""
    square = 4.0 * float(lam) * float(lam)
    if not math.isfinite(square):
        raise DomainError(f"lambda={lam:g} is too large: 4 lambda^2 "
                          f"overflows double precision")
    if square == 0.0 or not math.isfinite(1.0 / square):  # 1.0/0.0 raises
        raise DomainError(f"lambda={lam:g} is too small: 1/(4 lambda^2) "
                          f"overflows double precision")


def build_problem(coefficient, lam, L=None, N=None):
    """Assemble a CoefficientProblem: grid, forcing transform and decay
    fit, on the coefficient's lambda-independent setup
    (`Coefficient.map`: extension, map, and p on nested grids).

    With an explicit N the grid is `choose_grid`'s, and p-hat is
    zero-extended onto it.  Without one it is the level `forcing_transform`
    returns: the coarsest that resolves p-hat, which stops growing with
    lambda, or `choose_grid`'s own grid when p-hat never resolves
    (finite-difference noise).  `fixed_point_solve` checks that the solution is resolved
    there too.  Values of p_hat below the round-off floor are zeroed so
    the decay certificate is meaningful at every node."""
    if _finite(lam, "lambda") <= 0:
        raise DomainError("lambda must be positive")
    cmap = coefficient.map
    grid = choose_grid(cmap, lam, L=L, N=N)
    # after choose_grid, whose error names L too when no grid can be built
    check_lambda_square(lam)
    p_hat = forcing_transform(cmap, grid)
    if N is not None and grid != p_hat.grid:  # zero-extended below xi_max
        n = p_hat.grid.n_points
        half = np.zeros(grid.n_points // 2 + 1, dtype=complex)
        half[:n // 2] = p_hat.half[:n // 2]
        p_hat = SpectralSample.of_half(grid, half)
    gamma, mu = fit_decay(p_hat)
    prob = CoefficientProblem(coefficient=coefficient, lam=float(lam),
                              p_hat=p_hat, gamma_fit=gamma, mu_fit=mu)
    if not (prob.lambda_ok and prob.w_l1_ok):
        warnings.warn(
            f"solvability hypotheses not satisfied at lambda={lam:g}; the "
            f"solve may still converge but its bounds are uncertified",
            stacklevel=2,
        )
    return prob


class TableInterpolant:
    """The Floater-Hormann rational interpolant (Numer. Math. 107 (2007)
    315-331) through a table of [t, q] pairs: C-infinity, with no poles
    on the real line, and exact at the knots t_0 < ... < t_n.  Its
    weights are w_k = (-1)^(k-d) sum_{i in J_k} prod_{j=i..i+d, j!=k}
    1/|t_k - t_j| over J_k = {i : 0 <= i <= n-d, k-d <= i <= k}, with
    blending degree d = FH_DEGREE, or n if that is less.  Its sums are
    taken relative to the first value, so a constant table gives its
    constant exactly."""

    def __init__(self, table):
        try:
            table = np.asarray(table, dtype=float)
        except (TypeError, ValueError):     # ragged, or not numbers
            table = None
        if table is None or table.ndim != 2 or table.shape[1] != 2 \
                or len(table) < 2:
            raise DomainError(
                "table coefficient must be a list of at least 2 [t, q] pairs")
        knots, values = table.T
        if not (np.all(np.isfinite(knots)) and np.all(np.diff(knots) > 0.0)):
            raise DomainError(
                "table q knots must be finite and strictly increasing")
        if not np.all(np.isfinite(values)):
            raise DomainError("table q values must be finite")
        self.knots, self.values = knots, values
        n, d = knots.size, min(FH_DEGREE, knots.size - 1)
        m = n - d                   # windows t_i..t_(i+d), i < m
        weights = np.zeros(n)
        # knot i+r of every window i at once; r descending adds the
        # terms of each w_k in ascending i
        for r in range(d, -1, -1):
            gaps = [np.abs(knots[r:r + m] - knots[j:j + m])
                    for j in range(d + 1) if j != r]
            weights[r:r + m] += 1.0 / np.prod(gaps, axis=0)
        self.weights = weights * (-1.0) ** (np.arange(n) - d)
        self._shifted = self.weights * (values - values[0])

    def __call__(self, t):
        """The interpolant at t: an array of t's shape, or a float for a
        float or 0-d t; the (points x knots) Cauchy matrix is built in
        blocks of at most FH_BLOCK entries."""
        t = np.asarray(t, dtype=float)
        flat, rows = t.ravel(), max(1, FH_BLOCK // self.knots.size)
        out = np.empty_like(flat)
        with np.errstate(divide="ignore", invalid="ignore"):
            for start in range(0, flat.size, rows):
                cauchy = 1.0 / (flat[start:start + rows, None] - self.knots)
                # row sums, as a matrix product rounds by the block's shape
                out[start:start + rows] = ((cauchy * self._shifted).sum(1)
                                           / (cauchy * self.weights).sum(1))
        out += self.values[0]
        # at a knot the sums read inf/inf; there q is the knot's value
        k = np.minimum(np.searchsorted(self.knots, flat), self.knots.size - 1)
        hit = self.knots[k] == flat
        out[hit] = self.values[k[hit]]
        return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


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
    """The ProblemConfig of a parsed problem definition.

    q is an expression (`compile_expression`) or a table of [t, q]
    pairs, which becomes its `TableInterpolant`; the table's knots must
    cover [a - 3w, b + 3w], as it is not extrapolated.  Then one rule
    holds for both: "dq" and "d2q" keys are compiled as expressions, and
    `Coefficient.make` gives the others finite differences, which are
    exact zeros for a constant q."""
    if not isinstance(data, dict):
        raise DomainError("problem definition must be a JSON object")
    for key in ("q", "a", "b"):
        if key not in data:
            raise DomainError(f"problem definition is missing {key!r}")
    qdef = data["q"]
    if isinstance(qdef, str):
        q = compile_expression(qdef)
    elif isinstance(qdef, list):
        q = TableInterpolant(qdef)
    else:
        raise DomainError("q must be an expression string or a sample table")
    dq = compile_expression(data["dq"]) if "dq" in data else None
    d2q = compile_expression(data["d2q"]) if "d2q" in data else None
    coeff = Coefficient.make(q, data["a"], data["b"], dq=dq, d2q=d2q,
                             extension_width=data.get("extension_width"))
    if isinstance(q, TableInterpolant):
        # the interpolant is not extrapolated past its knots
        lo = coeff.interval_a - 3.0 * coeff.extension_width
        hi = coeff.interval_b + 3.0 * coeff.extension_width
        first, last = q.knots[0], q.knots[-1]
        if not (first <= lo and last >= hi):
            raise DomainError(
                f"table q must cover [a - 3w, b + 3w] = [{lo:g}, {hi:g}]; "
                f"its knots span [{first:g}, {last:g}]")
    gridspec = data.get("grid", {})
    if not isinstance(gridspec, dict):
        raise DomainError("grid must be an object with keys L and N")
    grid_L = None
    if "L" in gridspec:
        grid_L = _finite(gridspec["L"], "grid L")
        if grid_L <= 0.0:
            raise DomainError(f"grid L must be positive, not {grid_L!r}")
    grid_N = None
    if "N" in gridspec:
        grid_N = _finite(gridspec["N"], "grid N")
        if not grid_N.is_integer():
            raise DomainError(f"grid N must be an integer, not {grid_N!r}")
        grid_N = int(grid_N)
        if grid_N < 16 or grid_N & (grid_N - 1):
            raise DomainError(
                f"grid N must be a power of two and at least 16, not {grid_N}")
    return ProblemConfig(
        coefficient=coeff,
        lam=_finite(data["lambda"], "lambda") if "lambda" in data else None,
        grid_L=grid_L,
        grid_N=grid_N,
    )
