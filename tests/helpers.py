"""Operators and reference sums that only the tests use: the convolution
exponentials' series oracle, the operator S of the integral equation, the
Helmholtz inverse on both sides (the reference the solver's
delta-hat = Wb psi is checked against), the fixed point and extraction
on the whole centered grid (the references of the solver's half
spectrum), the zero spectral sample, the decay slope of the acceptance
checks, the decay fit on the mirrored moduli (the reference of the
half-spectrum fit), the band-limited series summed at all points at once
(the reference of the evaluator's runs), a piecewise Chebyshev series
summed at all points at once (the reference of its runs), the forcing p
evaluated at every node (the reference of its evaluation on the support
alone), and the DOP853 lanes stepped on separate arrays (the reference
of the oracle's state table and stage buffer)."""

from math import factorial, isqrt

import numpy as np

from nophase.chebseries import clenshaw
from nophase.convexp import _exp_ready
from nophase.errors import (ConfigurationError, FitError, MagnitudeError,
                            NumericalError)
from nophase.grid import (RealSample, SpectralSample, convolve, forward,
                          inverse, l1_norm, linf_norm, mirror)
from nophase.mollifier import smooth_step
from nophase.oracle import (_A_ROWS, _C, _FAC1, _FAC2, _MIN_RTOL, _SAFE,
                            _UROUND, _WEIGHTS)
from nophase.problem import FIT_THRESHOLD, below_floor, decay_bound
from nophase.solver import (BOUND_FLOOR_REL, MAX_ITER, NU_SLACK,
                            SIGMA_SLACK, TOL, BoundsReport, apply_R)


def zeros_spectral(grid):
    return SpectralSample(grid, np.zeros(grid.n_points, dtype=complex))


def exp1_star(Psi):
    """Transform of exp(f) - 1 for f = inverse(Psi)."""
    f = _exp_ready(inverse(Psi))
    return forward(RealSample(Psi.grid, np.expm1(f.values)))


def exp2_star_series(Psi, n_terms):
    """Partial sum of the defining convolution-power series, starting at
    the quadratic term.  Desk-scale oracle: n_terms <= 30, N <= 256."""
    if n_terms > 30:
        raise ValueError("n_terms must be <= 30")
    if Psi.grid.n_points > 256:
        raise ValueError("series oracle is restricted to N <= 256")
    acc = np.zeros(Psi.grid.n_points, dtype=complex)
    power = Psi
    for n in range(2, n_terms + 1):
        power = convolve(power, Psi)
        acc += power.values / factorial(n)
    return SpectralSample(Psi.grid, acc)


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


def invert_helmholtz(f_hat, lam):
    """The Helmholtz inverse on the frequency side: f-hat/(4l^2-xi^2) on
    the support of f-hat and exactly zero off it.

    Requires the support of f-hat to lie strictly inside
    (-2 lambda, 2 lambda), away from the multiplier's zeros."""
    xi = f_hat.grid.xi
    on = np.abs(f_hat.values) > 0.0
    if np.any(np.abs(xi[on]) >= 2.0 * lam):
        raise ConfigurationError(
            "sample support reaches the Helmholtz multiplier's zeros"
        )
    vals = np.zeros_like(f_hat.values)
    vals[on] = f_hat.values[on] / (4.0 * lam ** 2 - xi[on] ** 2)
    return SpectralSample(f_hat.grid, vals)


def apply_T(sigma_hat, lam):
    """Invert the Helmholtz multiplier: delta = inverse transform of
    sigma-hat/(4l^2-xi^2).

    Requires the support of sigma-hat to lie strictly inside
    (-2 lambda, 2 lambda)."""
    return inverse(invert_helmholtz(sigma_hat, lam))


def fit_slope(lams, values):
    """Least-squares slope of log(values) against lambda."""
    lams = np.asarray(lams, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0
    slope, _ = np.polyfit(lams[keep], np.log(values[keep]), 1)
    return float(slope)


def mirrored_fit_decay(p_hat):
    """`fit_decay` as it ran on the mirrored moduli of the whole centered
    grid, with numpy's polyfit (an SVD least squares) for the line."""
    absv = mirror(p_hat.grid, np.abs(p_hat.half))
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
    with np.errstate(over="ignore"):
        gamma = float(np.max(absv[nonzero]
                             * np.exp(mu * np.abs(p_hat.grid.xi[nonzero]))))
    return gamma, mu


def bump_on_full_grid(grid, lam):
    """The cutoff, the band multiplier and its odd partner evaluated at
    every node of the centered grid, as `make_bump` evaluated them before
    it ran on the nonnegative half."""
    c = 0.5 * (np.sqrt(2.0) * lam + lam)
    alpha = 0.25 * (np.sqrt(2.0) * lam - lam)
    b = 1.0 - smooth_step((np.abs(grid.xi) - c) / alpha)
    on = b > 0.0
    multiplier = np.zeros_like(b)
    multiplier[on] = b[on] * (1.0 / (4.0 * lam ** 2 - grid.xi[on] ** 2))
    odd = -1j * grid.xi * multiplier
    odd[0] = 0.0
    return b.astype(complex), multiplier, odd


def iterate_apply_R(w_hat, bump):
    """psi and the L1 increments of the public `apply_R` iterated from w
    on the centered grid, under `fixed_point_solve`'s stopping rule: the
    increment delta_k is at most TOL ||w||_1, or, from the second
    iteration on, the ratio rho = delta_k / delta_{k-1} is below 1 and
    rho delta_k / (1 - rho) is at most TOL ||w||_1."""
    threshold = TOL * max(l1_norm(w_hat), 1e-300)
    psi, deltas = w_hat, []
    for _ in range(MAX_ITER):
        nxt = apply_R(psi, w_hat, bump)
        deltas.append(l1_norm(SpectralSample(psi.grid,
                                             nxt.values - psi.values)))
        psi = nxt
        if deltas[-1] <= threshold:
            return psi, deltas
        if len(deltas) > 1:
            rho = deltas[-1] / deltas[-2]
            if rho < 1.0 and rho * deltas[-1] / (1.0 - rho) <= threshold:
                return psi, deltas
    raise AssertionError("apply_R did not converge")


def extract_on_full_grid(state, bump, prob):
    """sigma-hat = psi bhat, nu = inverse(sigma-hat - psi), delta-hat =
    Wb psi cut at its floor, and the bounds report, each formed from the
    whole centered grid as `extract_solution` formed them before it ran
    on the nonnegative half.  A bound that is not finite (an overflowing
    Gamma) fails its check, as in the solver."""
    psi, lam = state.psi, bump.lam
    grid, xi = psi.grid, psi.grid.xi
    b, multiplier, _ = bump_on_full_grid(grid, lam)
    sigma = psi.values * b.real
    nu = inverse(SpectralSample(grid, sigma - psi.values))
    delta = psi.values * multiplier
    cut = below_floor(delta)
    delta_tail = grid.dxi / (2.0 * np.pi) \
        * float(np.sum(np.abs(delta[cut])))
    delta[cut] = 0.0
    gamma, mu = prob.gamma_fit, prob.mu_fit
    abs_sigma = np.abs(sigma)
    floor = BOUND_FLOOR_REL * max(float(np.max(abs_sigma)),
                                  float(np.max(np.abs(prob.p_hat.values))),
                                  1e-300)
    outside = np.abs(xi) >= np.sqrt(2.0) * lam
    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan fail below
        bound = (1.0 + 2.0 * gamma / lam) \
            * decay_bound(xi[~outside], gamma, mu)
        nu_bound = (gamma / (2.0 * mu)) * (1.0 + 4.0 * gamma / lam) \
            * np.exp(-mu * lam)
        band_tail = 0.0
        if grid.xi_max < np.sqrt(2.0) * lam:
            band_tail = (1.0 + 2.0 * gamma / lam) * gamma / (np.pi * mu) \
                * np.exp(-mu * grid.xi_max)
    nu_inf = linf_norm(nu)
    nu_floor = BOUND_FLOOR_REL * max(float(np.max(np.abs(psi.values))),
                                     1e-300)
    report = BoundsReport(
        lam=lam, gamma=gamma, mu=mu, w_l1=prob.w_l1,
        lambda_hypothesis_ok=prob.lambda_ok, w_l1_hypothesis_ok=prob.w_l1_ok,
        iterations=state.iteration,
        final_delta=state.l1_deltas[-1],
        sigma_support_ok=bool(np.all(abs_sigma[outside] == 0.0)),
        sigma_decay_ok=bool(np.all(np.isfinite(bound)) and np.all(
            (abs_sigma[~outside] <= SIGMA_SLACK * bound)
            | (abs_sigma[~outside] <= floor))),
        sigma_decay_floor_limited=not bool(np.all(bound >= floor)),
        nu_inf=nu_inf, nu_bound=float(nu_bound),
        nu_bound_ok=bool(np.isfinite(nu_bound)
                         and (nu_inf <= NU_SLACK * nu_bound
                              or nu_inf <= nu_floor)),
        nu_floor_limited=bool(nu_bound < nu_floor
                              or np.all(b == 1.0)),
        delta_tail=delta_tail, band_tail=float(band_tail))
    return (SpectralSample(grid, sigma), nu, SpectralSample(grid, delta),
            report)


def unblocked_evaluator(F):
    """`band_limited_evaluator` with its two tables built for all points
    at once, from np.exp of the imaginary angles: the sum the evaluator
    runs in bounded point runs, which must give its bits."""
    half, n = F.half, F.grid.n_points // 2
    support = np.flatnonzero(half)
    top = int(support[-1]) + 1 if support.size else 0
    block = isqrt(n) + 1
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


def unblocked_sum(series, t):
    """A piecewise `ChebSeries` at t with every point's piece
    coefficients gathered at once and summed in one `clenshaw` pass: the
    sum the series runs in bounded point runs, which must give its
    bits."""
    t = np.asarray(t, dtype=float)
    edges = series.edges
    idx = np.clip(np.searchsorted(edges, t, side="right") - 1,
                  0, len(edges) - 2)
    lo, hi = edges[idx], edges[idx + 1]
    return clenshaw((2.0 * t - (lo + hi)) / (hi - lo),
                    np.take(series.coef, idx, axis=-1))


def forcing_at_every_node(cmap, x):
    """p = (1/q)(5/4 (q'/q)^2 - q''/q) at t(x) for every x, inside the
    map's `forcing_support` or not: the sum `problem._forcing` makes on
    the support alone, which must give its bits."""
    qv, dqv, d2qv = cmap.ext.jet(cmap.t_of_x(x))
    cmap.ext.require_positive(qv)
    ratio = dqv / qv
    return (1.25 * ratio * ratio - d2qv / qv) / qv


def _rhs(y, c):
    """(y', y'') stacked on (y, y') for y'' = c y, per lane."""
    return np.concatenate((y[2:], c * y[:2]))


def transfer_matrices_reference(q, lam, ends, q_ends, tol):
    """`oracle._transfer_matrices` with every lane array its own and a
    new array for every stage sum: the same DOP853 lanes, which the
    oracle's state table and stage buffer must reproduce bit for bit,
    with the same q calls."""
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
    f0 = _rhs(y, cx)
    sk = atol + rtol * np.abs(y)
    dnf = np.sum((f0 / sk) ** 2, axis=0)
    dny = np.sum((y / sk) ** 2, axis=0)
    h = np.where((dnf <= 1e-10) | (dny <= 1e-10), 1e-6,
                 np.sqrt(dny / dnf) * 0.01)
    h = np.minimum(h, hmax)
    f1 = _rhs(y + h * f0, neg_lam2 * np.asarray(q(x + h), dtype=float))
    der2 = np.sqrt(np.sum(((f1 - f0) / sk) ** 2, axis=0)) / h
    der12 = np.maximum(np.abs(der2), np.sqrt(dnf))
    h1 = np.where(der12 <= 1e-15, np.maximum(1e-6, np.abs(h) * 1e-3),
                  (0.01 / der12) ** 0.125)
    h = np.minimum(np.minimum(100.0 * h, h1), hmax)

    end = np.empty((4, lanes))
    live = np.arange(lanes)
    reject = np.zeros(lanes, dtype=bool)
    while live.size:
        n = live.size
        if np.any(0.1 * h <= np.abs(x) * _UROUND):
            raise NumericalError(
                "reference integrator failed: step size becomes too small")
        last = x + 1.01 * h - xend > 0.0
        h = np.where(last, xend - x, h)
        nodes = x + _C[1:, None] * h  # the last row is x + h
        c = neg_lam2 * np.asarray(q(nodes.ravel()),
                                  dtype=float).reshape(11, n)
        k = np.empty((12, 4, n))
        k[0] = _rhs(y, cx)
        for s, row in enumerate(_A_ROWS, start=1):
            ys = y + h * (row @ k[:s].reshape(s, -1)).reshape(4, n)
            k[s, :2] = ys[2:]
            np.multiply(c[s - 1], ys[:2], out=k[s, 2:])
        increment, err3, err5 = (_WEIGHTS @ k.reshape(12, -1)).reshape(
            3, 4, n)
        y_new = y + h * increment
        sk = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err3 = np.sum((err3 / sk) ** 2, axis=0)
        err5 = np.sum((err5 / sk) ** 2, axis=0)
        deno = err5 + 0.01 * err3
        deno[deno <= 0.0] = 1.0
        err = h * err5 * np.sqrt(1.0 / (4.0 * deno))
        if np.any(np.isnan(err)):
            raise NumericalError(
                "reference integrator failed: error estimate is not a number")
        # the next step is h / fac, at most 1 / fac1 times smaller, and
        # after an accepted step at most fac2 times larger
        fac = np.minimum(1.0 / _FAC1, err ** 0.125 / _SAFE)
        accept = err <= 1.0
        h_accepted = np.minimum(h / np.maximum(1.0 / _FAC2, fac), hmax)
        h_accepted = np.where(reject, np.minimum(h_accepted, h), h_accepted)
        h = np.where(accept, h_accepted, h / fac)
        x = np.where(accept, nodes[-1], x)
        y = np.where(accept, y_new, y)
        cx = np.where(accept, c[-1], cx)
        reject = ~accept
        done = accept & last
        if np.any(done):
            end[:, live[done]] = y[:, done]
            keep = ~done
            live, x, xend, hmax, h, cx, reject, y = (
                live[keep], x[keep], xend[keep], hmax[keep], h[keep],
                cx[keep], reject[keep], y[:, keep])
    return np.stack((end[0], end[1] / omega, end[2], end[3] / omega),
                    axis=-1).reshape(lanes, 2, 2)
