"""Operators and reference sums that only the tests use: the convolution
exponentials' series oracle, the operator S of the integral equation, the
Helmholtz inverse on both sides (the reference the solver's
delta-hat = Wb psi is checked against), the zero spectral sample, and the
decay slope of the acceptance checks."""

from math import factorial

import numpy as np

from nophase.convexp import _space_side
from nophase.errors import ConfigurationError, MagnitudeError
from nophase.grid import (RealSample, SpectralSample, convolve, forward,
                          inverse)


def zeros_spectral(grid):
    return SpectralSample(grid, np.zeros(grid.n_points, dtype=complex))


def exp1_star(Psi):
    """Transform of exp(f) - 1 for f = inverse(Psi)."""
    f = _space_side(Psi)
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
