"""The C-infinity smooth step built from the compactly supported mollifier
exp(1/(u^2 - 1)).

smooth_step(u) rises from exactly 0 at u <= -1 to exactly 1 at u >= 1 and is
infinitely differentiable.  It is the single primitive shared by the
frequency-domain cutoff (solver module) and the coefficient extension
(problem module).

The step is the normalized antiderivative of the mollifier: a piecewise
Chebyshev series of the mollifier on [-1, 1] (pieces of degree 32, bisected
from quarters until resolved), fitted once at import, integrated term by
term and divided by its value at 1.  Low-degree pieces keep an evaluation
cheap at any point count, where one global series of degree 256 costs
about a millisecond per call.
"""

import numpy as np

from .chebseries import PiecewiseCheb

__all__ = [
    "mollifier",
    "mollifier_deriv",
    "smooth_step",
    "smooth_step_deriv",
    "smooth_step_deriv2",
    "NORMALIZATION",
]


def mollifier(u):
    """exp(1/(u^2-1)) on (-1, 1), zero elsewhere.  Not normalized."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 / (ui * ui - 1.0))
    return out


def mollifier_deriv(u):
    """Derivative of the (unnormalized) mollifier."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    d = ui * ui - 1.0
    out[inside] = np.exp(1.0 / d) * (-2.0 * ui / (d * d))
    return out


_INTEGRAL = PiecewiseCheb.adaptive_fit(mollifier, np.linspace(-1.0, 1.0, 5),
                                       tol=1e-15).antideriv()
NORMALIZATION = float(_INTEGRAL(1.0))
_STEP = PiecewiseCheb(_INTEGRAL.edges, _INTEGRAL.coef / NORMALIZATION)


def smooth_step(u):
    """Vectorized smooth step: 0 for u <= -1, 1 for u >= 1."""
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = np.empty_like(u)
    lo = u <= -1.0
    hi = u >= 1.0
    mid = ~(lo | hi)
    out[lo] = 0.0
    out[hi] = 1.0
    if np.any(mid):
        out[mid] = np.clip(_STEP(u[mid]), 0.0, 1.0)
    return float(out[0]) if scalar else out


def smooth_step_deriv(u):
    """First derivative of the smooth step (the normalized mollifier)."""
    return mollifier(u) / NORMALIZATION


def smooth_step_deriv2(u):
    """Second derivative of the smooth step."""
    return mollifier_deriv(u) / NORMALIZATION
