"""Truncated convolution exponentials.

exp1(Psi) is the transform of exp(f) - 1 and exp2(Psi) the transform of
exp(f) - f - 1, where f is the space-domain function with transform Psi.
Both are the sums of convolution-power series

    exp1[Psi] = Psi + Psi*Psi/(2! 2pi) + Psi*Psi*Psi/(3! (2pi)^2) + ...
    exp2[Psi] = exp1[Psi] - Psi,

but exp2 is computed space-side, in O(N log N), by `exp2` on the space
sample.  The series partial sum is the tests' reference oracle
(`tests/helpers.py`).
"""

import numpy as np

from .errors import MagnitudeError
from .grid import forward, inverse, RealSample, linf_norm

OVERFLOW_LIMIT = 700.0  # exp overflows double precision near 709


def _exp_ready(f):
    """The real space sample f, or MagnitudeError once |f| reaches
    OVERFLOW_LIMIT."""
    if linf_norm(f) >= OVERFLOW_LIMIT:
        raise MagnitudeError("space-domain magnitude too large for exp")
    return f


def exp2(f):
    """The values exp(f) - f - 1 of a real space sample f, checked for
    exp: the space side of exp2_star, which the fixed-point map uses
    directly."""
    v = _exp_ready(f).values
    return np.expm1(v) - v


def exp2_star(Psi):
    """Transform of exp(f) - f - 1 for f = inverse(Psi)."""
    return forward(RealSample(Psi.grid, exp2(inverse(Psi))))

