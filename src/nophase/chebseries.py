"""Chebyshev series on an interval, and piecewise on a partition of one:
fitting at Lobatto nodes, evaluation, differentiation, and
antidifferentiation (Clenshaw-Curtis style)."""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as C

from .errors import NumericalError

PIECE_DEGREE = 32     # degree of every piece of a PiecewiseCheb
MAX_ROUNDS = 40       # bisection rounds of PiecewiseCheb.adaptive_fit
MAX_PIECES = 1 << 14  # cap on its piece count


def lobatto_nodes(n, a=-1.0, b=1.0):
    """n+1 Chebyshev-Lobatto points, ascending in [a, b]."""
    s = np.cos(np.pi * np.arange(n, -1, -1) / n)
    return 0.5 * (a + b) + 0.5 * (b - a) * s


def values_to_coeffs(values_ascending):
    """Chebyshev coefficients from values at ascending Lobatto nodes
    (along the last axis)."""
    v = np.asarray(values_ascending, dtype=float)[..., ::-1]  # descending in s
    n = v.shape[-1] - 1
    # the type-1 DCT, as the FFT of the even extension
    even = np.concatenate((v, v[..., -2:0:-1]), axis=-1)
    c = np.fft.rfft(even, axis=-1).real / n
    c[..., 0] *= 0.5
    c[..., -1] *= 0.5
    return c


@dataclass(frozen=True)
class ChebSeries:
    a: float
    b: float
    coef: np.ndarray

    @classmethod
    def fit(cls, f, a, b, n):
        """Interpolate f at n+1 Lobatto nodes."""
        t = lobatto_nodes(n, a, b)
        return cls(a=a, b=b, coef=values_to_coeffs(f(t)))

    @classmethod
    def adaptive_fit(cls, f, a, b, tol=1e-13, min_n=16, max_n=4096):
        """Double the node count until the coefficient tail drops below
        tol relative to the largest coefficient; raises NumericalError
        when n reaches max_n without passing that test.

        The n-point Lobatto nodes are the even nodes of the 2n-point set,
        bit for bit, so each doubling calls f only at the new odd nodes
        and f sees every node of the final fit exactly once."""
        known = None

        def nested(t):
            nonlocal known
            if known is None:
                known = np.asarray(f(t), dtype=float)
            else:
                finer = np.empty(len(t))
                finer[0::2] = known
                finer[1::2] = f(t[1::2])
                known = finer
            return known

        n = min_n
        while True:
            series = cls.fit(nested, a, b, n)
            c = np.abs(series.coef)
            cmax = float(np.max(c))
            tail = float(np.max(c[-max(2, n // 8):]))
            if cmax == 0.0 or tail <= tol * cmax:
                return series
            if n >= max_n:
                raise NumericalError(
                    f"Chebyshev fit did not resolve the function with "
                    f"{max_n} nodes")
            n *= 2

    def _s(self, t):
        return (2.0 * np.asarray(t, dtype=float) - (self.a + self.b)) / (self.b - self.a)

    def __call__(self, t):
        return C.chebval(self._s(t), self.coef)

    def deriv(self):
        return ChebSeries(self.a, self.b,
                          C.chebder(self.coef) * (2.0 / (self.b - self.a)))

    def antideriv(self, anchor=None, value=0.0):
        """Antiderivative; anchored so that it equals `value` at `anchor`
        (defaults to the left endpoint)."""
        coef = C.chebint(self.coef) * (0.5 * (self.b - self.a))
        out = ChebSeries(self.a, self.b, coef)
        t0 = self.a if anchor is None else anchor
        shift = value - out(t0)
        coef = coef.copy()
        coef[0] += shift
        return ChebSeries(self.a, self.b, coef)

    def degree_for_tail(self, rel=1e-12):
        """Smallest degree beyond which all coefficients are below
        rel * max|coef|."""
        c = np.abs(self.coef)
        cmax = float(np.max(c))
        if cmax == 0.0:
            return 0
        significant = np.nonzero(c > rel * cmax)[0]
        return int(significant[-1]) if significant.size else 0


@dataclass(frozen=True)
class PiecewiseCheb:
    """A Chebyshev series on each interval between ascending edges; row i
    of coef holds the piece on [edges[i], edges[i+1]].  Points outside
    [edges[0], edges[-1]] are evaluated on the nearest end piece."""

    edges: np.ndarray
    coef: np.ndarray

    @classmethod
    def fit(cls, f, edges):
        """Interpolate f at PIECE_DEGREE+1 Lobatto nodes on every piece."""
        edges = np.asarray(edges, dtype=float)
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        t = mid[:, None] + half[:, None] * lobatto_nodes(PIECE_DEGREE)
        values = np.asarray(f(t.ravel())).reshape(t.shape)
        return cls(edges=edges, coef=values_to_coeffs(values))

    @classmethod
    def adaptive_fit(cls, f, edges, tol=1e-13):
        """Fit f on the given pieces, bisecting each piece whose last
        PIECE_DEGREE/8 coefficients exceed tol relative to the largest
        coefficient."""
        edges = np.asarray(edges, dtype=float)
        for _ in range(MAX_ROUNDS):
            series = cls.fit(f, edges)
            c = np.abs(series.coef)
            tail = np.max(c[:, -(PIECE_DEGREE // 8):], axis=1)
            bad = tail > tol * np.max(c)
            if not np.any(bad):
                return series
            mid = 0.5 * (edges[:-1] + edges[1:])
            edges = np.sort(np.append(edges, mid[bad]))
            if len(edges) > MAX_PIECES:
                break
        raise NumericalError("piecewise Chebyshev fit did not resolve the "
                             "function within the bisection budget")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, t, side="right") - 1,
                      0, len(self.edges) - 2)
        lo, hi = self.edges[idx], self.edges[idx + 1]
        s2 = 2.0 * (2.0 * t - (lo + hi)) / (hi - lo)
        # Clenshaw, gathering one coefficient column at a time
        b1 = np.zeros_like(s2)
        b2 = np.zeros_like(s2)
        for k in range(self.coef.shape[1] - 1, 0, -1):
            b1, b2 = self.coef[idx, k] + s2 * b1 - b2, b1
        return self.coef[idx, 0] + 0.5 * s2 * b1 - b2

    def antideriv(self, anchor=None, value=0.0):
        """Continuous antiderivative; anchored so that it equals `value`
        at `anchor` (defaults to the left end)."""
        half = 0.5 * np.diff(self.edges)
        coef = C.chebint(self.coef, lbnd=-1.0, axis=1) * half[:, None]
        # each piece starts from zero; add the sum of the pieces before it
        totals = np.sum(coef, axis=1)  # each piece's value at its right end
        coef[:, 0] += np.concatenate([[0.0], np.cumsum(totals)[:-1]])
        t0 = self.edges[0] if anchor is None else anchor
        coef[:, 0] += value - PiecewiseCheb(self.edges, coef)(t0)
        return PiecewiseCheb(self.edges, coef)
