"""Chebyshev series on an interval, and piecewise on a partition of one:
fitting at Lobatto nodes, evaluation, differentiation, and
antidifferentiation (Clenshaw-Curtis style)."""

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as C

from .errors import NumericalError

TAIL_TOL = 1e-13      # coefficient-tail tolerance of ChebSeries.adaptive_fit
MIN_N = 128           # its first node count
MAX_N = 4096          # and its last
DEGREE_REL = 1e-12    # relative coefficient floor of degree_for_tail
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
    """A Chebyshev series on [a, b].  A fitted series keeps the values at
    its ascending Lobatto nodes that it was fitted from (`values`)."""

    a: float
    b: float
    coef: np.ndarray
    values: np.ndarray = field(default=None, repr=False, compare=False)

    @classmethod
    def fit(cls, f, a, b, n):
        """Interpolate f at n+1 Lobatto nodes."""
        values = np.asarray(f(lobatto_nodes(n, a, b)), dtype=float)
        return cls(a=a, b=b, coef=values_to_coeffs(values), values=values)

    @classmethod
    def adaptive_fit(cls, f, a, b):
        """Double the node count from MIN_N until the coefficient tail
        drops below TAIL_TOL relative to the largest coefficient; raises
        NumericalError when n reaches MAX_N without passing that test.

        MIN_N is 128 because the fits of delta, r and alpha' end at
        n >= 128 on every route measured (sech at lambda = 20 to 1280,
        exact, expression and finite-difference derivatives), so rounds
        at 16, 32 and 64 nodes only ever failed.  As the rounds are
        nested, a fit that ends at n >= 128 is the same bit for bit.

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

        n = MIN_N
        while True:
            series = cls.fit(nested, a, b, n)
            c = np.abs(series.coef)
            cmax = float(np.max(c))
            tail = float(np.max(c[-max(2, n // 8):]))
            if tail <= TAIL_TOL * cmax:
                return series
            if n >= MAX_N:
                raise NumericalError(
                    f"Chebyshev fit did not resolve the function with "
                    f"{MAX_N} nodes")
            n *= 2

    def _s(self, t):
        return (2.0 * np.asarray(t, dtype=float) - (self.a + self.b)) / (self.b - self.a)

    def __call__(self, t):
        return C.chebval(self._s(t), self.coef)

    def sampled(self, t):
        """The series at t, read from the fitted values where t is one of
        the fit's Lobatto nodes and summed elsewhere.  The nodes of every
        coarser doubling level on [a, b] are fit nodes, bit for bit."""
        t = np.asarray(t, dtype=float)
        if self.values is None:
            return self(t)
        nodes = lobatto_nodes(len(self.values) - 1, self.a, self.b)
        idx = np.minimum(np.searchsorted(nodes, t), len(nodes) - 1)
        hit = nodes[idx] == t
        out = np.where(hit, self.values[idx], 0.0)
        if not np.all(hit):
            out[~hit] = self(t[~hit])
        return out

    def deriv(self):
        return ChebSeries(self.a, self.b,
                          C.chebder(self.coef) * (2.0 / (self.b - self.a)))

    def antideriv(self):
        """The antiderivative that vanishes at a, where its value before
        anchoring is sum_k c_k T_k(-1) = sum_k c_k (-1)^k."""
        coef = C.chebint(self.coef) * (0.5 * (self.b - self.a))
        coef[0] -= np.sum(coef[0::2]) - np.sum(coef[1::2])
        return ChebSeries(self.a, self.b, coef)

    def degree_for_tail(self):
        """Smallest degree beyond which all coefficients are below
        DEGREE_REL * max|coef|."""
        c = np.abs(self.coef)
        significant = np.nonzero(c > DEGREE_REL * np.max(c))[0]
        return int(significant[-1]) if significant.size else 0


def call_together(functions, t):
    """[f(t) for f in functions], with the ChebSeries among them summed
    in one chebval pass over their coefficients stacked as columns, the
    shorter ones padded with zeros.  A zero leading coefficient leaves
    Clenshaw's recurrence where it was, so each value has the bits of
    the series' own call.  The series must share one interval."""
    t = np.asarray(t, dtype=float)
    series = [f for f in functions if isinstance(f, ChebSeries)]
    if not series:
        return [f(t) for f in functions]
    if len({(s.a, s.b) for s in series}) > 1:
        raise ValueError("call_together needs its series on one interval")
    coef = np.zeros((max(s.coef.size for s in series), len(series)))
    for j, s in enumerate(series):
        coef[:s.coef.size, j] = s.coef
    values = iter(C.chebval(series[0]._s(t), coef))
    return [next(values) if isinstance(f, ChebSeries) else f(t)
            for f in functions]


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
    def adaptive_fit(cls, f, edges, tol):
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
        # Clenshaw on the points' coefficient rows, gathered once:
        # cols[k] holds coefficient k of each point's piece
        cols = self.coef.T[:, idx]
        b1 = np.zeros_like(s2)
        b2 = np.zeros_like(s2)
        for k in range(len(cols) - 1, 0, -1):
            b1, b2 = cols[k] + s2 * b1 - b2, b1
        return cols[0] + 0.5 * s2 * b1 - b2

    def antideriv(self, anchor=None):
        """The continuous antiderivative that vanishes at `anchor` (by
        default the left end)."""
        half = 0.5 * np.diff(self.edges)
        coef = C.chebint(self.coef, lbnd=-1.0, axis=1) * half[:, None]
        # each piece starts from zero; add the sum of the pieces before it
        totals = np.sum(coef, axis=1)  # each piece's value at its right end
        coef[:, 0] += np.concatenate([[0.0], np.cumsum(totals)[:-1]])
        t0 = self.edges[0] if anchor is None else anchor
        coef[:, 0] -= PiecewiseCheb(self.edges, coef)(t0)
        return PiecewiseCheb(self.edges, coef)
