"""Chebyshev series, one piece on an interval or piecewise on a partition
of one: fitting at Lobatto nodes, evaluation, differentiation, and
antidifferentiation (Clenshaw-Curtis style).

Three kernels stand in for the functions of the same names in numpy's
Chebyshev module, which the package does not import.  Each repeats
numpy's operations in numpy's order, so every value has numpy's bits:
- `chebval` sums a stack of series at every point in `clenshaw`, the one
  recurrence, which a piecewise series runs on each point's own piece;
- `chebder` runs `chebder`'s recurrence on Python floats;
- `chebint` computes `chebint`'s terms as one elementwise expression."""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError

TAIL_TOL = 1e-13      # coefficient-tail tolerance of ChebSeries.adaptive_fit
MIN_N = 128           # its first node count
MAX_N = 4096          # and its last
CUT_REL = np.finfo(float).eps  # relative floor of the coefficients it keeps
DEGREE_REL = 1e-12    # relative coefficient floor of degree_for_tail
PIECE_DEGREE = 32     # degree of every piece of ChebSeries.adaptive_pieces
SUM_BLOCK = 1 << 18   # gathered coefficients a piecewise sum holds at once
MAX_ROUNDS = 40       # its bisection rounds
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


def last_above(c, rel):
    """Index of the last coefficient (along the first axis of c) holding
    an entry above rel * max|c|; 0 when every entry is 0."""
    c = np.abs(c)
    significant = np.nonzero(c > rel * np.max(c))[0]
    return int(significant[-1]) if significant.size else 0


def chebval(x, c):
    """numpy's chebval(x, c), bit for bit: the series along the first axis
    of c (every column of a 2-D c at once) at x, each column at every
    point of an array x."""
    c = np.asarray(c, dtype=float)
    if isinstance(x, np.ndarray):
        c = c.reshape(c.shape + (1,) * x.ndim)
    return clenshaw(x, c)


def clenshaw(x, c):
    """numpy's Clenshaw recurrence elementwise: the series whose
    coefficient k is c[k] at x, where each c[k] broadcasts against x.
    Each step runs on reused flat buffers, the rows of c broadcast 32 at a
    time; a 1-D c (one series at one point) runs on Python floats."""
    n = len(c)
    if n < 3:
        return c[0] + (c[1] if n == 2 else 0) * x
    if c.ndim == 1:
        x = float(x)
        x2 = 2.0 * x
        rows = c.tolist()
        c0, c1 = rows[-2], rows[-1]
        for ck in rows[-3::-1]:
            c0, c1 = ck - c1, c0 + c1 * x2
        return np.float64(c0 + c1 * x)
    shape = np.broadcast_shapes(c.shape[1:], np.shape(x))
    x2, c0, c1, tmp = (np.empty(shape) for _ in range(4))
    np.multiply(2, x, out=x2)
    c0[...] = c[-2]
    c1[...] = c[-1]
    x2, c0, c1, tmp = (a.reshape(-1) for a in (x2, c0, c1, tmp))
    for top in range(n - 2, 0, -32):
        rows = np.ascontiguousarray(np.broadcast_to(
            c[max(top - 32, 0):top], (min(top, 32),) + shape))
        for ck in rows.reshape(len(rows), -1)[::-1]:
            # numpy's step: c0, c1 = ck - c1, c0 + c1 * x2
            np.multiply(c1, x2, out=tmp)
            tmp += c0
            np.subtract(ck, c1, out=c0)
            c1, tmp = tmp, c1
    return c0.reshape(shape) + c1.reshape(shape) * x


def chebder(c):
    """numpy's chebder(c) of a 1-D c, bit for bit: its recurrence from
    the top coefficient down, on Python floats."""
    c = np.asarray(c, dtype=float).tolist()
    n = len(c) - 1
    if n == 0:
        return np.array([c[0] * 0])
    der = [0.0] * n
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j) * c[j]
        c[j - 2] += (j * c[j]) / (j - 2)
    if n > 1:
        der[1] = 4 * c[2]
    der[0] = c[1]
    return np.array(der)


def chebint(c, lbnd):
    """numpy's chebint(c, lbnd=lbnd) along the first axis of c, bit for
    bit.  Term m >= 2 is c[m-1]/(2m) - c[m+1]/(2m), the second part only
    while m+1 < len(c), and term 1 is c[0] - c[2]/2: numpy's loop rounds
    each quotient and each difference once, and so does this one
    elementwise expression.  Term 0 makes the antiderivative vanish at
    lbnd."""
    c = np.asarray(c, dtype=float)
    n = len(c)
    if n == 1 and np.all(c[0] == 0):
        return c + 0.0
    twice_m = 2.0 * np.arange(n + 1).reshape((-1,) + (1,) * (c.ndim - 1))
    out = np.empty((n + 1,) + c.shape[1:])
    out[0] = c[0] * 0
    out[1] = c[0]
    out[2:] = c[1:] / twice_m[2:]
    out[1:n - 1] -= c[2:] / twice_m[1:n - 1]
    out[0] += 0.0 - chebval(lbnd, out)
    return out


@dataclass(frozen=True)
class ChebSeries:
    """A Chebyshev series on each interval between ascending `edges`:
    coef[k, ..., i] is coefficient k of the piece on [edges[i],
    edges[i+1]], and the axes between the first and the last, if any,
    stack several series on the same edges.  Points outside [a, b] are
    summed on the nearest end piece.  A series fitted on one piece keeps
    the values at its ascending Lobatto nodes that it was fitted from
    (`values`)."""

    edges: np.ndarray
    coef: np.ndarray
    values: np.ndarray = field(default=None, repr=False, compare=False)

    a = property(lambda self: float(self.edges[0]))
    b = property(lambda self: float(self.edges[-1]))

    @classmethod
    def fit(cls, f, a, b, n):
        """Interpolate f at n+1 Lobatto nodes on the one piece [a, b]."""
        values = np.asarray(f(lobatto_nodes(n, a, b)), dtype=float)
        return cls(np.array([a, b], dtype=float),
                   values_to_coeffs(values)[:, None], values)

    @classmethod
    def adaptive_fit(cls, f, a, b):
        """Double the node count from MIN_N until the coefficient tail
        drops below TAIL_TOL relative to the largest coefficient; raises
        NumericalError when n reaches MAX_N without passing that test.
        The trailing coefficients that are each at most CUT_REL (machine
        epsilon) times the largest, round-off that would only lengthen
        every sum, are then dropped; at least one is kept, so a function
        that is 0 at every node keeps one zero coefficient.  `values`
        keeps all n+1 fitted values.

        MIN_N is 128 because the fits of delta, r and alpha' end at
        n >= 128 on every route measured (sech at lambda = 20 to 1280,
        exact, expression and finite-difference derivatives), so rounds
        at 16, 32 and 64 nodes only ever failed.  As the rounds are
        nested, the kept coefficients of a fit that ends at n >= 128 are
        the same bit for bit.

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
                keep = last_above(series.coef, CUT_REL) + 1
                return cls(series.edges, series.coef[:keep], series.values)
            if n >= MAX_N:
                raise NumericalError(
                    f"Chebyshev fit did not resolve the function with "
                    f"{MAX_N} nodes")
            n *= 2

    @classmethod
    def adaptive_pieces(cls, f, edges, tol):
        """Interpolate f at PIECE_DEGREE+1 Lobatto nodes on every piece
        between the edges, bisecting each piece whose last PIECE_DEGREE/8
        coefficients exceed tol relative to the largest coefficient."""
        edges = np.asarray(edges, dtype=float)
        for _ in range(MAX_ROUNDS):
            mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
            t = mid[:, None] + half[:, None] * lobatto_nodes(PIECE_DEGREE)
            values = np.asarray(f(t.ravel())).reshape(t.shape)
            coef = np.ascontiguousarray(values_to_coeffs(values).T)
            c = np.abs(coef)
            bad = np.max(c[-(PIECE_DEGREE // 8):], axis=0) > tol * np.max(c)
            if not np.any(bad):
                return cls(edges, coef)
            edges = np.sort(np.append(edges, mid[bad]))
            if len(edges) > MAX_PIECES:
                break
        raise NumericalError("piecewise Chebyshev fit did not resolve the "
                             "function within the bisection budget")

    def __call__(self, t):
        """The series at t: one piece is summed by `chebval`, every
        point of several by `clenshaw` on its own piece's coefficients.
        Those are gathered for the points in equal runs, as few as hold
        at most SUM_BLOCK gathered coefficients (2 MiB) each, so a call
        that fits one run is one `clenshaw` pass."""
        t = np.asarray(t, dtype=float)
        edges = self.edges
        if len(edges) == 2:
            lo, hi = edges
            return chebval((2.0 * t - (lo + hi)) / (hi - lo),
                           self.coef[..., 0])
        run = max(1, SUM_BLOCK // (self.coef.size // (len(edges) - 1)))
        if t.size > run:
            flat, stack = t.ravel(), self.coef.shape[1:-1]
            out = np.empty(stack + flat.shape)
            runs = -(-flat.size // run)
            run = -(-flat.size // runs)
            for start in range(0, flat.size, run):
                out[..., start:start + run] = self(flat[start:start + run])
            return out.reshape(stack + t.shape)
        idx = np.clip(np.searchsorted(edges, t, side="right") - 1,
                      0, len(edges) - 2)
        lo, hi = edges[idx], edges[idx + 1]
        return clenshaw((2.0 * t - (lo + hi)) / (hi - lo),
                        np.take(self.coef, idx, axis=-1))

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
        der = np.stack([chebder(piece) for piece in self.coef.T], axis=1)
        return ChebSeries(self.edges, der * (2.0 / np.diff(self.edges)))

    def antideriv(self, anchor=None):
        """The continuous antiderivative, zero at `anchor` or, without
        one, at the left end.  Each piece's integral is made to vanish at
        its left end, where T_k(-1) = (-1)^k, and is raised by the
        right-end values, where T_k(1) = 1, of the pieces before it."""
        pieces = self.coef.shape[1]
        # a single column keeps chebint's one-point sum on Python floats
        coef = chebint(self.coef[:, 0] if pieces == 1 else self.coef, 0.0)
        coef = coef.reshape(-1, pieces) * (0.5 * np.diff(self.edges))
        coef[0] -= np.sum(coef[0::2], axis=0) - np.sum(coef[1::2], axis=0)
        coef[0, 1:] += np.cumsum(np.sum(coef[:, :-1], axis=0))
        if anchor is not None:
            coef[0] -= ChebSeries(self.edges, coef)(anchor)
        return ChebSeries(self.edges, coef)

    def degree_for_tail(self):
        """Smallest degree beyond which all coefficients are below
        DEGREE_REL * max|coef|."""
        return last_above(self.coef, DEGREE_REL)


def call_together(functions, t):
    """[f(t) for f in functions], with the ChebSeries among them, which
    must share one set of edges, summed in one pass over their
    coefficients stacked along a second axis.  The shorter series are
    padded with zeros; a zero leading coefficient leaves the recurrence
    where it was, so each value has the bits of the series' own call."""
    t = np.asarray(t, dtype=float)
    series = [f for f in functions if isinstance(f, ChebSeries)]
    if not series:
        return [f(t) for f in functions]
    edges = series[0].edges
    if any(not np.array_equal(s.edges, edges) for s in series[1:]):
        raise ValueError("call_together needs its series on one set of "
                         "edges")
    coef = np.zeros((max(len(s.coef) for s in series), len(series),
                     len(edges) - 1))
    for j, s in enumerate(series):
        coef[:len(s.coef), j] = s.coef
    values = iter(ChebSeries(edges, coef)(t))
    return [next(values) if isinstance(f, ChebSeries) else f(t)
            for f in functions]
