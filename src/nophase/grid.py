"""Periodic spectral representation of functions on a truncated real line.

A function f on R is represented by its samples on the uniform grid
x_j = -L + j*dx over [-L, L), paired with samples of its Fourier transform
on the centered frequency grid xi_k = (k - N/2)*dxi.  The transform pair
follows the continuous convention

    F(xi) = int exp(-i*x*xi) f(x) dx,
    f(x)  = (1/2pi) int exp(i*x*xi) F(xi) dxi,

discretized by the trapezoidal rule (factor dx on the way out, dxi/2pi on
the way back), so grid samples approximate the continuous integrals
directly and the round trip is exact to round-off.

The space side is real, so its transform is Hermitian, F(-xi) =
conj(F(xi)).  Every transform runs on the one pair `forward`/`inverse`,
numpy's real FFTs, which hold only the nonnegative half
xi = 0 .. N/2 dxi (the last of these is the self-paired node -xi_max),
mirrored into the centered layout; `convolve` is their composition.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, SymmetryError

HERMITIAN_RTOL = 1e-10


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodic grid on [-L, L) with its dual frequency grid."""

    half_width: float
    n_points: int

    def __post_init__(self):
        n = self.n_points
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError("n_points must be a power of two and >= 16")
        if not (self.half_width > 0):
            raise ValueError("half_width must be positive")

    @property
    def dx(self):
        return 2.0 * self.half_width / self.n_points

    @property
    def dxi(self):
        return np.pi / self.half_width

    @property
    def xi_max(self):
        return np.pi / self.dx

    @cached_property
    def x(self):
        j = np.arange(self.n_points)
        return -self.half_width + j * self.dx

    @cached_property
    def xi(self):
        k = np.arange(self.n_points)
        return (k - self.n_points // 2) * self.dxi

    @cached_property
    def _half_phase(self):
        # exp(i*L*xi) = (-1)^m at the real FFT's xi = m*dxi, m = 0..N/2
        m = np.arange(self.n_points // 2 + 1)
        return np.where(m % 2 == 0, 1.0, -1.0)


@dataclass(frozen=True)
class RealSample:
    """Real-valued space-domain samples at the grid's space nodes."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise ValueError("values length must equal n_points")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class SpectralSample:
    """Complex frequency-domain samples at the grid's frequency nodes."""

    grid: SpectralGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n_points,):
            raise ValueError("values length must equal n_points")
        object.__setattr__(self, "values", v)


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("samples live on different grids")


def forward(f):
    """Discrete Fourier transform of a real sample, matching the
    continuous convention F(xi) = int exp(-i x xi) f(x) dx.

    The real FFT gives xi = m dxi for m = 0 .. N/2: m < N/2 fills the
    centered indices N/2 .. N-1, m = N/2 is the self-paired index 0
    (-xi_max), and indices 1 .. N/2-1 are the conjugates of m = N/2-1
    down to 1."""
    grid = f.grid
    half = grid.n_points // 2
    pos = np.fft.rfft(f.values) * (grid.dx * grid._half_phase)
    vals = np.empty(grid.n_points, dtype=complex)
    vals[half:] = pos[:half]
    vals[0] = pos[half]
    np.conjugate(pos[half - 1:0:-1], out=vals[1:half])
    return SpectralSample(grid, vals)


def hermitian_defect(F):
    """Max absolute deviation from Hermitian symmetry F(-xi) = conj(F(xi))."""
    v, half = F.values, F.grid.n_points // 2
    # xi[k] pairs with xi[N-k] for k = 1..N-1, and both orders of a pair
    # give the same |difference|, so k = 1..N/2 covers them; xi[0] =
    # -xi_max is self-paired through periodicity and must be real.
    defect = np.max(np.abs(v[1:half + 1] - np.conj(v[:half - 1:-1])))
    return max(defect, abs(v[0].imag))


def _require_hermitian(F):
    """SymmetryError unless F's symmetry defect is within HERMITIAN_RTOL
    of its largest value."""
    scale = np.max(np.abs(F.values))
    if hermitian_defect(F) > HERMITIAN_RTOL * scale:
        raise SymmetryError(
            "frequency sample is not Hermitian-symmetric within tolerance"
        )


def inverse(F):
    """Inverse transform of a Hermitian-symmetric sample, returning the
    real space-domain sample.  Rejects inputs whose symmetry defect
    exceeds HERMITIAN_RTOL relative to the largest value.

    The inverse real FFT reads the nonnegative half xi = m dxi,
    m = 0 .. N/2: the centered indices N/2 .. N-1, then index 0 (-xi_max)
    as m = N/2.  It takes the half's mirror image as the negative
    frequencies, so the imaginary parts of the self-paired values at 0
    and -xi_max, and the asymmetry the check allows, do not enter."""
    _require_hermitian(F)
    grid = F.grid
    half = grid.n_points // 2
    pos = np.concatenate((F.values[half:], F.values[:1])) \
        * (grid._half_phase / grid.dx)
    return RealSample(grid, np.fft.irfft(pos, n=grid.n_points))


def convolve(F, G):
    """(1/2pi) (F * G) computed as forward(inverse(F) . inverse(G)).

    Matches the transform-of-a-product convention; commutative to
    round-off.  The space-side route keeps the cost at O(N log N).
    Like `inverse`, it requires Hermitian-symmetric F and G."""
    _require_same_grid(F, G)
    return forward(RealSample(F.grid, inverse(F).values * inverse(G).values))


def l1_norm(F):
    """Discrete L1 norm dxi * sum |F_k| of a frequency sample."""
    return float(F.grid.dxi * np.sum(np.abs(F.values)))


def linf_norm(f):
    """Max norm of a space sample."""
    return float(np.max(np.abs(f.values)))
