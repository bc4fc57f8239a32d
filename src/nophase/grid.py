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
conj(F(xi)): `forward` and `inverse` run on numpy's real FFTs, which hold
only the nonnegative half xi = 0 .. N/2 dxi (the last of these is the
self-paired node -xi_max), and mirror it into the centered layout.
`inverse_pair` takes two real functions through one complex FFT, as
their real and imaginary parts (Press et al., Numerical Recipes, 12.3).
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
    def _phase(self):
        # exp(i*L*xi_k) = (-1)^(k - N/2), kept exactly real
        k = np.arange(self.n_points) - self.n_points // 2
        return np.where(k % 2 == 0, 1.0, -1.0)

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

    @cached_property
    def support_radius(self):
        """Largest |xi| at a nonzero value, 0 for the zero sample."""
        nz = np.abs(self.values) > 0.0
        return float(np.max(np.abs(self.grid.xi[nz]))) if np.any(nz) else 0.0


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("samples live on different grids")


def _to_freq(grid, space_values):
    """dx * sum_j exp(-i x_j xi_k) v_j, for complex space values."""
    fft = np.fft.fftshift(np.fft.fft(space_values))
    return grid.dx * grid._phase * fft


def _to_space(grid, freq_values):
    """(dxi/2pi) * sum_k exp(i x_j xi_k) F_k, complex result.

    As N/2 is even, exp(i x_j xi_k) = (-1)^j (-1)^k e^{2 pi i j k/N}, and
    the (-1)^k shifts the inverse FFT by N/2: the value at x_j is
    (-1)^j/dx times ifft(F) at j + N/2 (mod N), scaled as it is rolled."""
    half = grid.n_points // 2
    space = np.fft.ifft(freq_values)
    scale = grid._phase[:half] / grid.dx
    out = np.empty_like(space)
    np.multiply(space[half:], scale, out=out[:half])
    np.multiply(space[:half], scale, out=out[half:])
    return out


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


def symmetrize(F):
    """Project onto the Hermitian-symmetric subspace, F(-xi) = conj(F(xi)).

    Intended for samples that are Hermitian by construction but carry
    round-off asymmetry at an absolute scale set by larger intermediate
    quantities (e.g. small differences of transforms)."""
    v = F.values.copy()
    v[1:] = 0.5 * (v[1:] + np.conj(v[1:][::-1]))
    v[0] = v[0].real
    return SpectralSample(F.grid, v)


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


def inverse_pair(F, G):
    """The real space samples (f, g) of two Hermitian-symmetric samples
    on one grid, from one complex inverse FFT of F + iG: f and g are
    real, so they are its real and imaginary parts.  Each input passes
    `inverse`'s symmetry check."""
    _require_same_grid(F, G)
    _require_hermitian(F)
    _require_hermitian(G)
    space = _to_space(F.grid, F.values + 1j * G.values)
    return RealSample(F.grid, space.real), RealSample(F.grid, space.imag)


def convolve(F, G):
    """(1/2pi) (F * G) computed as forward(inverse(F) . inverse(G)).

    Matches the transform-of-a-product convention; commutative to
    round-off.  The space-side route keeps the cost at O(N log N).
    It runs on complex FFTs, so F and G need not be Hermitian; the
    tests take it as the reference for the fixed-point map's
    quadratic term."""
    _require_same_grid(F, G)
    f = _to_space(F.grid, F.values)
    g = _to_space(G.grid, G.values)
    return SpectralSample(F.grid, _to_freq(F.grid, f * g))


def l1_norm(F):
    """Discrete L1 norm dxi * sum |F_k| of a frequency sample."""
    return float(F.grid.dxi * np.sum(np.abs(F.values)))


def linf_norm(f):
    """Max norm of a space sample."""
    return float(np.max(np.abs(f.values)))
