"""Periodic spectral representation of functions on a truncated real line.

A function f on R is represented by its samples on the uniform grid
x_j = -L + j*dx over [-L, L), paired with samples of its Fourier transform
at the frequencies xi = m*dxi, |m| <= N/2.  The transform pair
follows the continuous convention

    F(xi) = int exp(-i*x*xi) f(x) dx,
    f(x)  = (1/2pi) int exp(i*x*xi) F(xi) dxi,

discretized by the trapezoidal rule (factor dx on the way out, dxi/2pi on
the way back), so grid samples approximate the continuous integrals
directly and the round trip is exact to round-off.

The space side is real, so its transform is Hermitian, F(-xi) =
conj(F(xi)), and held whole by the nonnegative half xi = m dxi, m = 0 ..
N/2 (the last is the self-paired node -xi_max): the half is the sample.
The centered layout xi_k = (k - N/2)*dxi, k = 0 .. N-1, is its mirror,
built on demand; a centered array given by a caller is checked once,
where its sample is built, for finite values and for that symmetry, and
folded into its half.
Every transform runs on the half kernels `forward_half`/`inverse_half`,
numpy's real FFTs, which `forward` and `inverse` wrap into samples;
`convolve` is their composition.
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
    def _half_scales(self):
        # dx exp(i*L*xi) and exp(i*L*xi)/dx: exp(i*L*xi) = (-1)^m at m*dxi
        phase = np.where(np.arange(self.n_points // 2 + 1) % 2, -1.0, 1.0)
        return self.dx * phase, phase / self.dx


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


class SpectralSample:
    """The transform F of a real function at the grid's frequency nodes,
    held as its nonnegative half `half`, F(m dxi) for m = 0 .. N/2.

    Its centered layout `values`, F at xi_k = (k - N/2) dxi, is the
    half's `mirror`, built on demand.  A sample built from a half
    (`of_half`) is Hermitian by construction.  One built from a centered
    array is refused if a value is not finite (ValueError), then checked
    for symmetry there, within HERMITIAN_RTOL of its largest value
    (SymmetryError otherwise), keeps the array as its
    `values`, and holds the fold whose real series is the array's:
    (F(xi) + conj F(-xi))/2 at 0 < xi < xi_max, and conj F(-xi_max) at
    the self-paired node."""

    def __init__(self, grid, values):
        v = np.asarray(values, dtype=complex)
        if v.shape != (grid.n_points,):
            raise ValueError("values length must equal n_points")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        self.grid, self.__dict__["values"] = grid, v
        _require_hermitian(self)
        n = grid.n_points // 2
        self.half = np.concatenate((v[n:n + 1], 0.5 * (v[n + 1:] + np.conj(
            v[n - 1:0:-1])), np.conj(v[:1])))

    @classmethod
    def of_half(cls, grid, half):
        """The sample whose nonnegative half is `half`."""
        sample = cls.__new__(cls)
        sample.grid, sample.half = grid, half
        return sample

    @cached_property
    def values(self):
        return mirror(self.grid, self.half)


def mirror(grid, half):
    """The centered layout of a Hermitian sample's half, conjugated at
    xi < 0; of a real half, such as moduli, the even function's layout."""
    n = grid.n_points // 2
    return np.concatenate((half[n:], np.conjugate(half[n - 1:0:-1]),
                           half[:n]))


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError("samples live on different grids")


def forward_half(grid, values):
    """numpy's rfft, scaled: the transform of real values at m dxi."""
    return np.fft.rfft(values) * grid._half_scales[0]


def inverse_half(grid, half):
    """numpy's irfft, scaled: the real values whose transform's nonnegative
    half is `half`; its imaginary parts at 0 and xi_max do not enter."""
    return np.fft.irfft(half * grid._half_scales[1], n=grid.n_points)


def forward(f):
    """Discrete Fourier transform of a real sample, matching the
    continuous convention F(xi) = int exp(-i x xi) f(x) dx."""
    return SpectralSample.of_half(f.grid, forward_half(f.grid, f.values))


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
    """Inverse transform of a sample, returning the real space-domain
    sample: the inverse real FFT of its half."""
    return RealSample(F.grid, inverse_half(F.grid, F.half))


def convolve(F, G):
    """(1/2pi) (F * G) computed as forward(inverse(F) . inverse(G)).

    Matches the transform-of-a-product convention; commutative to
    round-off.  The space-side route keeps the cost at O(N log N) and
    runs on the halves of F and G."""
    _require_same_grid(F, G)
    return forward(RealSample(F.grid, inverse(F).values * inverse(G).values))


def l1_norm(F):
    """Discrete L1 norm dxi * sum |F_k| of a frequency sample, summed over
    the centered grid in its order from |F| on the half."""
    return float(F.grid.dxi * np.sum(mirror(F.grid, np.abs(F.half))))


def linf_norm(f):
    """Max norm of a space sample."""
    return float(np.max(np.abs(f.values)))
