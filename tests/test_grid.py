import numpy as np
import pytest

from nophase.errors import GridMismatchError, SymmetryError
from helpers import zeros_spectral
from nophase.grid import (RealSample, SpectralGrid, SpectralSample, convolve,
                          forward, hermitian_defect, inverse, l1_norm,
                          linf_norm, mirror)


def gaussian_sample(grid):
    return RealSample(grid, np.exp(-grid.x ** 2 / 2.0))


def direct_forward(grid, values):
    """O(N^2) reference for the forward transform."""
    x, xi = grid.x, grid.xi
    return grid.dx * np.exp(-1j * np.outer(xi, x)).dot(values)


def direct_inverse(grid, values):
    """O(N^2) reference for the inverse transform, complex result."""
    x, xi = grid.x, grid.xi
    return grid.dxi / (2.0 * np.pi) * np.exp(1j * np.outer(x, xi)).dot(values)


def hermitian_sample(grid, rng, at_minus_xi_max):
    """Random values at xi > 0 with their conjugates at -xi, a real value
    at xi = 0, and the given real value at the self-paired -xi_max."""
    n, half = grid.n_points, grid.n_points // 2
    pos = rng.standard_normal(half - 1) + 1j * rng.standard_normal(half - 1)
    vals = np.empty(n, dtype=complex)
    vals[half + 1:] = pos
    vals[1:half] = np.conj(pos[::-1])
    vals[half] = rng.standard_normal()
    vals[0] = at_minus_xi_max
    return SpectralSample(grid, vals)


def direct_convolve(grid, F, G):
    """(dxi/2pi) * cyclic sum_m F[k + N/2 - m] G[m]; the N/2 offset comes
    from the centered index convention xi_k = (k - N/2) dxi."""
    n = grid.n_points
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        idx = (k + n // 2 - np.arange(n)) % n
        out[k] = np.sum(F[idx] * G)
    return out * grid.dxi / (2.0 * np.pi)


class TestSpectralGrid:
    def test_duality(self):
        grid = SpectralGrid(16.0, 256)
        assert grid.dx * grid.dxi * grid.n_points == pytest.approx(2.0 * np.pi)

    def test_nodes(self):
        grid = SpectralGrid(8.0, 64)
        assert grid.x[0] == -8.0
        assert grid.x[1] - grid.x[0] == pytest.approx(grid.dx)
        assert grid.xi[32] == 0.0
        assert grid.xi[0] == pytest.approx(-grid.xi_max)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            SpectralGrid(8.0, 100)
        with pytest.raises(ValueError):
            SpectralGrid(8.0, 8)
        with pytest.raises(ValueError):
            SpectralGrid(-1.0, 64)


class TestForward:
    def test_gaussian_closed_form(self):
        grid = SpectralGrid(32.0, 1024)
        F = forward(gaussian_sample(grid))
        exact = np.sqrt(2.0 * np.pi) * np.exp(-grid.xi ** 2 / 2.0)
        assert np.max(np.abs(F.values - exact)) <= 1e-12

    def test_zero(self):
        grid = SpectralGrid(8.0, 64)
        F = forward(RealSample(grid, np.zeros(64)))
        assert np.all(F.values == 0.0)

    def test_cosine_spikes(self):
        # periodic cos(x) concentrates at xi = +-1 with mass L
        grid = SpectralGrid(4.0 * np.pi, 64)
        F = forward(RealSample(grid, np.cos(grid.x)))
        at_one = np.argmin(np.abs(grid.xi - 1.0))
        assert F.values[at_one].real == pytest.approx(grid.half_width,
                                                      rel=1e-12)
        mask = np.abs(np.abs(grid.xi) - 1.0) > 1e-9
        assert np.max(np.abs(F.values[mask])) <= 1e-10

    def test_matches_direct_summation(self, rng):
        grid = SpectralGrid(5.0, 64)
        vals = rng.standard_normal(64)
        F = forward(RealSample(grid, vals))
        ref = direct_forward(grid, vals)
        assert np.max(np.abs(F.values - ref)) <= 1e-10

    @pytest.mark.parametrize("n", [16, 64])
    def test_matches_direct_sums_at_minus_xi_max(self, rng, n):
        # (-1)^j puts a real value at the self-paired node -xi_max, the
        # real FFT's last entry, which the mirror must place at index 0
        grid = SpectralGrid(5.0, n)
        vals = rng.standard_normal(n) + 2.0 * (-1.0) ** np.arange(n)
        F = forward(RealSample(grid, vals))
        ref = direct_forward(grid, vals)
        assert abs(ref[0]) > 1.0 and F.values[0].imag == 0.0
        assert np.max(np.abs(F.values - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_hermitian_to_roundoff(self, rng):
        grid = SpectralGrid(10.0, 128)
        F = forward(RealSample(grid, rng.standard_normal(128)))
        assert hermitian_defect(F) <= 1e-12 * np.max(np.abs(F.values))


class TestSpectralSample:
    @pytest.mark.parametrize("L, n", [(5.0, 16), (8.0, 256), (21.1, 8192)])
    def test_view_of_a_half_is_the_centered_transform(self, rng, L, n):
        # the centered layout the transform was stored in: numpy's real
        # FFT scaled by dx (-1)^m, conjugated onto xi < 0, and the
        # self-paired -xi_max from its last entry
        grid = SpectralGrid(L, n)
        f = rng.standard_normal(n)
        half = np.fft.rfft(f) * (grid.dx * (-1.0) ** np.arange(n // 2 + 1))
        ref = np.concatenate((half[n // 2:], np.conj(half[n // 2 - 1:0:-1]),
                              half[:n // 2]))
        F = forward(RealSample(grid, f))
        assert F.half.shape == (n // 2 + 1,)
        assert F.values.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_hermitian_array_gives_back_its_half(self, rng, n):
        grid = SpectralGrid(5.0, n)
        F = hermitian_sample(grid, rng, at_minus_xi_max=1.5)
        np.testing.assert_array_equal(
            F.half, np.concatenate((F.values[n // 2:], F.values[:1])))

    def test_array_is_its_own_view(self, rng):
        # the caller's bits, -0.0 included, not the mirror of the fold
        grid = SpectralGrid(5.0, 64)
        values = hermitian_sample(grid, rng, at_minus_xi_max=-0.0).values
        F = SpectralSample(grid, values)
        assert F.values.tobytes() == values.tobytes()
        assert F.values.tobytes() != mirror(grid, F.half).tobytes()

    def test_anti_hermitian_array_refused(self):
        # F(-xi) = -conj F(xi) folds to a near-zero half: l1_norm of
        # that fold reads 4.93, where dxi sum |F| is 157.9
        grid = SpectralGrid(8.0, 64)
        with pytest.raises(SymmetryError):
            SpectralSample(grid, grid.xi.astype(complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)])
    def test_non_finite_array_refused(self, rng, bad):
        # a NaN defect compares False against the symmetry tolerance, and
        # an infinite one is not above inf times it: refused by name first
        grid = SpectralGrid(5.0, 64)
        values = hermitian_sample(grid, rng, 1.5).values.copy()
        values[grid.n_points // 2] = bad
        with pytest.raises(ValueError, match="values must be finite"):
            SpectralSample(grid, values)


class TestInverse:
    def test_round_trip(self, rng):
        grid = SpectralGrid(20.0, 512)
        f = np.exp(-grid.x ** 2) * np.cos(3.0 * grid.x)
        back = inverse(forward(RealSample(grid, f)))
        assert np.max(np.abs(back.values - f)) <= 1e-13 * np.max(np.abs(f))

    def test_zero(self):
        grid = SpectralGrid(8.0, 64)
        assert np.all(inverse(zeros_spectral(grid)).values == 0.0)

    def test_gaussian(self):
        grid = SpectralGrid(32.0, 1024)
        f = gaussian_sample(grid)
        back = inverse(forward(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12

    @pytest.mark.parametrize("n", [16, 64, 1024])
    def test_matches_direct_sums_at_minus_xi_max(self, rng, n):
        grid = SpectralGrid(5.0, n)
        F = hermitian_sample(grid, rng, at_minus_xi_max=1.5)
        ref = direct_inverse(grid, F.values)
        assert np.max(np.abs(ref.imag)) <= 1e-13 * np.max(np.abs(ref))
        got = inverse(F).values
        assert np.max(np.abs(got - ref.real)) <= 1e-13 * np.max(np.abs(ref))
        # the value at -xi_max enters as its (-1)^j mode
        G = SpectralSample(grid, np.where(np.arange(n) == 0, 1.5, 0.0))
        np.testing.assert_allclose(
            inverse(G).values,
            1.5 * grid.dxi / (2.0 * np.pi) * (-1.0) ** (np.arange(n) + n // 2),
            rtol=1e-14, atol=0.0)

    def test_rejects_asymmetric(self):
        grid = SpectralGrid(8.0, 64)
        vals = np.zeros(64, dtype=complex)
        vals[40] = 1.0  # no conjugate partner
        with pytest.raises(SymmetryError):
            inverse(SpectralSample(grid, vals))


class TestPlancherel:
    def test_parseval_identity(self, rng):
        grid = SpectralGrid(16.0, 256)
        f = np.exp(-grid.x ** 2 / 3.0) * rng.standard_normal(256)
        F = forward(RealSample(grid, f))
        space = grid.dx * np.sum(f ** 2)
        freq = grid.dxi / (2.0 * np.pi) * np.sum(np.abs(F.values) ** 2)
        assert space == pytest.approx(freq, rel=1e-10)


class TestConvolve:
    def test_gaussian_squared(self):
        # transform of g^2 where g is the unit Gaussian
        grid = SpectralGrid(32.0, 1024)
        F = forward(gaussian_sample(grid))
        C = convolve(F, F)
        exact = np.sqrt(np.pi) * np.exp(-grid.xi ** 2 / 4.0)
        assert np.max(np.abs(C.values - exact)) <= 1e-11

    def test_zero_annihilates(self, rng):
        grid = SpectralGrid(8.0, 64)
        F = forward(RealSample(grid, rng.standard_normal(64)))
        C = convolve(F, zeros_spectral(grid))
        assert np.all(C.values == 0.0)

    def test_matches_direct_sum(self, rng):
        grid = SpectralGrid(6.0, 32)
        F = forward(RealSample(grid, rng.standard_normal(32)))
        G = forward(RealSample(grid, rng.standard_normal(32)))
        ref = direct_convolve(grid, F.values, G.values)
        assert np.max(np.abs(convolve(F, G).values - ref)) <= 1e-10

    def test_commutative(self, rng):
        grid = SpectralGrid(6.0, 64)
        F = forward(RealSample(grid, rng.standard_normal(64)))
        G = forward(RealSample(grid, rng.standard_normal(64)))
        assert np.max(np.abs(convolve(F, G).values
                             - convolve(G, F).values)) <= 1e-12

    def test_grid_mismatch(self, rng):
        F = forward(RealSample(SpectralGrid(6.0, 64),
                               rng.standard_normal(64)))
        G = forward(RealSample(SpectralGrid(8.0, 64),
                               rng.standard_normal(64)))
        with pytest.raises(GridMismatchError):
            convolve(F, G)

    def test_rejects_asymmetric(self, rng):
        grid = SpectralGrid(6.0, 64)
        F = forward(RealSample(grid, rng.standard_normal(64)))
        odd = F.values.copy()
        odd[40] += 1.0  # no conjugate partner
        with pytest.raises(SymmetryError):  # where the sample is built
            SpectralSample(grid, odd)

    def test_young_inequality(self, rng):
        grid = SpectralGrid(10.0, 128)
        for _ in range(20):
            F = forward(RealSample(grid, np.exp(-grid.x ** 2)
                                   * rng.standard_normal(128)))
            G = forward(RealSample(grid, np.exp(-grid.x ** 2)
                                   * rng.standard_normal(128)))
            lhs = l1_norm(convolve(F, G))
            rhs = l1_norm(F) * l1_norm(G) / (2.0 * np.pi)
            assert lhs <= rhs + 1e-10


class TestNorms:
    def test_zero(self):
        grid = SpectralGrid(8.0, 64)
        assert l1_norm(zeros_spectral(grid)) == 0.0

    def test_exponential_l1(self):
        grid = SpectralGrid(2000.0, 65536)
        F = SpectralSample(grid, np.exp(-np.abs(grid.xi)).astype(complex))
        assert abs(l1_norm(F) - 2.0) <= 1e-6

    def test_linf_constant(self):
        grid = SpectralGrid(8.0, 64)
        assert linf_norm(RealSample(grid, np.full(64, -3.5))) == 3.5
