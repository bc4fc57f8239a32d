import numpy as np
import pytest

from helpers import exp1_star, exp2_star_series, zeros_spectral
from nophase.convexp import exp2_star
from nophase.errors import MagnitudeError
from nophase.grid import (RealSample, SpectralGrid, forward, inverse, l1_norm,
                          linf_norm)

TWO_PI = 2.0 * np.pi


def random_band_limited(grid, rng, target_l1):
    """Hermitian sample with prescribed discrete L1 norm, from a random
    smooth real function."""
    f = np.exp(-grid.x ** 2) * rng.standard_normal(grid.n_points)
    F = forward(RealSample(grid, f))
    scale = target_l1 / l1_norm(F)
    return forward(RealSample(grid, scale * f))


class TestExp1Star:
    def test_zero(self):
        grid = SpectralGrid(8.0, 64)
        out = exp1_star(zeros_spectral(grid))
        assert np.all(out.values == 0.0)

    def test_linearization_at_tiny_amplitude(self):
        grid = SpectralGrid(16.0, 256)
        f = 1e-8 * np.exp(-grid.x ** 2 / 2.0)
        Psi = forward(RealSample(grid, f))
        out = exp1_star(Psi)
        big = np.abs(Psi.values) > 1e-3 * np.max(np.abs(Psi.values))
        rel = np.abs(out.values[big] - Psi.values[big]) \
            / np.abs(Psi.values[big])
        assert np.max(rel) <= 1e-7

    def test_matches_series(self, rng):
        grid = SpectralGrid(6.0, 64)
        Psi = random_band_limited(grid, rng, 0.5)
        series = exp2_star_series(Psi, 20)
        ref = Psi.values + series.values
        assert np.max(np.abs(exp1_star(Psi).values - ref)) <= 1e-12

    def test_overflow_guard(self):
        grid = SpectralGrid(8.0, 64)
        Psi = forward(RealSample(grid, np.full(64, 800.0)))
        with pytest.raises(MagnitudeError):
            exp1_star(Psi)


class TestExp2Star:
    def test_zero(self):
        grid = SpectralGrid(8.0, 64)
        assert np.all(exp2_star(zeros_spectral(grid)).values == 0.0)

    def test_identity_with_exp1(self, rng):
        grid = SpectralGrid(8.0, 128)
        Psi = random_band_limited(grid, rng, 1.0)
        lhs = exp1_star(Psi).values - Psi.values
        rhs = exp2_star(Psi).values
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * max(scale, 1.0)

    def test_l1_bound(self, rng):
        grid = SpectralGrid(8.0, 128)
        for _ in range(100):
            Psi = random_band_limited(grid, rng, rng.uniform(0.05, 2.0))
            l1 = l1_norm(Psi)
            bound = l1 ** 2 / (2.0 * TWO_PI) * np.exp(l1 / TWO_PI)
            assert l1_norm(exp2_star(Psi)) <= bound + 1e-10

    def test_schwartz_decay_preserved(self, rng):
        grid = SpectralGrid(16.0, 256)
        f = np.exp(-grid.x ** 2)  # decays below 1e-13 well inside |x| > L/2
        Psi = forward(RealSample(grid, f))
        tail = np.abs(grid.x) > grid.half_width / 2.0
        assert np.max(np.abs(f[tail])) < 1e-13
        g = inverse(exp2_star(Psi))
        assert np.max(np.abs(g.values[tail])) < 1e-12


class TestSeriesOracle:
    def test_zero(self):
        grid = SpectralGrid(8.0, 64)
        for n in (2, 5, 20):
            assert np.all(exp2_star_series(zeros_spectral(grid), n).values
                          == 0.0)

    def test_truncation_tail_bound(self, rng):
        grid = SpectralGrid(6.0, 64)
        Psi = random_band_limited(grid, rng, 0.1)
        l1 = l1_norm(Psi)
        two_terms = exp2_star_series(Psi, 2)
        diff = l1_norm(
            type(two_terms)(grid, exp2_star(Psi).values - two_terms.values))
        bound = l1 ** 3 / (6.0 * TWO_PI ** 2) * np.exp(l1 / TWO_PI)
        assert diff <= bound + 1e-13

    def test_agrees_with_fast_path(self, rng):
        grid = SpectralGrid(6.0, 64)
        Psi = random_band_limited(grid, rng, 0.8)
        ref = exp2_star(Psi)
        got = exp2_star_series(Psi, 20)
        assert np.max(np.abs(got.values - ref.values)) <= 1e-12

    def test_monotone_convergence(self, rng):
        grid = SpectralGrid(6.0, 64)
        Psi = random_band_limited(grid, rng, 1.0)
        ref = exp2_star(Psi)
        errs = []
        for n in range(2, 12):
            s = exp2_star_series(Psi, n)
            errs.append(l1_norm(type(s)(grid, s.values - ref.values)))
        for a, b in zip(errs[:-1], errs[1:]):
            assert b <= a + 1e-13

    def test_guards(self, rng):
        grid = SpectralGrid(6.0, 64)
        Psi = random_band_limited(grid, rng, 0.5)
        with pytest.raises(ValueError):
            exp2_star_series(Psi, 31)
        big = SpectralGrid(6.0, 512)
        with pytest.raises(ValueError):
            exp2_star_series(zeros_spectral(big), 5)
