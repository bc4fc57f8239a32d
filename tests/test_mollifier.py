import numpy as np
import pytest
from scipy.integrate import quad

from nophase.mollifier import (NORMALIZATION, mollifier, mollifier_deriv,
                               smooth_step, smooth_step_deriv,
                               smooth_step_deriv2)


class TestMollifier:
    def test_support(self):
        u = np.array([-2.0, -1.0, 1.0, 3.0])
        assert np.all(mollifier(u) == 0.0)
        assert np.all(mollifier_deriv(u) == 0.0)

    def test_peak(self):
        assert mollifier(np.array([0.0]))[0] == pytest.approx(np.exp(-1.0))

    def test_symmetry(self):
        u = np.linspace(-0.99, 0.99, 31)
        assert np.max(np.abs(mollifier(u) - mollifier(-u))) == 0.0

    def test_normalization_value(self):
        # independent check on a fine trapezoid rule
        u = np.linspace(-1.0, 1.0, 200001)
        assert NORMALIZATION == pytest.approx(
            np.trapezoid(mollifier(u), u), abs=1e-10)


class TestSmoothStep:
    def test_exact_ends(self):
        assert smooth_step(-1.0) == 0.0
        assert smooth_step(1.0) == 1.0
        assert smooth_step(-5.0) == 0.0
        assert smooth_step(7.0) == 1.0

    def test_midpoint(self):
        assert smooth_step(0.0) == pytest.approx(0.5, abs=1e-13)

    def test_matches_direct_quadrature(self):
        tol = dict(epsabs=1e-15, epsrel=1e-13)
        norm = quad(mollifier, -1.0, 1.0, **tol)[0]
        for u in np.linspace(-0.97, 0.97, 17):
            ref = quad(mollifier, -1.0, u, **tol)[0] / norm
            assert smooth_step(u) == pytest.approx(ref, abs=5e-14)

    def test_monotone_and_bounded(self):
        u = np.linspace(-1.2, 1.2, 2001)
        s = smooth_step(u)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)
        assert np.all(np.diff(s) >= -1e-15)

    def test_derivative_consistency(self):
        u = np.linspace(-0.9, 0.9, 19)
        h = 1e-6
        fd = (smooth_step(u + h) - smooth_step(u - h)) / (2.0 * h)
        assert np.max(np.abs(fd - smooth_step_deriv(u))) <= 1e-8

    def test_second_derivative_consistency(self):
        u = np.linspace(-0.9, 0.9, 19)
        h = 1e-5
        fd = (smooth_step_deriv(u + h) - smooth_step_deriv(u - h)) / (2.0 * h)
        assert np.max(np.abs(fd - smooth_step_deriv2(u))) <= 1e-7
