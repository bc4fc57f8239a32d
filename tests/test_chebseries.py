import numpy as np
import pytest

from nophase.chebseries import ChebSeries, PiecewiseCheb
from nophase.errors import NumericalError


class TestPiecewiseCheb:
    def test_kinked_function_converges_by_bisection(self):
        f = lambda t: np.abs(t) ** 3
        # the kink at 0 is never a bisection point of [-1, 2]
        pc = PiecewiseCheb.adaptive_fit(f, [-1.0, 2.0], tol=1e-13)
        assert len(pc.edges) > 2
        t = np.linspace(-1.0, 2.0, 3001)
        assert np.max(np.abs(pc(t) - f(t))) <= 1e-12 * np.max(f(t))

    def test_antiderivative_continuous_and_exact(self):
        pc = PiecewiseCheb.adaptive_fit(lambda t: np.abs(t) ** 3,
                                        [-1.0, 2.0], tol=1e-13)
        anti = pc.antideriv(anchor=0.0, value=0.5)
        t = np.linspace(-1.0, 2.0, 3001)
        exact = 0.5 + np.sign(t) * t ** 4 / 4.0
        assert np.max(np.abs(anti(t) - exact)) <= 1e-13
        # each piece's right end meets the next piece's left end
        inner = anti.edges[1:-1]
        right_ends = np.polynomial.chebyshev.chebval(1.0, anti.coef[:-1].T)
        assert np.max(np.abs(right_ends - anti(inner))) <= 1e-15

    def test_unresolvable_input_raises(self):
        with pytest.raises(NumericalError):
            PiecewiseCheb.adaptive_fit(np.sign, [-1.0, 2.0])


class TestChebSeries:
    def test_unresolved_fit_raises(self):
        # the kink at 0 keeps the tail near 1/n^2 at every n up to max_n
        with pytest.raises(NumericalError):
            ChebSeries.adaptive_fit(np.abs, -1.0, 1.0)
