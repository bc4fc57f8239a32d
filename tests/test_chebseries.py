import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.fft import dct

import nophase
from nophase.chebseries import (ChebSeries, PiecewiseCheb, lobatto_nodes,
                                values_to_coeffs)
from nophase.errors import NumericalError


def test_values_to_coeffs_is_the_type1_dct(rng):
    values = rng.standard_normal((3, 33))
    ref = dct(values[:, ::-1], type=1, axis=-1) / 32
    ref[:, 0] *= 0.5
    ref[:, -1] *= 0.5
    np.testing.assert_array_equal(values_to_coeffs(values), ref)


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(nophase.__file__))
    code = ("import sys, nophase; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


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

    def test_each_final_node_evaluated_once(self):
        seen = []

        def f(t):
            seen.append(np.array(t))
            return 1.0 / (1.0 + 25.0 * t * t)

        series = ChebSeries.adaptive_fit(f, -1.0, 2.0)
        n = len(series.coef) - 1
        assert len(seen) > 2
        np.testing.assert_array_equal(np.sort(np.concatenate(seen)),
                                      lobatto_nodes(n, -1.0, 2.0))
        # and the fit is the one-shot fit at the final nodes
        np.testing.assert_array_equal(series.coef,
                                      ChebSeries.fit(f, -1.0, 2.0, n).coef)
