import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C
from scipy.fft import dct

import nophase
import nophase.chebseries
from conftest import make_sech_coefficient
from helpers import unblocked_sum
from nophase.chebseries import (PIECE_DEGREE, SUM_BLOCK, ChebSeries,
                                call_together, chebder, chebint, chebval,
                                clenshaw, last_above, lobatto_nodes,
                                values_to_coeffs)
from nophase.errors import NumericalError
from nophase.problem import build_map

LENGTHS = range(1, 301)  # coefficient counts the kernels are checked at


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


class TestKernels:
    # each kernel against numpy.polynomial.chebyshev, bit for bit

    @pytest.mark.parametrize("x", [np.array(0.37), -0.81, np.float64(1.0),
                                   np.linspace(-1.2, 1.2, 17),
                                   np.linspace(-1.0, 1.0, 12).reshape(3, 4)],
                             ids=["0-d", "float", "float64", "1-D", "2-D"])
    def test_chebval(self, rng, x):
        for n in LENGTHS:
            for c in (rng.standard_normal(n), rng.standard_normal((n, 3))):
                got, want = chebval(x, c), C.chebval(x, c)
                np.testing.assert_array_equal(got, want)
                assert np.shape(got) == np.shape(want)

    def test_clenshaw_stacks_and_gathers(self, rng):
        # rows are broadcast in blocks: a stack longer than one block, a
        # broadcast (n, S, 1) stack and a gathered (n, P) one, bit for bit
        x = np.linspace(-1.0, 1.0, 400)
        long = rng.standard_normal((2049, 3))
        np.testing.assert_array_equal(chebval(x, long), C.chebval(x, long))
        for n in (3, 32, 33, 34, 65, 129):
            stack = rng.standard_normal((n, 3, 1))
            np.testing.assert_array_equal(clenshaw(x, stack),
                                          C.chebval(x, stack[..., 0]))
            gathered = rng.standard_normal((n, 400))
            np.testing.assert_array_equal(
                clenshaw(x, gathered), C.chebval(x, gathered, tensor=False))

    def test_chebval_keeps_signed_zeros(self):
        for c in ([-0.0], [-0.0, 0.0], [-0.0, 0.0, 0.0]):
            for x in (-0.5, np.array([-0.5, 0.5])):
                np.testing.assert_array_equal(np.signbit(chebval(x, c)),
                                              np.signbit(C.chebval(x, c)))

    def test_chebder(self, rng):
        for n in LENGTHS:
            c = rng.standard_normal(n)
            np.testing.assert_array_equal(chebder(c), C.chebder(c))

    @pytest.mark.parametrize("lbnd", [0.0, -1.0])
    def test_chebint(self, rng, lbnd):
        for n in LENGTHS:
            c = rng.standard_normal(n)
            np.testing.assert_array_equal(chebint(c, lbnd),
                                          C.chebint(c, lbnd=lbnd))
            c = rng.standard_normal((n, 5))
            np.testing.assert_array_equal(chebint(c, lbnd),
                                          C.chebint(c, lbnd=lbnd, axis=0))
        for c in ([0.0], [-0.0], np.zeros((1, 3))):
            np.testing.assert_array_equal(chebint(c, lbnd),
                                          C.chebint(c, lbnd=lbnd))

    def test_piecewise_sum_bit_identical(self, rng):
        # three series on one set of edges, one of them a degree shorter
        # (padded with a zero leading coefficient), against each one's
        # own call, at points inside, on the edges of and outside the
        # pieces, and at a scalar
        edges = np.sort(np.concatenate(([-1.0, 2.0],
                                        rng.uniform(-1.0, 2.0, 20))))
        pieces = len(edges) - 1
        series = [ChebSeries(edges, rng.standard_normal((k, pieces)))
                  for k in (33, 34, 33)]
        functions = series[:2] + [np.cos] + series[2:]
        t = np.concatenate((rng.uniform(-1.5, 2.5, 1000), edges))
        for points in (t, t[:1000].reshape(10, 100), np.float64(0.25)):
            got = call_together(functions, points)
            for f, value in zip(functions, got):
                np.testing.assert_array_equal(value, f(points))
                assert np.shape(value) == np.shape(points)

    def test_piecewise_sum_needs_one_set_of_edges(self):
        one = ChebSeries(np.array([0.0, 1.0]), np.ones((4, 1)))
        other = ChebSeries(np.array([0.0, 2.0]), np.ones((4, 1)))
        with pytest.raises(ValueError, match="one set of edges"):
            call_together([one, other], 0.5)
        split = ChebSeries(np.array([0.0, 0.5, 1.0]), np.ones((4, 2)))
        with pytest.raises(ValueError, match="one set of edges"):
            call_together([one, split], 0.5)


class TestPiecewiseCheb:
    # piecewise Chebyshev series from ChebSeries.adaptive_pieces

    def test_kinked_function_converges_by_bisection(self):
        f = lambda t: np.abs(t) ** 3
        # the kink at 0 is never a bisection point of [-1, 2]
        pc = ChebSeries.adaptive_pieces(f, [-1.0, 2.0], tol=1e-13)
        assert len(pc.edges) > 2
        t = np.linspace(-1.0, 2.0, 3001)
        assert np.max(np.abs(pc(t) - f(t))) <= 1e-12 * np.max(f(t))

    def test_antiderivative_continuous_and_exact(self):
        pc = ChebSeries.adaptive_pieces(lambda t: np.abs(t) ** 3,
                                        [-1.0, 2.0], tol=1e-13)
        anti = pc.antideriv(anchor=0.0)
        t = np.linspace(-1.0, 2.0, 3001)
        exact = np.sign(t) * t ** 4 / 4.0
        assert np.max(np.abs(anti(t) - exact)) <= 1e-13
        # each piece's right end meets the next piece's left end
        inner = anti.edges[1:-1]
        right_ends = C.chebval(1.0, anti.coef[:, :-1])
        assert np.max(np.abs(right_ends - anti(inner))) <= 1e-15

    def test_unresolvable_input_raises(self):
        with pytest.raises(NumericalError):
            ChebSeries.adaptive_pieces(np.sign, [-1.0, 2.0], tol=1e-13)

    def test_each_point_summed_on_its_piece(self, rng):
        # numpy's chebval of the point's own piece, bit for bit, at points
        # inside, on the edges of and outside the pieces
        edges = np.sort(np.concatenate(([-1.0, 2.0],
                                        rng.uniform(-1.0, 2.0, 30))))
        pc = ChebSeries(edges, rng.standard_normal((33, len(edges) - 1)))
        t = np.concatenate((rng.uniform(-1.5, 2.5, 500), edges))
        idx = np.clip(np.searchsorted(edges, t, side="right") - 1,
                      0, len(edges) - 2)
        lo, hi = edges[idx], edges[idx + 1]
        s = (2.0 * t - (lo + hi)) / (hi - lo)
        want = np.array([C.chebval(x, pc.coef[:, i]) for x, i in zip(s, idx)])
        np.testing.assert_array_equal(pc(t), want)
        np.testing.assert_array_equal(pc(t[:500].reshape(5, 100)),
                                      want[:500].reshape(5, 100))
        assert pc(t[7]) == want[7] and np.shape(pc(t[7])) == ()


class TestSummedInRuns:
    # a piecewise sum gathers the coefficients of at most SUM_BLOCK
    # entries at once; every point keeps the bits of the one-call sum

    @pytest.fixture
    def edges(self, rng):
        return np.sort(np.concatenate(([-1.0, 2.0],
                                       rng.uniform(-1.0, 2.0, 40))))

    @staticmethod
    def size(count, run):
        return {"run-1": run - 1, "run": run, "run+1": run + 1,
                "3run+5": 3 * run + 5}[count]

    @pytest.mark.parametrize("count", ["run-1", "run", "run+1", "3run+5"])
    @pytest.mark.parametrize("layout", ["sorted", "unsorted", "2-D"])
    def test_runs_give_the_one_call_bits(self, rng, edges, count, layout):
        pc = ChebSeries(edges, rng.standard_normal((33, len(edges) - 1)))
        run = SUM_BLOCK // 33
        t = rng.uniform(-1.5, 2.5, self.size(count, run))
        if layout == "sorted":
            t.sort()
        elif layout == "2-D":
            t = np.stack((t, t[::-1]))
        got = pc(t)
        assert got.shape == t.shape
        assert np.array_equal(got, unblocked_sum(pc, t))

    @pytest.mark.parametrize("count", ["run-1", "run", "run+1", "3run+5"])
    def test_stack_gives_the_one_call_bits(self, rng, edges, count):
        # call_together's stack of two series, one a degree shorter
        pieces = len(edges) - 1
        long, short = (ChebSeries(edges, rng.standard_normal((k, pieces)))
                       for k in (34, 33))
        stacked = ChebSeries(edges, np.stack(
            (long.coef, np.concatenate((short.coef, np.zeros((1, pieces))))),
            axis=1))
        t = rng.uniform(-1.5, 2.5, self.size(count, SUM_BLOCK // 68))
        want = unblocked_sum(stacked, t)
        got = call_together((long, short), t)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    def test_scalar_point(self, rng, edges):
        pc = ChebSeries(edges, rng.standard_normal((33, len(edges) - 1)))
        got = pc(np.float64(0.25))
        assert np.shape(got) == () and got == unblocked_sum(pc, 0.25)

    @pytest.fixture
    def passes(self, monkeypatch):
        """The point count and coefficient shape of every `clenshaw`
        pass, in order."""
        seen = []
        kernel = nophase.chebseries.clenshaw

        def counted(x, c):
            seen.append((np.size(x), np.shape(c)))
            return kernel(x, c)

        monkeypatch.setattr(nophase.chebseries, "clenshaw", counted)
        return seen

    def test_passes_hold_at_most_the_block(self, rng, edges, passes):
        # the fewest equal runs: 3 runs + 5 points take four passes
        pc = ChebSeries(edges, rng.standard_normal((33, len(edges) - 1)))
        run = SUM_BLOCK // 33
        for n, count in ((run, 1), (run + 1, 2), (3 * run + 5, 4)):
            passes.clear()
            pc(rng.uniform(-1.0, 2.0, n))
            sizes = [size for size, _ in passes]
            assert len(sizes) == count and sum(sizes) == n
            assert max(sizes) == sizes[0] == -(-n // count)
            assert 33 * sizes[0] <= SUM_BLOCK

    def test_map_sums_stay_one_pass(self, passes):
        # the largest piecewise sums of an exact-derivative solve up to
        # N = 8 192: the Newton steps of the inverse map (x(t) and x'(t)
        # stacked at each node of its last round) and t(x) at a level's
        # 4 096 new nodes
        cmap = build_map(make_sech_coefficient())
        nodes = (PIECE_DEGREE + 1) * cmap.t_series.coef.shape[-1]
        stacked = [size for size, shape in passes if len(shape) == 3]
        assert nodes == 594 and stacked and set(stacked) == {nodes}
        passes.clear()
        cmap.t_of_x(np.linspace(cmap.x_lo, cmap.x_hi, 4096))
        assert passes == [(4096, (33, 4096))]

    def test_gather_is_bounded(self):
        # t(x) at a level's 8 192 new nodes and more: the coefficients
        # of 16 384 points gathered at once took 4.3 MB
        cmap = build_map(make_sech_coefficient())
        x = np.linspace(cmap.x_lo - 1.0, cmap.x_hi + 1.0, 16384)
        want = cmap.t_of_x(x)
        tracemalloc.start()
        try:
            got = cmap.t_of_x(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert peak <= 8 * SUM_BLOCK + 48 * x.size, peak


class TestChebSeries:
    def test_unresolved_fit_raises(self):
        # the kink at 0 keeps the tail near 1/n^2 at every n up to max_n
        with pytest.raises(NumericalError):
            ChebSeries.adaptive_fit(np.abs, -1.0, 1.0)

    def test_each_final_node_evaluated_once(self):
        seen = []

        def f(t):
            seen.append(np.array(t))
            return 1.0 / (1.0 + 100.0 * t * t)

        series = ChebSeries.adaptive_fit(f, -1.0, 2.0)
        n = len(series.values) - 1
        assert len(seen) > 2
        np.testing.assert_array_equal(np.sort(np.concatenate(seen)),
                                      lobatto_nodes(n, -1.0, 2.0))
        # and the kept coefficients are the one-shot fit's at the final
        # nodes, each dropped one at most eps times the largest
        full = ChebSeries.fit(f, -1.0, 2.0, n).coef
        kept = len(series.coef)
        np.testing.assert_array_equal(series.coef, full[:kept])
        assert np.all(np.abs(full[kept:])
                      <= np.finfo(float).eps * np.max(np.abs(full)))

    def test_sampled_reads_fit_values_at_nested_nodes(self):
        f = lambda t: np.exp(np.sin(3.0 * t))
        series = ChebSeries.adaptive_fit(f, -1.0, 2.0)
        n = len(series.values) - 1
        for level in (n, n // 4):
            t = lobatto_nodes(level, -1.0, 2.0)[1::2]
            np.testing.assert_array_equal(series.sampled(t), f(t))
        # a finer level's new nodes are summed
        t = lobatto_nodes(2 * n, -1.0, 2.0)
        expect = series(t)
        expect[0::2] = f(t[0::2])
        np.testing.assert_array_equal(series.sampled(t), expect)

    @pytest.mark.parametrize("f", [lambda t: np.exp(np.sin(3.0 * t)),
                                   lambda t: 1e6 * np.exp(t) + 3.0],
                             ids=["exp-sin", "scaled-exp"])
    def test_cut_stays_near_the_uncut_fit(self, f):
        # the dropped coefficients are round-off: the cut series differs
        # from the fit at all n+1 nodes by at most their count times
        # eps times the largest coefficient
        series = ChebSeries.adaptive_fit(f, -1.0, 2.0)
        full = ChebSeries.fit(f, -1.0, 2.0, len(series.values) - 1)
        dropped = len(full.coef) - len(series.coef)
        assert dropped > 0
        t = np.linspace(-1.0, 2.0, 1000)
        assert np.max(np.abs(series(t) - full(t))) \
            <= dropped * np.finfo(float).eps * np.max(np.abs(full.coef))

    def test_zero_function_keeps_one_coefficient(self):
        # every coefficient of a function that is 0 at every node is 0,
        # none above eps times the largest; one is kept all the same
        series = ChebSeries.adaptive_fit(np.zeros_like, -1.0, 2.0)
        assert series.coef.shape == (1, 1) and series.coef[0, 0] == 0.0
        assert len(series.values) == 129
        t = np.linspace(-1.0, 2.0, 7)
        np.testing.assert_array_equal(series(t), np.zeros(7))
        np.testing.assert_array_equal(series.deriv()(t), np.zeros(7))
        np.testing.assert_array_equal(series.antideriv()(t), np.zeros(7))
        assert series.degree_for_tail() == 0

    def test_last_above(self):
        c = np.array([[1.0], [-1e-13], [2e-16], [-4e-16], [0.0]])
        assert last_above(c, 1e-12) == 0
        assert last_above(c, np.finfo(float).eps) == 3
        assert last_above(np.zeros((4, 1)), np.finfo(float).eps) == 0
        assert ChebSeries(np.array([-1.0, 1.0]), c).degree_for_tail() == 0

    def test_antiderivative_vanishes_at_a(self):
        series = ChebSeries.adaptive_fit(lambda t: 1.0 / (1.0 + 25.0 * t * t),
                                         -1.0, 2.0)
        anti = series.antideriv()
        at = C.chebval(-1.0, anti.coef[:, 0])
        assert abs(at) <= 4.0 * np.finfo(float).eps * np.sum(np.abs(anti.coef))

    @pytest.mark.parametrize("t", [np.linspace(-3.5, 3.5, 41),
                                   np.linspace(-3.0, 3.0, 12).reshape(3, 4),
                                   np.float64(0.3)],
                             ids=["1-D", "2-D", "scalar"])
    def test_one_piece_is_numpys_series(self, rng, t):
        # a one-piece series sums, differentiates and integrates as
        # numpy.polynomial.chebyshev does at s = (2t - (a + b))/(b - a),
        # bit for bit
        a, b = -3.0, 3.0
        s = (2.0 * t - (a + b)) / (b - a)
        for n in (1, 2, 3, 16, 129, 131):
            c = rng.standard_normal(n)
            series = ChebSeries(np.array([a, b]), c[:, None])
            np.testing.assert_array_equal(series(t), C.chebval(s, c))
            assert np.shape(series(t)) == np.shape(t)
            der = C.chebder(c) * (2.0 / (b - a))
            np.testing.assert_array_equal(series.deriv().coef[:, 0], der)
            np.testing.assert_array_equal(series.deriv()(t),
                                          C.chebval(s, der))
            anti = C.chebint(c, lbnd=0.0) * (0.5 * (b - a))
            anti[0] -= np.sum(anti[0::2]) - np.sum(anti[1::2])
            np.testing.assert_array_equal(series.antideriv().coef[:, 0], anti)
            np.testing.assert_array_equal(series.antideriv()(t),
                                          C.chebval(s, anti))
        coefs = [rng.standard_normal(n) for n in range(1, 132)]
        got = call_together([ChebSeries(np.array([a, b]), c[:, None])
                             for c in coefs], t)
        for c, value in zip(coefs, got):
            np.testing.assert_array_equal(value, C.chebval(s, c))
            assert np.shape(value) == np.shape(t)


class TestCallTogether:
    def test_stacked_series_bit_identical(self, rng):
        # series of different lengths and a plain callable, against each
        # one's own call
        series = [ChebSeries(np.array([-3.0, 3.0]),
                             rng.standard_normal((n, 1)))
                  for n in (131, 130, 129, 16, 1, 2)]
        functions = series[:3] + [np.sin] + series[3:]
        for t in (np.linspace(0.0, 1.0, 400), np.float64(0.3)):
            got = call_together(functions, t)
            assert len(got) == len(functions)
            for f, value in zip(functions, got):
                np.testing.assert_array_equal(value, f(t))
                assert np.shape(value) == np.shape(t)
        assert call_together([np.sin], 0.3) == [np.sin(0.3)]

    def test_series_on_two_intervals_raise(self):
        with pytest.raises(ValueError, match="one set of edges"):
            call_together([ChebSeries(np.array([-3.0, 3.0]), np.ones((4, 1))),
                           ChebSeries(np.array([0.0, 1.0]), np.ones((4, 1)))],
                          0.5)
