import warnings

import numpy as np
import pytest

from nophase.errors import DomainError
from nophase.expr import compile_expression


class TestCompileExpression:
    def test_polynomial(self):
        f = compile_expression("1 + 2*t - t**2")
        t = np.array([-1.0, 0.0, 2.0])
        assert np.allclose(f(t), 1 + 2 * t - t ** 2)

    def test_functions_and_pi(self):
        f = compile_expression("exp(-t) * sin(pi * t) + sech(t) + sqrt(t+2)")
        t = np.linspace(-1.0, 1.0, 11)
        ref = (np.exp(-t) * np.sin(np.pi * t) + 1.0 / np.cosh(t)
               + np.sqrt(t + 2))
        assert np.allclose(f(t), ref, atol=1e-15)

    def test_constant_broadcasts(self):
        f = compile_expression("1 + pi*0")
        t = np.linspace(0, 1, 7)
        out = f(t)
        assert out.shape == t.shape
        assert np.all(out == 1.0)

    def test_scalar_input(self):
        f = compile_expression("cos(t)")
        assert f(0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("source, numpy_form", [
        ("1 + sech(t)**2", lambda t: 1 + (1.0 / np.cosh(t)) ** 2),
        ("t**3", lambda t: t ** 3),
        ("-(exp(t) - exp(-t))*sech(t)**3",
         lambda t: -(np.exp(t) - np.exp(-t)) * (1.0 / np.cosh(t)) ** 3),
        ("sqrt(t + 2) * log(t + 3) / (1 + t**2)",
         lambda t: np.sqrt(t + 2) * np.log(t + 3) / (1 + t ** 2)),
        ("2", lambda t: 2),
    ], ids=["sech", "cube", "dsech", "mixed", "constant"])
    def test_float_input_gives_the_0d_bits(self, source, numpy_form):
        # a float comes back, with the bits of the formula on a 0-d array
        f = compile_expression(source)
        for t in np.linspace(-1.7, 1.9, 37).tolist():
            got = f(t)
            assert type(got) is float
            assert got == float(f(np.asarray(t)))
            assert got == float(numpy_form(np.asarray(t)))

    def test_division_by_zero_gives_inf(self):
        f = compile_expression("1/t")
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            assert f(0.0) == np.inf

    def test_unary_minus(self):
        f = compile_expression("-t + +2")
        assert f(3.0) == pytest.approx(-1.0)

    @pytest.mark.parametrize("bad", [
        "__import__('os')",
        "t.__class__",
        "lambda u: u",
        "open('x')",
        "t if t else 0",
        "foo(t)",
        "y + 1",
        "t @ t",
        "'str'",
        "[1, 2]",
    ])
    def test_rejects_disallowed(self, bad):
        with pytest.raises(DomainError):
            compile_expression(bad)

    def test_rejects_syntax_error(self):
        with pytest.raises(DomainError):
            compile_expression("1 +")


def _outcome(f, t):
    """(value, exception, warnings) of one call, every warning kept."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value, error = f(t), None
        except Exception as exc:
            value, error = None, (type(exc), str(exc))
    return value, error, [(w.category, str(w.message)) for w in caught]


def _same_outcome(got, want):
    (value, error, caught), (value0, error0, caught0) = got, want
    if error is not None or error0 is not None:
        return value is value0 is None and error == error0 and caught == caught0
    return (type(value) is type(value0) is float and caught == caught0
            and np.array_equal(value, value0, equal_nan=True))


# every construct of the grammar: each function, each operator with t,
# with a constant and with a function on either side, ** with t as base,
# exponent and both, unary signs, pi and constants alone
_CORPUS = [
    "1 + sech(t)**2", "t**2", "t**0.5", "t**-1", "t**2.5", "2**t", "(-t)**3",
    "(t+1)**2.5", "t**t", "2", "t", "-t", "+t - -t", "pi*t - 1/pi",
    "exp(-t*t)*cos(3*t) + sin(t/2)", "sqrt(t + 4) * log(t + 5) / (1 + t**2)",
    "t*sech(t)", "sech(t)*t - t/exp(t)", "(t/3 - 1)**3 + t", "1/(t - 0.5)",
    "(t + 4)**(t/2)", "t**(t + 1)", "exp(t)**2", "(1 + t*t)**-1.5",
    "2**(t + 1) - 3**-t", "-(exp(t) - exp(-t))*sech(t)**3",
    "((exp(t) - exp(-t))**2 - 2)*sech(t)**4",
]


class TestFloatForm:
    @pytest.mark.parametrize("source", _CORPUS)
    def test_float_gives_the_0d_bits(self, source):
        # a float against the same call on a 0-d array, over points
        # where each expression is defined and where it is not
        f = compile_expression(source)
        rng = np.random.default_rng(11)
        points = np.concatenate((rng.uniform(-3.0, 3.0, 2000),
                                 rng.uniform(0.0, 6.0, 1000),
                                 [0.0, -0.0, 0.5, 1.0, -1.0]))
        for t in points.tolist():
            got = _outcome(f, t)
            assert _same_outcome(got, _outcome(f, np.asarray(t))), (t, got)

    # cases where Python's float arithmetic would differ from numpy's
    @pytest.mark.parametrize("source", [
        "(t-5)**(1/3)",              # Python gives a complex, numpy nan
        "1/(t-t)",                   # Python raises, numpy warns
        "log(t-5)",                  # nan from numpy, one warning
        "exp(1000*t)",               # inf from numpy, one warning
        "sech(800*t)",               # an overflow inside, a finite result
        "t*2**5000",                 # the int does not fit a float
        "sech(t*1e308*10)",          # Python overflows silently
        "1/(t*1e308*10)",            # and the divisor hides it
        "log(t-5) + 1/(t-t)",        # a numpy warning before Python fails
        "sqrt(t-5) + (t-5)**(1/3)",
        "sech(800*t)*2**5000",
        "t*0*1e999",
    ])
    def test_failing_case_gives_the_0d_outcome(self, source):
        # value, exception and every warning, in order, as on a 0-d array
        f = compile_expression(source)
        for t in (0.3, 2.0, -1.5):
            got = _outcome(f, t)
            assert _same_outcome(got, _outcome(f, np.asarray(t))), (t, got)

    def test_failing_case_outcomes(self):
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert np.isnan(compile_expression("(t-5)**(1/3)")(0.3))
        with pytest.raises(DomainError, match="int too large"):
            compile_expression("t*2**5000")(0.3)
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert compile_expression("sech(800*t)")(2.0) == 0.0
