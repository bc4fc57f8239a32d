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
