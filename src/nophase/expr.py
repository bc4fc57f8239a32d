"""Small arithmetic-expression evaluator for problem definition files.

Supported grammar: numbers, the variable t, the constant pi, the binary
operators + - * / **, unary minus, and the functions exp, sin, cos, sech,
sqrt, log.  Expressions are validated against a whitelist of AST nodes and
compiled once into a function of t; the returned callable is
numpy-vectorized.

A Python float, which the DOP853 oracle passes at every Runge-Kutta
stage, is not made a 0-d array first: the function sees t as the float
where t is a function's whole argument, and as `np.asarray(t)`
everywhere else.  Every function is the same numpy ufunc loop on a
float and on a 0-d array, and all arithmetic on t is the 0-d array's
own, so the value, warnings and errors are those of the same call on a
0-d array.  This matters for `**`: numpy's power on a 0-d array rounds
differently from libm's `pow`.  A float call costs about half as much.
"""

import ast

import numpy as np

from .errors import DomainError

_FUNCTIONS = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "sech": lambda u: 1.0 / np.cosh(u),
    "sqrt": np.sqrt,
    "log": np.log,
}

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)
VARIABLE = "t"


def _validate(node):
    if isinstance(node, ast.Expression):
        _validate(node.body)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        _validate(node.left)
        _validate(node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
        _validate(node.operand)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise DomainError(f"unknown function in expression: {ast.dump(node.func)}")
        if node.keywords or len(node.args) != 1:
            raise DomainError("functions take exactly one positional argument")
        _validate(node.args[0])
    elif isinstance(node, ast.Name):
        if node.id not in (VARIABLE, "pi"):
            raise DomainError(f"unknown identifier: {node.id!r}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise DomainError(f"non-numeric constant: {node.value!r}")
    else:
        raise DomainError(f"disallowed syntax: {type(node).__name__}")


def _is_variable(node):
    return isinstance(node, ast.Name) and node.id == VARIABLE


class _ArrayOperands(ast.NodeTransformer):
    """Wraps every t that is not a function's whole argument in
    `_asarray(t)`."""

    def visit_Call(self, node):
        if not _is_variable(node.args[0]):
            self.generic_visit(node)
        return node

    def visit_Name(self, node):
        if node.id != VARIABLE:
            return node
        return ast.Call(func=ast.Name(id="_asarray", ctx=ast.Load()),
                        args=[node], keywords=[])


def compile_expression(source):
    """Compile an expression string into a vectorized callable of
    VARIABLE: an array gives an array of its shape, a scalar a float.
    The tree is compiled once into a function; a Python float calls it
    directly, with the bits of a 0-d array (module docstring).  Raises
    DomainError for anything outside the whitelist, for a tree nested
    too deeply to parse or compile (a sum of about 500 terms), and for
    an ArithmeticError while evaluating."""
    if not isinstance(source, str):
        raise DomainError(f"an expression must be a string, not {source!r}")
    try:
        tree = ast.parse(source, mode="eval")
        _validate(tree)
        lam = ast.parse(f"lambda {VARIABLE}: 0", mode="eval")
        lam.body.body = _ArrayOperands().visit(tree.body)
        code = compile(ast.fix_missing_locations(lam), "<expression>", "eval")
    except SyntaxError as exc:
        raise DomainError(f"cannot parse expression: {exc}") from exc
    except RecursionError as exc:
        raise DomainError(f"expression nests too deeply: {exc}") from exc
    namespace = {"__builtins__": {}, "pi": np.pi, **_FUNCTIONS,
                 "_asarray": np.asarray}
    function = eval(code, namespace)  # noqa: S307 - AST whitelisted

    def evaluate(t):
        if type(t) is not float:
            t = np.asarray(t, dtype=float)
        try:
            value = function(t)
        except ArithmeticError as exc:
            raise DomainError(f"cannot evaluate {source!r}: {exc}") from exc
        if type(t) is float or t.ndim == 0:
            return float(value)
        result = np.asarray(value, dtype=float)
        if result.shape != t.shape:
            result = np.broadcast_to(result, t.shape).copy()
        return result

    return evaluate
