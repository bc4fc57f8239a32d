"""Small arithmetic-expression evaluator for problem definition files.

Supported grammar: numbers, the variable t, the constant pi, the binary
operators + - * / **, unary minus, and the functions exp, sin, cos, sech,
sqrt, log.  Expressions are validated against a whitelist of AST nodes and
compiled once into a function of t; the returned callable is
numpy-vectorized.
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
# deepest tree compile_expression accepts: a sum of about 480 terms
_MAX_DEPTH = 480


def _validate(node, depth):
    """DomainError unless the tree below node holds only whitelisted
    nodes, nested at most _MAX_DEPTH deep."""
    if depth > _MAX_DEPTH:
        raise DomainError(
            f"expression nests too deeply: more than {_MAX_DEPTH} levels")
    if isinstance(node, ast.Expression):
        _validate(node.body, depth + 1)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        _validate(node.left, depth + 1)
        _validate(node.right, depth + 1)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _ALLOWED_UNARY):
        _validate(node.operand, depth + 1)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise DomainError(f"unknown function in expression: {ast.dump(node.func)}")
        if node.keywords or len(node.args) != 1:
            raise DomainError("functions take exactly one positional argument")
        _validate(node.args[0], depth + 1)
    elif isinstance(node, ast.Name):
        if node.id not in (VARIABLE, "pi"):
            raise DomainError(f"unknown identifier: {node.id!r}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise DomainError(f"non-numeric constant: {node.value!r}")
    else:
        raise DomainError(f"disallowed syntax: {type(node).__name__}")


def compile_expression(source):
    """Compile an expression string into a vectorized callable of
    VARIABLE: an array gives an array of its shape, a scalar a float
    with the bits of the same call on a 0-d array.  The tree is compiled
    once into a function.  Raises DomainError for anything outside the
    whitelist, for a tree nested more than _MAX_DEPTH deep or too deeply
    to parse, and for an ArithmeticError while evaluating."""
    if not isinstance(source, str):
        raise DomainError(f"an expression must be a string, not {source!r}")
    try:
        tree = ast.parse(source, mode="eval")
        _validate(tree, 0)
        lam = ast.parse(f"lambda {VARIABLE}: 0", mode="eval")
        lam.body.body = tree.body
        code = compile(ast.fix_missing_locations(lam), "<expression>", "eval")
    except SyntaxError as exc:
        raise DomainError(f"cannot parse expression: {exc}") from exc
    except RecursionError as exc:
        raise DomainError(f"expression nests too deeply: {exc}") from exc
    namespace = {"__builtins__": {}, "pi": np.pi, **_FUNCTIONS}
    function = eval(code, namespace)  # noqa: S307 - AST whitelisted

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        try:
            value = function(t)
        except ArithmeticError as exc:
            raise DomainError(f"cannot evaluate {source!r}: {exc}") from exc
        if t.ndim == 0:
            return float(value)
        result = np.asarray(value, dtype=float)
        if result.shape != t.shape:
            result = np.broadcast_to(result, t.shape).copy()
        return result

    return evaluate
