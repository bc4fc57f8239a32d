"""Small arithmetic-expression evaluator for problem definition files.

Supported grammar: numbers, the variable t, the constant pi, the binary
operators + - * / **, unary minus, and the functions exp, sin, cos, sech,
sqrt, log.  Expressions are validated against a whitelist of AST nodes and
compiled once; the returned callable is numpy-vectorized.
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


def compile_expression(source):
    """Compile an expression string into a vectorized callable of
    VARIABLE: an array gives an array of its shape, a scalar a float.
    Raises DomainError for anything outside the whitelist."""
    if not isinstance(source, str):
        raise DomainError(f"an expression must be a string, not {source!r}")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise DomainError(f"cannot parse expression: {exc}") from exc
    _validate(tree)
    code = compile(tree, "<expression>", "eval")
    namespace = {"__builtins__": {}, "pi": np.pi, **_FUNCTIONS}

    def evaluate(t):
        arr = np.asarray(t, dtype=float)
        try:
            value = eval(code, namespace, {VARIABLE: arr})  # noqa: S307 - AST whitelisted
        except ArithmeticError as exc:
            raise DomainError(f"cannot evaluate {source!r}: {exc}") from exc
        if arr.ndim == 0:
            return float(value)
        result = np.asarray(value, dtype=float)
        if result.shape != arr.shape:
            result = np.broadcast_to(result, arr.shape).copy()
        return result

    return evaluate
