"""Tiny arithmetic expression grammar for config files and scalar coefficients.

Grammar: +, -, *, /, unary minus, parentheses, the functions
sin/cos/exp/tanh, the constants pi and e, and named variables.  Nothing
else parses; the error message names the offending construct.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh}
_CONSTS = {"pi": math.pi, "e": math.e}
_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply, ast.Div: np.divide}


def _validate(node: ast.AST, variables: set[str], src: str, reads: set[str]):
    """Reject what the grammar lacks, and collect the variables src names in reads."""
    if isinstance(node, ast.Expression):
        _validate(node.body, variables, src, reads)
    elif isinstance(node, ast.BinOp):
        if type(node.op) not in _BINOPS:
            raise ConfigError(f"operator {type(node.op).__name__} not in the grammar: {src!r}")
        _validate(node.left, variables, src, reads)
        _validate(node.right, variables, src, reads)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise ConfigError(f"unary {type(node.op).__name__} not in the grammar: {src!r}")
        _validate(node.operand, variables, src, reads)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
            raise ConfigError(f"only {'/'.join(_FUNCS)} calls are allowed: {src!r}")
        if len(node.args) != 1 or node.keywords:
            raise ConfigError(f"{node.func.id} takes exactly one argument: {src!r}")
        _validate(node.args[0], variables, src, reads)
    elif isinstance(node, ast.Name):
        if node.id in variables:
            reads.add(node.id)
        elif node.id not in _CONSTS:
            allowed = ", ".join(sorted(variables | set(_CONSTS)))
            raise ConfigError(f"unknown name {node.id!r} in {src!r} (allowed: {allowed})")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConfigError(f"non-numeric constant in {src!r}")
    else:
        raise ConfigError(f"construct {type(node).__name__} not in the grammar: {src!r}")


def _parse(src: str) -> ast.Expression:
    try:
        return ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {src!r}: {exc.msg}") from None


def product_factors(src: str) -> list[str]:
    """The source of each factor of src's top-level product, left to right.

    Only the left spine of the ``*`` chain is walked, so ``a*b*c`` gives
    a, b and c, while ``a*(b*c)`` gives a and b*c.  Multiplying the
    factors' values left to right reproduces src's value bit for bit.
    """
    node, factors = _parse(src).body, []
    while isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        factors.insert(0, node.right)
        node = node.left
    return [ast.get_source_segment(src, f) for f in [node] + factors]


def compile_expression(src: str, variables: Sequence[str]) -> Callable[..., np.ndarray]:
    """Compile ``src`` to a vectorized function of the named variables.

    The returned callable takes keyword arrays (missing variables default
    to 0.0) and broadcasts like numpy; its ``reads`` attribute is the set
    of variables src names.  It evaluates without floating-point warnings:
    a non-finite value is the caller's to refuse with a named cause.
    """
    tree = _parse(src)
    reads = set()
    _validate(tree, set(variables), src, reads)
    code = compile(tree, "<expression>", "eval")
    env = {**_FUNCS, **_CONSTS}

    def fn(**kwargs):
        local = dict(env)
        for name in reads:
            local[name] = np.asarray(kwargs.get(name, 0.0), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            result = eval(code, {"__builtins__": {}}, local)
        return np.asarray(result, dtype=float)

    fn.reads = reads
    return fn
