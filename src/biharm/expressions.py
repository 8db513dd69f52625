"""Coefficient mini-language: arithmetic expressions in x1, x2.

Grammar (EBNF):

    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = [ "+" | "-" ] atom ;
    atom    = number | "pi" | "x1" | "x2"
            | ("sin" | "cos" | "exp" | "abs") "(" expr ")"
            | "(" expr ")" ;

Numbers are Python floats.  ``x2`` is only valid on two-dimensional
grids.  Parsing is done with the standard-library ``ast`` module against
a strict node whitelist, so syntax errors carry character positions and
nothing outside the grammar evaluates.  The validated tree is compiled
once (integer literals lowered to floats, ``/`` to a zero-checked
division) and run with no builtins.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .errors import ExpressionError

_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}

_BINOPS = {ast.Add, ast.Sub, ast.Mult, ast.Div}
_UNARYOPS = {ast.USub, ast.UAdd}


def _div(left, right, col):
    if np.any(right == 0):
        raise ExpressionError("division by zero at a node", col)
    return left / right


# the only names compiled code sees
_NAMESPACE = {"__builtins__": {}, "pi": math.pi, "_div": _div, **_FUNCS}


class Expression:
    """A parsed coefficient expression, evaluable on coordinate arrays."""

    def __init__(self, text: str, d_eff: int):
        self.text = text
        self.d_eff = d_eff
        try:
            tree = ast.parse(text, mode="eval")
        except SyntaxError as exc:
            pos = (exc.offset - 1) if exc.offset else None
            raise ExpressionError(f"syntax error in {text!r}", pos) from None
        fn = ast.parse(f"lambda {', '.join(('x1', 'x2')[:d_eff])}: 0", mode="eval")
        fn.body.body = self._lower(tree.body)
        code = compile(ast.fix_missing_locations(fn), "<coefficient>", "eval")
        self._fn = eval(code, _NAMESPACE)

    def _lower(self, node):
        """Check ``node`` against the grammar; return its compilable form."""
        if isinstance(node, ast.BinOp):
            if type(node.op) not in _BINOPS:
                raise ExpressionError("operator not allowed", node.col_offset)
            node.left, node.right = self._lower(node.left), self._lower(node.right)
            if isinstance(node.op, ast.Div):
                args = [node.left, node.right, ast.Constant(node.col_offset)]
                return ast.Call(ast.Name("_div", ast.Load()), args, [])
        elif isinstance(node, ast.UnaryOp):
            if type(node.op) not in _UNARYOPS:
                raise ExpressionError("operator not allowed", node.col_offset)
            node.operand = self._lower(node.operand)
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ExpressionError("unknown function", node.col_offset)
            if len(node.args) != 1 or node.keywords:
                raise ExpressionError(
                    f"{node.func.id} takes exactly one argument", node.col_offset
                )
            node.args = [self._lower(node.args[0])]
        elif isinstance(node, ast.Name):
            if node.id == "x2" and self.d_eff < 2:
                raise ExpressionError(
                    "x2 is undefined on a one-dimensional grid", node.col_offset
                )
            if node.id not in ("pi", "x1", "x2"):
                raise ExpressionError(f"unknown name {node.id!r}", node.col_offset)
        elif isinstance(node, ast.Constant):
            # bool is an int subclass: True/False are names, not numbers
            if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
                raise ExpressionError("only numeric literals allowed", node.col_offset)
            try:
                return ast.Constant(float(node.value))
            except OverflowError:
                raise ExpressionError(
                    "integer literal out of float range", node.col_offset
                ) from None
        else:
            raise ExpressionError(
                "unsupported syntax element", getattr(node, "col_offset", None)
            )
        return node

    def __call__(self, *coords):
        """Evaluate on coordinate arrays (or scalars), one per axis."""
        if len(coords) != self.d_eff:
            raise ValueError(f"expected {self.d_eff} coordinate arrays")
        out = self._fn(*coords)
        if isinstance(out, float):          # also np.float64
            if math.isfinite(out):
                return float(out)
        else:
            out = np.asarray(out, dtype=np.float64)
            if np.all(np.isfinite(out)):
                return out if out.shape else float(out)
        raise ExpressionError(
            f"expression {self.text!r} is not finite at the evaluation points"
        )


def parse_coefficient(text: str, geometry):
    """Sample an expression at the grid nodes as a band-projected field."""
    expr = Expression(text, geometry.d_eff)
    values = expr(*geometry.coordinates())
    values = np.broadcast_to(np.asarray(values, dtype=np.float64), geometry.shape)
    return geometry.field(np.ascontiguousarray(values))
