"""Scalar expression trees with exact forward-mode derivatives.

Residual equations are represented as small immutable trees over the seven
operations the compiler emits: ``const``, ``var``, ``add``, ``sub``, ``mul``,
``sin`` and ``cos``.  Evaluation returns plain floats; :func:`eval_with_grad` additionally accumulates partial derivatives
with respect to every referenced variable, which is what analytic Jacobian
assembly consumes.  ``dot`` is provided as a vector helper that expands to
scalar nodes at construction time, so the evaluator only ever sees scalars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def _coerce(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return const(float(value))
    raise TypeError(f"cannot build expression from {type(value).__name__}")


@dataclass(frozen=True)
class Expr:
    """One node of an expression tree."""

    op: str
    args: tuple["Expr", ...] = ()
    value: float = 0.0   # payload for "const"
    index: int = -1      # payload for "var"

    def __add__(self, other):
        return Expr("add", (self, _coerce(other)))

    def __radd__(self, other):
        return Expr("add", (_coerce(other), self))

    def __sub__(self, other):
        return Expr("sub", (self, _coerce(other)))

    def __rsub__(self, other):
        return Expr("sub", (_coerce(other), self))

    def __mul__(self, other):
        return Expr("mul", (self, _coerce(other)))

    def __rmul__(self, other):
        return Expr("mul", (_coerce(other), self))

    def __neg__(self):
        return Expr("sub", (const(0.0), self))

    def variables(self) -> set[int]:
        """Indices of all variables occurring in the tree."""
        if self.op == "var":
            return {self.index}
        out: set[int] = set()
        for a in self.args:
            out |= a.variables()
        return out


def const(value: float) -> Expr:
    return Expr("const", value=float(value))


def var(index: int) -> Expr:
    return Expr("var", index=index)


def sin(e) -> Expr:
    return Expr("sin", (_coerce(e),))


def cos(e) -> Expr:
    return Expr("cos", (_coerce(e),))


def square(e) -> Expr:
    e = _coerce(e)
    return e * e


def dot(a: Sequence, b: Sequence) -> Expr:
    """Inner product of two equal-length expression vectors."""
    if len(a) != len(b):
        raise ValueError("dot: length mismatch")
    terms = [_coerce(x) * _coerce(y) for x, y in zip(a, b)]
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def evaluate(e: Expr, x: Sequence[float]) -> float:
    op = e.op
    if op == "const":
        return e.value
    if op == "var":
        return float(x[e.index])
    if op == "add":
        return evaluate(e.args[0], x) + evaluate(e.args[1], x)
    if op == "sub":
        return evaluate(e.args[0], x) - evaluate(e.args[1], x)
    if op == "mul":
        return evaluate(e.args[0], x) * evaluate(e.args[1], x)
    if op == "sin":
        return math.sin(evaluate(e.args[0], x))
    if op == "cos":
        return math.cos(evaluate(e.args[0], x))
    raise ValueError(f"unknown op {op!r}")


def eval_with_grad(e: Expr, x: Sequence[float]) -> tuple[float, dict[int, float]]:
    """Evaluate and return (value, {var index: partial derivative})."""
    op = e.op
    if op == "const":
        return e.value, {}
    if op == "var":
        return float(x[e.index]), {e.index: 1.0}
    if op in ("add", "sub"):
        va, ga = eval_with_grad(e.args[0], x)
        vb, gb = eval_with_grad(e.args[1], x)
        sign = 1.0 if op == "add" else -1.0
        g = dict(ga)
        for i, d in gb.items():
            g[i] = g.get(i, 0.0) + sign * d
        return va + sign * vb, g
    if op == "mul":
        va, ga = eval_with_grad(e.args[0], x)
        vb, gb = eval_with_grad(e.args[1], x)
        g = {i: d * vb for i, d in ga.items()}
        for i, d in gb.items():
            g[i] = g.get(i, 0.0) + d * va
        return va * vb, g
    if op == "sin":
        v, gi = eval_with_grad(e.args[0], x)
        c = math.cos(v)
        return math.sin(v), {i: d * c for i, d in gi.items()}
    if op == "cos":
        v, gi = eval_with_grad(e.args[0], x)
        s = -math.sin(v)
        return math.cos(v), {i: d * s for i, d in gi.items()}
    raise ValueError(f"unknown op {op!r}")


def render(e: Expr, names: Sequence[str]) -> str:
    """Deterministic infix rendering for debug listings."""
    op = e.op
    if op == "const":
        return f"{e.value:g}"
    if op == "var":
        return names[e.index]
    if op in ("add", "sub", "mul"):
        sym = {"add": " + ", "sub": " - ", "mul": "*"}[op]
        return f"({render(e.args[0], names)}{sym}{render(e.args[1], names)})"
    return f"{op}({render(e.args[0], names)})"
