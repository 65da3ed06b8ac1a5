import math
from pathlib import Path

import numpy as np
import pytest

from gcskernel import eval_jacobian, eval_residuals, zoo
from gcskernel.model import Constraint, Entity, Model

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return CORPUS


# A copy of the recursive expression interpreter that the flat tape replaced:
# the reference the tape's residuals, derivatives and variable lists are
# checked against.


def tree_evaluate(e, x) -> float:
    op = e.op
    if op == "const":
        return e.value
    if op == "var":
        return float(x[e.index])
    if op == "add":
        return tree_evaluate(e.args[0], x) + tree_evaluate(e.args[1], x)
    if op == "sub":
        return tree_evaluate(e.args[0], x) - tree_evaluate(e.args[1], x)
    if op == "mul":
        return tree_evaluate(e.args[0], x) * tree_evaluate(e.args[1], x)
    if op == "sin":
        return math.sin(tree_evaluate(e.args[0], x))
    if op == "cos":
        return math.cos(tree_evaluate(e.args[0], x))
    raise ValueError(f"unknown op {op!r}")


def tree_eval_with_grad(e, x) -> tuple[float, dict[int, float]]:
    """Evaluate and return (value, {var index: partial derivative})."""
    op = e.op
    if op == "const":
        return e.value, {}
    if op == "var":
        return float(x[e.index]), {e.index: 1.0}
    if op in ("add", "sub"):
        va, ga = tree_eval_with_grad(e.args[0], x)
        vb, gb = tree_eval_with_grad(e.args[1], x)
        sign = 1.0 if op == "add" else -1.0
        g = dict(ga)
        for i, d in gb.items():
            g[i] = g.get(i, 0.0) + sign * d
        return va + sign * vb, g
    if op == "mul":
        va, ga = tree_eval_with_grad(e.args[0], x)
        vb, gb = tree_eval_with_grad(e.args[1], x)
        g = {i: d * vb for i, d in ga.items()}
        for i, d in gb.items():
            g[i] = g.get(i, 0.0) + d * va
        return va * vb, g
    if op == "sin":
        v, gi = tree_eval_with_grad(e.args[0], x)
        c = math.cos(v)
        return math.sin(v), {i: d * c for i, d in gi.items()}
    if op == "cos":
        v, gi = tree_eval_with_grad(e.args[0], x)
        s = -math.sin(v)
        return math.cos(v), {i: d * s for i, d in gi.items()}
    raise ValueError(f"unknown op {op!r}")


def tree_variables(e) -> set[int]:
    """Indices of all variables occurring in the tree."""
    if e.op == "var":
        return {e.index}
    out: set[int] = set()
    for a in e.args:
        out |= tree_variables(a)
    return out


def finite_difference_jacobian(system, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    J = np.zeros((system.n_residuals, system.n_variables))
    for j in range(system.n_variables):
        step = np.zeros_like(x)
        step[j] = h
        J[:, j] = (eval_residuals(system, x + step) - eval_residuals(system, x - step)) / (2 * h)
    return J


def assert_jacobian_matches_fd(system, x, tol=1e-6):
    J = eval_jacobian(system, x)
    F = finite_difference_jacobian(system, x)
    scale = np.maximum(1.0, np.abs(J))
    assert np.max(np.abs(J - F) / scale) <= tol


def point_on_line_3d_model():
    """Two points held on one 3D line (direction mostly along y) at a fixed gap."""
    return Model(3, (
        Entity("P1", "point3", (0.1, 1.0, 0.2)),
        Entity("P2", "point3", (0.2, 3.0, 0.3)),
        Entity("L", "line3", (0.0, 0.0, 0.1, 0.05, 1.0, 0.05)),
    ), (
        Constraint("on1", "point-on-line", ("P1", "L")),
        Constraint("on2", "point-on-line", ("P2", "L")),
        Constraint("gap", "distance-pp", ("P1", "P2"), 2.0),
    ))


def cross_product_models():
    """3D models whose parallel and point-on-line constraints compile to two
    of the three cross-product components."""
    return [pytest.param(zoo.parallel_lines_model(), id="parallel_lines"),
            pytest.param(zoo.plane_prism_model(), id="plane_prism"),
            pytest.param(point_on_line_3d_model(), id="point_on_line")]
