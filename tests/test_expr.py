import numpy as np
import pytest
from hypothesis import given, strategies as st

from gcskernel import expr as ex

from conftest import tree_evaluate

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def build(a, b):
    """A moderately nasty expression in two variables."""
    x, y = ex.var(0), ex.var(1)
    return ex.sin(x * y) + ex.cos(x - 2.0) * y + (x * x - y) * (x + 0.5) - x * (y * y + 2.0)


def plan_of(e, n_columns):
    return ex.Plan([(ex.Tape([e]), [0])], n_columns)


def value(e, x):
    return float(plan_of(e, len(x)).values(np.asarray(x, dtype=float))[0])


def test_basic_arithmetic():
    x, y = ex.var(0), ex.var(1)
    e = (x + y) * (x - y)
    assert value(e, [3.0, 2.0]) == pytest.approx(5.0)
    assert value(ex.square(x) - 4.0, [3.0, 0.0]) == pytest.approx(5.0)


def test_dot_expands_to_scalars():
    v = [ex.var(0), ex.var(1), ex.var(2)]
    w = [ex.const(1.0), ex.const(2.0), ex.const(3.0)]
    assert value(ex.dot(v, w), [1.0, 1.0, 1.0]) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        ex.dot(v, w[:2])


def test_variables_collection():
    assert ex.Tape([build(0, 0)]).variables[0] == (0, 1)
    assert ex.Tape([ex.const(4.0)]).variables[0] == ()


@given(finite, finite)
def test_gradient_matches_finite_differences(a, b):
    e = build(a, b)
    h = 1e-6
    plan = plan_of(e, 2)
    grad = plan.jacobian(np.array([a, b]))[0]
    assert grad.shape == (2,)
    assert value(e, [a, b]) == pytest.approx(tree_evaluate(e, [a, b]))
    for j, point in enumerate([a, b]):
        xs = [a, b]
        xs[j] = point + h
        up = value(e, xs)
        xs[j] = point - h
        dn = value(e, xs)
        fd = (up - dn) / (2 * h)
        assert grad[j] == pytest.approx(fd, abs=1e-5, rel=1e-5)


def test_render_is_deterministic():
    e = build(0, 0)
    assert ex.render(e, ["x", "y"]) == ex.render(e, ["x", "y"])
    assert ex.render(ex.var(1) - 2.0, ["u", "v"]) == "(v - 2)"
