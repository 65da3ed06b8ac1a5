import numpy as np
import pytest
from hypothesis import given, strategies as st

from gcskernel import expr as ex

from conftest import row_eval_with_grad

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def build(tape):
    """A moderately nasty row in two variables."""
    x, y = tape.var(0), tape.var(1)
    return ex.sin(x * y) + ex.cos(x - 2.0) * y + (x * x - y) * (x + 0.5) - x * (y * y + 2.0)


def tape_of(write) -> ex.Tape:
    """A tape of one row, written by ``write(tape)``."""
    tape = ex.Tape()
    tape.end_row(write(tape))
    return tape


def plan_of(write, n_columns):
    return ex.Plan([(tape_of(write), [0])], n_columns)


def value(write, x):
    return float(plan_of(write, len(x)).values(np.asarray(x, dtype=float))[0])


def test_basic_arithmetic():
    assert value(lambda t: (t.var(0) + t.var(1)) * (t.var(0) - t.var(1)),
                 [3.0, 2.0]) == pytest.approx(5.0)
    assert value(lambda t: ex.square(t.var(0)) - 4.0, [3.0, 0.0]) == pytest.approx(5.0)
    assert value(lambda t: 1.0 - 2.0 * t.var(0), [3.0]) == pytest.approx(-5.0)


def test_dot_expands_to_scalars():
    w = [1.0, 2.0, 3.0]
    assert value(lambda t: ex.dot([t.var(j) for j in range(3)], w),
                 [1.0, 1.0, 1.0]) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        ex.dot([ex.Tape().var(j) for j in range(3)], w[:2])


def test_variables_collection():
    assert tape_of(build).variables[0] == (0, 1)
    assert tape_of(lambda t: 4.0).variables[0] == ()


@given(finite, finite)
def test_gradient_matches_finite_differences(a, b):
    h = 1e-6
    plan = plan_of(build, 2)
    grad = plan.jacobian(np.array([a, b]))[0]
    assert grad.shape == (2,)
    reference, _ = row_eval_with_grad(list(tape_of(build).ops(0)), [a, b])
    assert value(build, [a, b]) == pytest.approx(reference)
    for j, point in enumerate([a, b]):
        xs = [a, b]
        xs[j] = point + h
        up = value(build, xs)
        xs[j] = point - h
        dn = value(build, xs)
        fd = (up - dn) / (2 * h)
        assert grad[j] == pytest.approx(fd, abs=1e-5, rel=1e-5)


def test_render_is_deterministic():
    assert tape_of(build).render(0, ["x", "y"]) == tape_of(build).render(0, ["x", "y"])
    assert tape_of(lambda t: t.var(1) - 2.0).render(0, ["u", "v"]) == "(v - 2)"
    assert tape_of(lambda t: ex.sin(t.var(0) * t.var(0))).render(0, ["u"]) == "sin((u*u))"
