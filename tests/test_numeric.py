import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcskernel import (
    add_anchors,
    assignment_from_params,
    compile_model,
    eval_jacobian,
    linear_system,
    newton_solve,
    optimize_solve,
    rank_analyze,
    solve,
)
from gcskernel import zoo


def test_identity_rank():
    a = rank_analyze(np.eye(6))
    assert a.rank == 6
    assert a.kernel.shape == (6, 0)
    assert a.cokernel.shape == (6, 0)


def test_collinear_three_distance_rank_five():
    m = zoo.three_distances_model()
    s = add_anchors(compile_model(m), m)
    collinear = np.array([0.0, 0.0, 10.0, 0.0, 20.0, 0.0])
    assert rank_analyze(eval_jacobian(s, collinear)).rank == 5


def test_lindep2_rank_and_cokernel():
    s = zoo.lindep2_system()
    J = eval_jacobian(s, np.zeros(3))
    a = rank_analyze(J)
    assert a.shape == (5, 3)
    assert a.rank == 3
    assert a.cokernel_dim == 2


def test_kernel_vectors_annihilate():
    rng = np.random.default_rng(0)
    J = rng.normal(size=(4, 7))
    J[3] = J[0] + 2 * J[1]  # force a row dependency
    a = rank_analyze(J)
    smax = a.singular_values[0]
    for k in range(a.kernel.shape[1]):
        assert np.linalg.norm(J @ a.kernel[:, k]) <= 1e-8 * smax
    for k in range(a.cokernel.shape[1]):
        assert np.linalg.norm(a.cokernel[:, k] @ J) <= 1e-8 * smax


def test_empty_and_nonfinite():
    a = rank_analyze(np.zeros((0, 3)))
    assert a.rank == 0 and a.kernel.shape == (3, 3)
    with pytest.raises(ValueError):
        rank_analyze(np.array([[np.inf, 1.0]]))


@settings(max_examples=40)
@given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(1, 8))
def test_rank_invariances(seed, m, n):
    rng = np.random.default_rng(seed)
    J = rng.normal(size=(m, n))
    base = rank_analyze(J).rank
    P = rng.permutation(np.eye(m))
    Q = rng.permutation(np.eye(n))
    assert rank_analyze(P @ J @ Q).rank == base
    c = float(rng.uniform(0.1, 50.0))
    assert rank_analyze(c * J).rank == base


@settings(max_examples=40)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
def test_constructed_rank(seed, m, n, k):
    k = min(k, m, n)
    rng = np.random.default_rng(seed)
    J = rng.normal(size=(m, k)) @ rng.normal(size=(k, n))
    assert rank_analyze(J).rank == k


def _anchored_triangle():
    m = zoo.triangle_model()
    s = add_anchors(compile_model(m), m)
    return m, s, assignment_from_params(m, s)


def test_newton_zero_iterations_at_solution():
    m, s, x = _anchored_triangle()
    res = newton_solve(s, x)
    assert res.converged
    assert res.iterations <= 1


def test_newton_from_perturbed_construction():
    m, s, x = _anchored_triangle()
    rng = np.random.default_rng(3)
    res = newton_solve(s, x + 0.05 * rng.normal(size=x.shape))
    assert res.converged and res.residual_norm <= 1e-9
    construction = zoo.triangle_construction()
    sol = res.assignment
    assert sol[4] == pytest.approx(construction["P3"][0], abs=1e-7)
    assert sol[5] == pytest.approx(construction["P3"][1], abs=1e-7)


def test_newton_inconsistent_triangle():
    m = zoo.three_distances_model(10, 10, 25)
    s = add_anchors(compile_model(m), m)
    res = newton_solve(s, assignment_from_params(m, s))
    assert res.status == "inconsistent"
    assert res.residual_norm > 1e-3


def test_newton_quadratic_convergence():
    m, s, x = _anchored_triangle()
    rng = np.random.default_rng(11)
    start = x * (1.0 + 0.01 * rng.normal(size=x.shape))
    history = []
    for cap in range(0, 12):
        res = newton_solve(s, start, max_iter=cap)
        history.append(res.residual_norm)
        if res.converged:
            break
    tail = [r for r in history if 1e-12 < r]
    assert len(tail) >= 3
    r1, r2, r3 = tail[-3], tail[-2], tail[-1]
    # quadratic: log-reduction at least ~1.5x the previous one
    assert math.log(r2 / r3) >= 1.5 * math.log(r1 / r2) or r3 <= 1e-10


def test_solve_is_newton_then_gauss_newton_from_the_same_start():
    m, s, x = _anchored_triangle()
    start = x + 0.05 * np.random.default_rng(3).normal(size=x.shape)
    newton = newton_solve(s, start)
    res = solve(s, start)
    assert newton.converged and res.iterations == newton.iterations
    assert np.array_equal(res.assignment, newton.assignment)
    # Newton stalls on the impossible triangle; Gauss-Newton restarts from
    # the sketch, not from where Newton stopped
    m = zoo.three_distances_model(10, 10, 25)
    s = add_anchors(compile_model(m), m)
    start = assignment_from_params(m, s)
    assert not newton_solve(s, start, max_iter=7).converged
    res = solve(s, start, max_iter=7)
    gauss_newton = optimize_solve(s, start, max_iter=7)
    assert (res.status, res.iterations) == (gauss_newton.status, gauss_newton.iterations)
    assert np.array_equal(res.assignment, gauss_newton.assignment)


def test_optimize_consistently_overconstrained():
    # k4 with mutually consistent distance values: one redundant equation
    m = zoo.k4_model()
    s = add_anchors(compile_model(m), m)
    res = optimize_solve(s, assignment_from_params(m, s) + 0.01)
    assert res.converged and res.residual_norm <= 1e-9


def test_optimize_underconstrained():
    from gcskernel.model import Model
    m = zoo.three_distances_model()
    partial = Model(m.dimension, m.entities, m.constraints[:1])
    s = compile_model(partial)
    res = optimize_solve(s, assignment_from_params(partial, s) + 0.3)
    assert res.converged


def test_newton_solves_anchored_tetrahedron():
    m = zoo.tetrahedron_model()
    s = add_anchors(compile_model(m), m)
    x0 = assignment_from_params(m, s)
    rng = np.random.default_rng(5)
    res = newton_solve(s, x0 + 0.02 * rng.normal(size=x0.shape))
    assert res.converged and res.residual_norm <= 1e-9


def test_optimize_inconsistent_linear_pair():
    s = linear_system([[1.0], [1.0]], [0.0, 1.0], ["x"])
    res = optimize_solve(s, np.array([0.7]))
    assert res.status == "inconsistent"
    assert float(res.residuals @ res.residuals) == pytest.approx(0.5, abs=1e-9)
    assert res.assignment[0] == pytest.approx(0.5, abs=1e-6)


@pytest.mark.parametrize("solver", [newton_solve, optimize_solve, solve])
def test_slice_moves_only_its_columns(solver):
    # x0 + x1 = 3 is the only row solved; x1 and x2 are outside the slice.
    # The huge fixed x2 must not enter the stall test (1e-13 * |x| would be
    # 10 here, larger than the step, and read as inconsistent).
    s = linear_system([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]], [3.0, 9.0])
    r = solver(s, [0.5, 2.0, 1e14], rows=[0], cols=[0])
    assert r.converged, r.status
    assert r.assignment[0] == pytest.approx(1.0, abs=1e-12)
    assert (r.assignment[1], r.assignment[2]) == (2.0, 1e14)


@pytest.mark.parametrize("solver", [newton_solve, optimize_solve, solve])
def test_non_finite_start_diverges(solver):
    # lstsq refuses a NaN Jacobian; that failure is "diverged", never a
    # constraint state
    m, s, x = _anchored_triangle()
    x[3] = math.nan
    res = solver(s, x)
    assert res.status == "diverged"
