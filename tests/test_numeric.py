import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcskernel import (
    add_anchors,
    assignment_from_params,
    cokernel_groups,
    compile_model,
    eval_jacobian,
    eval_residuals,
    generate_witness,
    linear_system,
    newton_solve,
    numeric,
    optimize_solve,
    rank_of,
    solve,
    witness,
)
from gcskernel import zoo
from gcskernel.cli import main as gcs_main
from gcskernel.compiler import AnchorError, induced
from gcskernel.model import load_model
from gcskernel.numeric import RESIDUAL_TOL, SolveResult
from gcskernel.structural import scc_plan

ROOT = Path(__file__).resolve().parents[1]


def test_identity_rank():
    assert rank_of(np.eye(6)) == 6
    assert cokernel_groups(np.eye(6), 6) == ()


def test_collinear_three_distance_rank_five():
    m = zoo.three_distances_model()
    s = add_anchors(compile_model(m), m)
    collinear = np.array([0.0, 0.0, 10.0, 0.0, 20.0, 0.0])
    assert rank_of(eval_jacobian(s, collinear)) == 5


def test_lindep2_rank_and_cokernel():
    s = zoo.lindep2_system()
    J = eval_jacobian(s, np.zeros(3))
    assert J.shape == (5, 3)
    assert rank_of(J) == 3
    groups = cokernel_groups(J, 3)
    assert len(groups) == 2  # one per cokernel basis vector
    for group in groups:
        assert rank_of(J[list(group)]) < len(group)


def test_dependent_group_rows_are_dependent():
    rng = np.random.default_rng(0)
    J = rng.normal(size=(4, 7))
    J[3] = J[0] + 2 * J[1]  # force a row dependency
    assert rank_of(J) == 3
    assert cokernel_groups(J, 3) == ((0, 1, 3),)


def test_empty_and_nonfinite():
    assert rank_of(np.zeros((0, 3))) == 0 and cokernel_groups(np.zeros((0, 3)), 0) == ()
    # a matrix without columns: every row is dependent on its own
    assert rank_of(np.zeros((2, 0))) == 0
    assert cokernel_groups(np.zeros((2, 0)), 0) == ((0,), (1,))
    with pytest.raises(ValueError):
        rank_of(np.array([[np.inf, 1.0]]))


@settings(max_examples=40)
@given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(1, 8))
def test_rank_invariances(seed, m, n):
    rng = np.random.default_rng(seed)
    J = rng.normal(size=(m, n))
    base = rank_of(J)
    P = rng.permutation(np.eye(m))
    Q = rng.permutation(np.eye(n))
    assert rank_of(P @ J @ Q) == base
    c = float(rng.uniform(0.1, 50.0))
    assert rank_of(c * J) == base


@settings(max_examples=40)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
def test_constructed_rank(seed, m, n, k):
    k = min(k, m, n)
    rng = np.random.default_rng(seed)
    J = rng.normal(size=(m, k)) @ rng.normal(size=(k, n))
    assert rank_of(J) == k


@st.composite
def planted_rank_stacks(draw):
    """A stack of 1-6 matrices of one shape, each a random factor product of a
    planted rank with its rows scaled by up to 1e6."""
    count, m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    stack = []
    for _ in range(count):
        k = int(rng.integers(0, min(m, n) + 1))
        J = rng.normal(size=(m, k)) @ rng.normal(size=(k, n))
        stack.append(J * 10.0 ** rng.uniform(0.0, 6.0, size=(m, 1)))
    return np.array(stack)


@settings(max_examples=60)
@given(planted_rank_stacks())
def test_rank_of_matches_one_full_svd_per_matrix(stack):
    ranks = [rank_of(J) for J in stack]
    assert ranks == [reference_rank_analysis(J)[0] for J in stack]
    assert rank_of(stack).tolist() == ranks


def reference_rank_analysis(J):
    """The rank and dependent row groups by one full SVD: the rank from its
    own singular values, a group per column of U[:, rank:] (the rows above
    SUPPORT_TOL), the identity's columns for a matrix without columns."""
    m, n = J.shape
    if m == 0 or n == 0:
        return 0, tuple((i,) for i in range(m))
    U, s, _ = np.linalg.svd(J)
    rank = int(np.sum(s > numeric.RANK_REL_TOL * s[0] + 1e-12 * (s[0] <= 0.0)))
    groups = (tuple(int(i) for i in np.flatnonzero(np.abs(U[:, k]) > numeric.SUPPORT_TOL))
              for k in range(rank, m))
    return rank, tuple(g for g in groups if g)


@st.composite
def gapped_matrices(draw):
    """An m x n matrix (m, n in 0..7) of planted rank k, with its k singular
    values in [1, 1e3] and the rest zero: rank-deficient, full-rank, zero,
    empty and column-less shapes, all with a clear singular-value gap."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    k = draw(st.integers(0, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    U = np.linalg.qr(rng.normal(size=(m, m)))[0] if m else np.zeros((0, 0))
    V = np.linalg.qr(rng.normal(size=(n, n)))[0] if n else np.zeros((0, 0))
    s = rng.uniform(1.0, 1e3, size=k)
    return (U[:, :k] * s) @ V[:, :k].T


@settings(max_examples=80)
@given(gapped_matrices())
def test_rank_of_and_cokernel_groups_match_one_full_svd(J):
    rank = rank_of(J)
    assert (rank, cokernel_groups(J, rank)) == reference_rank_analysis(J)


def test_rank_of_empty_zero_and_nonfinite():
    assert rank_of(np.zeros((0, 3))) == 0
    assert rank_of(np.zeros((3, 0))) == 0
    assert rank_of(np.zeros((4, 0, 3))).tolist() == [0, 0, 0, 0]
    assert rank_of(np.zeros((2, 2))) == 0
    assert rank_of([1.0, 2.0]) == 1  # a vector is one row
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError):
            rank_of(np.array([[bad, 1.0]]))
        with pytest.raises(ValueError):
            rank_of(np.array([np.eye(2), [[1.0, bad], [0.0, 1.0]]]))


# --- rank_of's gap: singular values designed on either side of the band edges ----

# multiples of the threshold tau around the band (tau / gap, tau * gap]: each
# edge from just inside and just outside, tau itself, and clear values
TAU_MULTIPLES = ["zero", 1e-3, "0.99/gap", "1.01/gap", 0.99, 1.01, "0.99*gap", "1.01*gap",
                 1e3, 1e6]


def designed_singular_values(draw, k, gap):
    """k singular values: the largest 1, the rest multiples of its threshold
    1e-8 drawn from TAU_MULTIPLES, sorted descending."""
    tau = numeric.RANK_REL_TOL
    values = {"zero": 0.0, "0.99/gap": 0.99 / gap, "1.01/gap": 1.01 / gap,
              "0.99*gap": 0.99 * gap, "1.01*gap": 1.01 * gap}
    rest = [tau * values.get(t, t) for t in draw(st.lists(st.sampled_from(TAU_MULTIPLES),
                                                          min_size=k - 1, max_size=k - 1))]
    return np.array(sorted([1.0] + rest, reverse=True))


def designed_matrix(s, m, n, scale, rng):
    """U diag(scale * s) V^T for random orthogonal U (m x m) and V (n x n)."""
    U = np.linalg.qr(rng.normal(size=(m, m)))[0]
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return (U[:, :len(s)] * (scale * s)) @ V[:, :len(s)].T


def reference_gapped_rank(s, gap):
    """The rank the singular values s (descending) give: -1 when one lies in
    (tau / gap, tau * gap], else the count above tau = 1e-8 * s[0]."""
    tau = numeric.RANK_REL_TOL * s[0]
    if any(tau / gap < v <= tau * gap for v in s):
        return -1
    return sum(1 for v in s if v > tau)


@st.composite
def designed_stacks(draw):
    """(gap, a stack of 1-4 m x n matrices of designed singular values with
    one scale, the reference rank of each)."""
    gap = draw(st.sampled_from([1.0, 10.0, numeric.RANK_GAP]))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.integers(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    stack, ranks = [], []
    for _ in range(draw(st.integers(1, 4))):
        s = designed_singular_values(draw, min(m, n), gap)
        stack.append(designed_matrix(s, m, n, scale, rng))
        ranks.append(reference_gapped_rank(s, gap))
    return gap, np.array(stack), ranks


@settings(max_examples=300)
@given(designed_stacks())
def test_rank_of_with_a_gap_matches_designed_singular_values(case):
    # a 2D matrix, a stack and a stack of one decide alike; with no gap
    # (gap 1) nothing is declined
    gap, stack, ranks = case
    one_by_one = [rank_of(J, numeric.RANK_REL_TOL, gap) for J in stack]
    assert one_by_one == ranks and all(type(rank) is int for rank in one_by_one)
    assert rank_of(stack, numeric.RANK_REL_TOL, gap).tolist() == ranks
    if gap == 1.0:
        assert min(ranks) >= 0


def test_rank_of_with_a_gap_on_empty_and_zero_shapes():
    gap = numeric.RANK_GAP
    assert rank_of(np.zeros((0, 3)), numeric.RANK_REL_TOL, gap) == 0
    assert rank_of(np.zeros((3, 0)), numeric.RANK_REL_TOL, gap) == 0
    assert rank_of(np.zeros((4, 0, 3)), numeric.RANK_REL_TOL, gap).tolist() == [0] * 4
    assert rank_of(np.zeros((0, 3, 3)), numeric.RANK_REL_TOL, gap).shape == (0,)
    assert rank_of(np.zeros((2, 2)), numeric.RANK_REL_TOL, gap) == 0
    assert rank_of(np.zeros((1, 2, 2)), numeric.RANK_REL_TOL, gap).tolist() == [0]


def test_a_stack_of_one_takes_the_2d_svd(recording_svd):
    J = np.random.default_rng(0).normal(size=(1, 3, 4))
    for gap in (1.0, numeric.RANK_GAP):
        recording_svd.clear()
        ranks = rank_of(J, numeric.RANK_REL_TOL, gap)
        assert recording_svd == [((3, 4), False)]
        assert ranks.shape == (1,) and ranks.tolist() == [3]
    recording_svd.clear()
    assert rank_of(np.concatenate([J, J])).tolist() == [3, 3]
    assert recording_svd == [((2, 3, 4), False)]


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
    r = solver(s.select([0]), [0.5, 2.0, 1e14], cols=[0])
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


# --- block steps ---------------------------------------------------------------

def lstsq_newton(system, start, max_iter=100, tol=RESIDUAL_TOL):
    """Newton with a dense lstsq step at every iteration, under the policy of
    :func:`newton_solve`: the reference for the block step."""
    def max_abs(r):
        return float(np.max(np.abs(r))) if r.size else 0.0

    x = np.array(start, dtype=float)
    r = eval_residuals(system, x)
    grew = stalled = 0
    prev = best = max_abs(r)
    for it in range(max_iter):
        if max_abs(r) <= tol:
            return SolveResult("converged", x, max_abs(r), it, r)
        J = eval_jacobian(system, x)
        try:
            step = np.linalg.lstsq(J, -r, rcond=None)[0]
        except np.linalg.LinAlgError:
            return SolveResult("diverged", x, max_abs(r), it, r)
        if np.linalg.norm(step) <= 1e-13 * (1.0 + np.linalg.norm(x)):
            return SolveResult("inconsistent", x, max_abs(r), it, r)
        x += step
        r = eval_residuals(system, x)
        cur = max_abs(r)
        grew = grew + 1 if cur > prev else 0
        if grew >= 3:
            return SolveResult("diverged", x, cur, it + 1, r)
        if cur < best * (1.0 - 1e-3):
            best = cur
            stalled = 0
        else:
            stalled += 1
            if stalled >= 10:
                return SolveResult("inconsistent", x, cur, it + 1, r)
        prev = cur
    status = "converged" if max_abs(r) <= tol else "max-iterations"
    return SolveResult(status, x, max_abs(r), max_iter, r)


def anchored(model):
    system = compile_model(model)
    try:
        return add_anchors(system, model)
    except AnchorError:
        return system


def jittered_start(model, system, seed, rel=0.01):
    """The sketch moved by ``rel`` times the largest distance value."""
    scale = rel * max((c.value for c in model.constraints if c.kind == "distance-pp"),
                      default=1.0)
    rng = np.random.default_rng(seed)
    x = assignment_from_params(model, system)
    return x + scale * rng.normal(size=x.shape)


@st.composite
def henneberg_frameworks(draw):
    """Anchored minimally rigid 2D bar frameworks with a jittered start.

    3-9 points in general position, grown from a triangle by Henneberg moves:
    a new point on two old ones, or on three with one old bar removed.  The
    second move gives solve plans with blocks of up to 15 rows.
    """
    n = draw(st.integers(3, 9))
    edges = [(0, 1), (1, 2), (0, 2)]
    for k in range(3, n):
        if draw(st.booleans()):
            a, b = edges.pop(draw(st.integers(0, len(edges) - 1)))
            c = draw(st.sampled_from([i for i in range(k) if i not in (a, b)]))
            edges += [(a, k), (b, k), (c, k)]
        else:
            a, b = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
            edges += [(a, k), (b, k)]
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    coords = {f"P{i}": tuple(rng.uniform(-5.0, 5.0, size=2)) for i in range(n)}
    model = zoo.points_distances_model(coords, [(f"P{a}", f"P{b}") for a, b in edges])
    system = add_anchors(compile_model(model), model)
    return system, jittered_start(model, system, seed, rel=0.02), slice(None)


@st.composite
def strip_slices(draw):
    """A jittered triangle strip, whole or as the anchored slice of its first
    k triangles (a decomposed solve's leaf: the other columns stay fixed)."""
    n = draw(st.integers(3, 60))
    k = draw(st.integers(1, n))
    model = zoo.triangle_strip(n)
    system = compile_model(model)
    x = jittered_start(model, system, draw(st.integers(0, 2**16)))
    if k == n:
        return add_anchors(system, model), x, slice(None)
    ents = [f"P{i}" for i in range(1, k + 3)]
    leaf = add_anchors(system, model, ents)
    _, rows = induced(model, system, ents)
    return leaf.select(rows + list(range(system.n_residuals, leaf.n_residuals))), x, \
        system.columns_of(ents)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.one_of(henneberg_frameworks(), strip_slices()))
def test_block_step_equals_lstsq_step(case):
    system, x, cols = case
    J = eval_jacobian(system, x)[:, cols]
    r = eval_residuals(system, x)
    block_step = numeric._block_step(system, cols)
    assert block_step is not None  # rigid and anchored: a perfect matching
    step = block_step(J, r)
    assert step is not None  # generic: no singular block
    expected = np.linalg.lstsq(J, -r, rcond=None)[0]
    # two solves of J s = -r differ by about cond(J) * eps: up to 1e-12 at
    # cond(J) = 1e4, which only near-degenerate draws exceed
    bound = 1e-12 * max(1.0, np.linalg.cond(J) / 1e4)
    assert np.linalg.norm(step - expected) <= bound * np.linalg.norm(expected)


def corpus_models():
    out = []
    for path in sorted((ROOT / "corpus").glob("*.json")):
        if json.loads(path.read_text(encoding="utf-8")).get("dimension"):
            out.append(pytest.param(load_model(str(path)), id=path.stem))
    return out


def assert_same_newton(system, start):
    got = newton_solve(system, start)
    expected = lstsq_newton(system, start)
    assert (got.status, got.iterations) == (expected.status, expected.iterations)
    # a failed Newton's last iterate is no solution: ``solve`` restarts
    # Gauss-Newton from the start (the jittered impossible triangle runs off
    # to 1e10 on both paths)
    if got.converged:
        assert np.max(np.abs(got.assignment - expected.assignment)) <= 1e-9


def old_block_rule_singular(A: np.ndarray) -> bool:
    """The block step's singularity test before it used ``rank_of``: a 1 x 1
    block is singular when it is zero or not finite, a larger one when its
    smallest singular value is not above 1e-8 times its largest."""
    if not np.isfinite(A).all():
        return True
    if A.shape == (1, 1):
        return A[0, 0] == 0.0
    s = np.linalg.svd(A, compute_uv=False)
    return not s[-1] > numeric.RANK_REL_TOL * s[0]


@st.composite
def diagonal_blocks(draw):
    """Square blocks of sizes 1-4: generic, zero, scaled by 1e-300 to 1e300,
    rank-deficient, with singular values a factor near 1e-8 apart, and
    holding a non-finite entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    blocks = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 4))
        kind = draw(st.sampled_from(["generic", "zero", "scaled", "deficient", "gap", "nan"]))
        A = rng.normal(size=(n, n))
        if kind == "zero":
            A = np.zeros((n, n))
        elif kind == "scaled":
            A *= 10.0 ** draw(st.sampled_from([-300, -150, -8, 8, 150, 300]))
        elif kind == "deficient" and n > 1:
            A = rng.normal(size=(n, n - 1)) @ rng.normal(size=(n - 1, n))
        elif kind == "gap":
            U, _, Vt = np.linalg.svd(rng.normal(size=(n, n)))
            ratio = 1e-8 * draw(st.sampled_from([0.5, 0.999, 1.001, 2.0]))
            A = U @ np.diag([1.0] * (n - 1) + [ratio if n > 1 else 1.0]) @ Vt
        elif kind == "nan":
            A[tuple(rng.integers(n, size=2))] = draw(st.sampled_from([np.nan, np.inf]))
        blocks.append(A)
    return blocks


@settings(derandomize=True, deadline=None, max_examples=300)
@given(diagonal_blocks())
def test_block_step_singularity_is_the_old_block_rule(blocks):
    # a block-diagonal J: one plan block per diagonal block, each equation
    # reading every variable of its block
    n = sum(len(A) for A in blocks)
    J = np.zeros((n, n))
    adjacency, plan = [], []
    start = 0
    for A in blocks:
        own = list(range(start, start + len(A)))
        J[start:start + len(A), start:start + len(A)] = A
        adjacency += [own] * len(A)
        plan.append((own, own))
        start += len(A)
    r = np.ones(n)
    with np.errstate(all="ignore"):
        step = numeric._BlockStep(adjacency, plan)(J, r)
        singular = any(old_block_rule_singular(A) for A in blocks)
        if step is None and not singular:
            # the old rule passed every block, and only a non-finite step
            # (an inverse past the float range) returns None
            expected = np.concatenate([np.linalg.solve(A, -np.ones(len(A))) for A in blocks])
            assert not np.isfinite(expected).all()
        else:
            assert (step is None) == singular


@pytest.mark.parametrize("model", corpus_models())
def test_block_newton_matches_lstsq_newton_on_the_corpus(model, monkeypatch):
    # every corpus model sits below BLOCK_STEP_MIN_ROWS: take block steps anyway
    monkeypatch.setattr(numeric, "BLOCK_STEP_MIN_ROWS", 0)
    system = anchored(model)
    assert_same_newton(system, assignment_from_params(model, system))
    for seed in (1, 2):
        assert_same_newton(system, jittered_start(model, system, seed))


@pytest.mark.parametrize("n", [12, 24, 48, 100, 200, 400])
def test_block_newton_matches_lstsq_newton_on_jittered_strips(n, monkeypatch):
    plans = []
    monkeypatch.setattr(numeric, "scc_plan", lambda *a: plans.append(a) or scc_plan(*a))
    monkeypatch.setattr(numeric, "BLOCK_STEP_MIN_ROWS", 0)
    model = zoo.triangle_strip(n)
    system = anchored(model)
    assert_same_newton(system, jittered_start(model, system, seed=n))
    assert len(plans) == 1


def test_margins_leave_the_substitution_arrays_to_the_first_step(monkeypatch):
    # a witness certificate reads only the diagonal blocks
    plans = []
    monkeypatch.setattr(witness, "_block_step",
                        lambda *args: plans.append(numeric._block_step(*args)) or plans[-1])
    model = zoo.triangle_strip(24)
    system = compile_model(model)
    w = generate_witness(system, model, seed=1)
    dor = rank_of(w.motions)
    assert witness.full_row_rank_certificate(system, w.motions, dor)(w.jacobian)
    [block_step] = plans
    assert "_substitution" not in vars(block_step)
    cols = np.setdiff1d(np.arange(system.n_variables), witness._frame(system, w.motions, dor))
    r = eval_residuals(system, w.assignment)
    assert block_step(w.jacobian[:, cols], r) is not None
    assert "_substitution" in vars(block_step)


def test_block_steps_start_at_the_row_threshold(monkeypatch):
    plans = []
    monkeypatch.setattr(numeric, "scc_plan", lambda *a: plans.append(a) or scc_plan(*a))
    for n, built in ((12, 0), (24, 1)):  # 28 and 52 rows
        model = zoo.triangle_strip(n)
        system = anchored(model)
        result = newton_solve(system, jittered_start(model, system, seed=1))
        assert result.converged
        # a solve that converges at iteration 0 builds no plan
        assert newton_solve(system, result.assignment).iterations == 0
        assert len(plans) == built, n
        plans.clear()


@pytest.mark.parametrize("name", ["k4", "square4", "double-banana",
                                  "three-lines-three-angles", "parallel-lines",
                                  "plane-prism"])
def test_fallback_solves_report_as_before(name, monkeypatch):
    # non-square, or with a singular block: the lstsq step, bit for bit
    monkeypatch.setattr(numeric, "BLOCK_STEP_MIN_ROWS", 0)
    monkeypatch.chdir(ROOT)
    argv = ["--format", "json", "solve", f"corpus/{name}.json", "--strategy", "direct"]
    cases = json.loads((ROOT / "tests" / "golden" / "cli.json").read_text(encoding="utf-8"))
    case = next(c for c in cases["cases"] if c["argv"] == argv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = gcs_main(argv)
    assert (out.getvalue(), code) == (case["stdout"], case["exit"])


def test_singular_block_step_is_dropped_for_the_rest_of_the_solve(monkeypatch):
    # double-banana's solve plan has a singular block at every step: the block
    # step is tried at the first step only, and the solve takes the lstsq steps
    # it takes below the row threshold
    model = zoo.double_banana_model()
    system = anchored(model)
    starts = [assignment_from_params(model, system)]
    starts += [jittered_start(model, system, seed) for seed in (1, 2)]
    expected = [newton_solve(system, start) for start in starts]
    calls = []
    real = numeric._block_step

    def counting(*args):
        block_step = real(*args)
        assert block_step is not None

        def call(J, r):
            calls.append(1)
            return block_step(J, r)
        return call

    monkeypatch.setattr(numeric, "_block_step", counting)
    monkeypatch.setattr(numeric, "BLOCK_STEP_MIN_ROWS", 0)
    for start, reference in zip(starts, expected):
        del calls[:]
        got = newton_solve(system, start)
        assert (got.status, got.iterations) == (reference.status, reference.iterations)
        assert np.array_equal(got.assignment, reference.assignment)
        assert reference.iterations > 1 and len(calls) == 1
