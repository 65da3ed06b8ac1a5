"""The flat residual tape against a copy of the recursive interpreter it
replaced: the same residuals and Jacobians, bit for bit, on the corpus,
on strips, on drawn expression trees, on row slices and on derived systems.
``np.sin``/``np.cos`` may differ from ``math.sin``/``math.cos`` in the last
ulp on some platforms, so rows that hold a sine or cosine may differ by
1e-15 relative; every other row must be equal."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gcskernel import add_anchors, compile_model, eval_jacobian, eval_residuals, zoo
from gcskernel import compiler, decompose
from gcskernel import expr as ex
from gcskernel.cli import _load
from gcskernel.compiler import (AnchorError, Residual, ResidualSystem, Variable,
                                add_constraints)
from gcskernel.model import Constraint

from conftest import CORPUS, tree_eval_with_grad, tree_variables

CORPUS_FILES = sorted(CORPUS.glob("*.json"))


def has_trig(e) -> bool:
    return e.op in ("sin", "cos") or any(has_trig(a) for a in e.args)


def assert_equal(got, expected, trig: bool):
    if trig:
        np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)
    else:
        assert np.array_equal(got, expected), (got, expected)


def assert_matches_interpreter(system, x, rows=None):
    picked = range(system.n_residuals) if rows is None else rows
    residuals = eval_residuals(system, x, rows)
    jacobian = eval_jacobian(system, x, rows)
    assert residuals.shape == (len(picked),)
    assert jacobian.shape == (len(picked), system.n_variables)
    for k, i in enumerate(picked):
        e = system.residuals[i].expression
        value, grad = tree_eval_with_grad(e, x)
        row = np.zeros(system.n_variables)
        for j, d in grad.items():
            row[j] = d
        trig = has_trig(e)
        assert_equal(residuals[k], value, trig)
        assert_equal(jacobian[k], row, trig)
        assert system.adjacency[i] == tuple(sorted(tree_variables(e)))


def slices(n, rng):
    """Row selections: a sorted half, a reversed third and a repeated row."""
    if n == 0:
        return [[]]
    half = sorted(rng.choice(n, size=max(1, n // 2), replace=False).tolist())
    return [half, list(range(n))[::-3], [n - 1, 0, n - 1]]


@pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
def test_corpus_rows_match_the_interpreter(path):
    _, system = _load(str(path))
    rng = np.random.default_rng(len(path.stem))
    for _ in range(3):
        x = rng.uniform(-2.0, 2.0, system.n_variables)
        assert_matches_interpreter(system, x)
        for rows in slices(system.n_residuals, rng):
            assert_matches_interpreter(system, x, rows)


@pytest.mark.parametrize("n", [3, 4, 12, 48, 100, 400])
def test_strip_rows_match_the_interpreter(n):
    model = zoo.triangle_strip(n)
    system = compile_model(model)
    anchored = add_anchors(system, model)
    rng = np.random.default_rng(n)
    x = compiler.assignment_from_params(model, system) + rng.normal(0.0, 0.1, system.n_variables)
    assert_matches_interpreter(anchored, x)
    for rows in slices(anchored.n_residuals, rng):
        assert_matches_interpreter(anchored, x, rows)


@pytest.mark.parametrize("name", ["double-banana", "tetrahedron", "triangle", "seed-demo",
                                  "square4", "parallel-lines", "plane-prism"])
def test_derived_systems_match_the_interpreter(name):
    model, system = _load(str(CORPUS / f"{name}.json"))
    points = [e.id for e in model.entities if e.kind in ("point2", "point3")]
    bonds = [Constraint(f"vbond:{a}-{b}", "distance-pp", (a, b), 1.5)
             for a, b in zip(points, points[2:])]
    bonded = add_constraints(system, model, bonds)
    derived = [bonded]
    try:
        anchored = add_anchors(bonded, model)
        derived += [anchored, anchored.without_anchors(), add_anchors(system, model)]
        # the bonded rows keep their places on the unanchored system
        assert anchored.without_anchors().n_residuals == bonded.n_residuals
    except AnchorError:  # too few points to pin a frame
        assert name in ("parallel-lines", "plane-prism")
    rng = np.random.default_rng(7)
    x = rng.uniform(-2.0, 2.0, system.n_variables)
    for s in derived:
        assert_matches_interpreter(s, x)
        for rows in slices(s.n_residuals, rng):
            assert_matches_interpreter(s, x, rows)


N_VARS = 3


@st.composite
def expression_rows(draw):
    """Rows over the seven ops that share subtrees (within and across rows)
    and use a variable in several slots, through two distinct var nodes of
    one variable."""
    values = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    pool = [ex.var(j) for j in range(N_VARS)]
    pool.append(ex.var(draw(st.integers(0, N_VARS - 1))))
    pool.append(ex.const(draw(values)))
    for _ in range(draw(st.integers(0, 14))):
        op = draw(st.sampled_from(["const", "var", "add", "sub", "mul", "sin", "cos"]))
        if op == "const":
            pool.append(ex.const(draw(values)))
        elif op == "var":
            pool.append(ex.var(draw(st.integers(0, N_VARS - 1))))
        elif op in ("sin", "cos"):
            pool.append(ex.Expr(op, (draw(st.sampled_from(pool)),)))
        else:
            pool.append(ex.Expr(op, (draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))


@settings(max_examples=150, deadline=None)
@given(expression_rows(), st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                                   min_size=N_VARS, max_size=N_VARS), st.data())
def test_drawn_trees_match_the_interpreter(roots, x, data):
    x = np.array(x)
    for e in roots:
        value, grad = tree_eval_with_grad(e, x)
        assume(np.isfinite(value) and all(np.isfinite(d) for d in grad.values()))
    variables = tuple(Variable(j, f"x{j}", 0, f"x{j}") for j in range(N_VARS))
    residuals = [Residual(i, f"E{i}", e, "constraint", f"E{i}", False)
                 for i, e in enumerate(roots)]
    system = ResidualSystem(0, variables, tuple(residuals))
    assert_matches_interpreter(system, x)
    rows = data.draw(st.lists(st.integers(0, len(roots) - 1), max_size=6))
    assert_matches_interpreter(system, x, rows)
    # the same rows appended to a compiled prefix, as a derived system
    derived = ResidualSystem(0, variables, ())._derive(0, residuals)._derive(
        len(residuals), residuals[:1])
    assert_matches_interpreter(derived, x)


def test_rows_of_equal_structure_share_one_schedule():
    model = zoo.triangle_strip(12)
    system = add_anchors(compile_model(model), model)
    plans = [system._plan(rows) for rows in ([0, 1, 2], [3, 4, 5], [6, 8, 9])]
    assert plans[0].schedule is plans[1].schedule is plans[2].schedule
    assert system._plan([0, 1, 2]) is plans[0]


def test_row_index_errors():
    system = compile_model(zoo.triangle_strip(3))
    with pytest.raises(IndexError):
        eval_residuals(system, np.zeros(system.n_variables), [system.n_residuals])
    assert eval_residuals(system, np.zeros(system.n_variables), []).shape == (0,)
    assert eval_jacobian(system, np.zeros(system.n_variables), []).shape == \
        (0, system.n_variables)


def test_solve_tree_emits_the_base_tape_once(monkeypatch):
    """Each leaf derives a system with its bonds and anchors; it must emit a
    tape for those rows only, never again for the compiled strip."""
    model = zoo.triangle_strip(48)
    tree = decompose.top_down(model)
    n_rows = compile_model(model).n_residuals
    emitted: list[int] = []
    real_init = ex.Tape.__init__

    def record(self, roots):
        emitted.append(len(roots))
        real_init(self, roots)

    monkeypatch.setattr(ex.Tape, "__init__", record)
    _, _, certificate = decompose.solve_tree(model, tree)
    assert certificate.converged
    leaves = sum(1 for _ in iter_leaves(tree.roots[0]))
    assert emitted.count(n_rows) == 1
    # every other tape is a leaf's bonds (at most one here) and anchors (three)
    assert all(rows <= 4 for rows in emitted if rows != n_rows)
    assert sum(emitted) <= n_rows + 4 * leaves


def iter_leaves(node):
    if not node.children:
        yield node
    for child in node.children:
        yield from iter_leaves(child)
