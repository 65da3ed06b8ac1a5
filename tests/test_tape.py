"""The vectorised tape evaluation against a scalar forward walk over each
row's ops: the same residuals and Jacobians, bit for bit, on the corpus, on
strips, on rows drawn through the operand handle, on row selections and on
derived systems.  ``np.sin``/``np.cos`` may differ from ``math.sin``/
``math.cos`` in the last ulp on some platforms, so rows that hold a sine or
cosine may differ by 1e-15 relative; every other row must be equal.  Every
emitted row ends at its root and holds only ops its root reaches."""

import gc
import operator
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from gcskernel import add_anchors, compile_model, eval_jacobian, eval_residuals, zoo
from gcskernel import compiler, decompose
from gcskernel import expr as ex
from gcskernel.cli import _load
from gcskernel.compiler import AnchorError, ResidualSystem, Variable, add_constraints
from gcskernel.model import Constraint

from conftest import CORPUS, row_eval_with_grad, row_ops, row_variables

CORPUS_FILES = sorted(CORPUS.glob("*.json"))


def has_trig(ops) -> bool:
    return any(code in (ex.SIN, ex.COS) for code, _, _, _ in ops)


def assert_equal(got, expected, trig: bool):
    if trig:
        np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)
    else:
        assert np.array_equal(got, expected), (got, expected)


def assert_matches_interpreter(system, x, rows=None):
    """Every row of ``system``, or of its selection of ``rows``, against the
    interpreter on the same row of ``system``."""
    picked = range(system.n_residuals) if rows is None else rows
    selected = system if rows is None else system.select(rows)
    residuals = eval_residuals(selected, x)
    jacobian = eval_jacobian(selected, x)
    assert residuals.shape == (len(picked),)
    assert jacobian.shape == (len(picked), system.n_variables)
    for k, i in enumerate(picked):
        ops = row_ops(system, i)
        value, grad = row_eval_with_grad(ops, x)
        row = np.zeros(system.n_variables)
        for j, d in grad.items():
            row[j] = d
        trig = has_trig(ops)
        assert_equal(residuals[k], value, trig)
        assert_equal(jacobian[k], row, trig)
        assert system.adjacency[i] == selected.adjacency[k] == tuple(sorted(row_variables(ops)))


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
BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


@st.composite
def drawn_rows(draw):
    """A tape of rows over the seven ops, written through the operand handle.
    Each row reuses its own ops as operands, uses a variable in several
    slots through two var handles of one variable, and ends at the last
    operand drawn (a leaf or the last op).  Returns the tape and its number
    of rows."""
    values = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
    tape = ex.Tape()
    n_rows = draw(st.integers(1, 5))
    for _ in range(n_rows):
        pool = [tape.var(j) for j in range(N_VARS)]
        pool.append(tape.var(draw(st.integers(0, N_VARS - 1))))
        pool.append(draw(values))
        for _ in range(draw(st.integers(0, 14))):
            op = draw(st.sampled_from(["const", "var", "add", "sub", "mul", "sin", "cos"]))
            if op == "const":
                pool.append(draw(values))
            elif op == "var":
                pool.append(tape.var(draw(st.integers(0, N_VARS - 1))))
            elif op in ("sin", "cos"):
                code = ex.SIN if op == "sin" else ex.COS
                pool.append(tape.op(code, draw(st.sampled_from(pool))))
            else:
                pool.append(BINARY[op](draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
        tape.end_row(pool[-1])
    return tape, n_rows


@settings(max_examples=150, deadline=None)
@given(drawn_rows(), st.lists(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
                              min_size=N_VARS, max_size=N_VARS), st.data())
def test_drawn_rows_match_the_interpreter(drawn, x, data):
    tape, n_rows = drawn
    x = np.array(x)
    for i in range(n_rows):
        value, grad = row_eval_with_grad(list(tape.ops(i)), x)
        assume(np.isfinite(value) and all(np.isfinite(d) for d in grad.values()))
    variables = tuple(Variable(j, f"x{j}", 0, f"x{j}") for j in range(N_VARS))
    names = [(f"E{i}", "constraint", f"E{i}", False) for i in range(n_rows)]
    system = ResidualSystem.over(0, variables)._extend(tape, names)
    assert_matches_interpreter(system, x)
    rows = data.draw(st.lists(st.integers(0, n_rows - 1), max_size=6))
    assert_matches_interpreter(system, x, rows)
    # the tape's first row again, as a second segment of a derived system
    derived = system._extend(tape, names[:1])
    assert_matches_interpreter(derived, x)


def test_rows_end_at_their_root_and_keep_their_operands():
    tape = ex.Tape()
    x = tape.var(0)
    square = x * x
    x + x
    with pytest.raises(ValueError):
        tape.end_row(square)  # the row's last op is x + x
    tape = ex.Tape()
    x = tape.var(0)
    square = x * x
    tape.end_row(square)
    with pytest.raises(ValueError):
        tape.var(1) + square  # an op of the ended row
    with pytest.raises(ValueError):
        ex.Tape().op(ex.SIN, square)  # an op of another tape


def emitted_systems():
    """The corpus as gcs loads it, and strips 3-400 compiled and anchored."""
    for path in CORPUS_FILES:
        yield _load(str(path))[1]
    for n in range(3, 401):
        model = zoo.triangle_strip(n)
        yield add_anchors(compile_model(model), model)


def test_emitted_rows_hold_only_what_their_root_reaches():
    shapes = {}
    for system in emitted_systems():
        for tape, rows in system.segments:
            for i in rows:
                shapes.setdefault(tape.rows[i][0], (tape, i))
    for tape, i in shapes.values():
        ops = list(tape.ops(i))
        reached = {len(ops) - 1}
        for at in range(len(ops) - 1, -1, -1):
            code, a, b, _ = ops[at]
            if at in reached and code > ex.VAR:
                reached |= {a, b}
        assert reached == set(range(len(ops))), ops
    # one structure per constraint kind and entity kinds, as many as before
    assert len(shapes) <= 12


def test_rows_of_equal_structure_share_one_schedule():
    model = zoo.triangle_strip(12)
    system = add_anchors(compile_model(model), model)
    plans = [system.select(rows).plan for rows in ([0, 1, 2], [3, 4, 5], [6, 8, 9])]
    assert plans[0].schedule is plans[1].schedule is plans[2].schedule


def test_row_index_errors():
    system = compile_model(zoo.triangle_strip(3))
    for row in (system.n_residuals, -1):
        with pytest.raises(IndexError):
            system.select([0, row])
    empty = system.select([])
    assert empty.n_residuals == 0 and empty.n_variables == system.n_variables
    assert eval_residuals(empty, np.zeros(system.n_variables)).shape == (0,)
    assert eval_jacobian(empty, np.zeros(system.n_variables)).shape == \
        (0, system.n_variables)


def test_select_evaluates_the_parent_rows():
    """A selection, in its own row order across the parent's segments,
    evaluates bit for bit as the same rows of the parent, and keeps their
    names, kinds and sources under indices renumbered from 0."""
    model = zoo.triangle_model()
    system = compile_model(model)
    bonded = add_anchors(add_constraints(system, model, [
        Constraint("vbond:P1-P3", "distance-pp", ("P1", "P3"), 1.5)]), model)
    assert len(bonded.segments) == 4  # constraints, normalizations, bond, anchors
    n = bonded.n_residuals
    rows = [n - 1, 0, system.n_residuals, 3, n - 2, 1, system.n_residuals - 1]
    selected = bonded.select(rows)
    assert [r.index for r in selected.residuals] == list(range(len(rows)))
    assert [r._replace(index=0) for r in selected.residuals] == \
        [bonded.residuals[i]._replace(index=0) for i in rows]
    assert selected.select(range(len(rows))).residuals == selected.residuals
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.uniform(-2.0, 2.0, bonded.n_variables)
        assert np.array_equal(eval_residuals(selected, x), eval_residuals(bonded, x)[rows])
        assert np.array_equal(eval_jacobian(selected, x), eval_jacobian(bonded, x)[rows])


def test_solve_tree_keeps_no_plan_alive(monkeypatch):
    """The merge checks of a top-down strip evaluate selections of the
    shared system; none of their plans outlives the solve."""
    model = zoo.triangle_strip(100)
    system = compile_model(model)
    tree = decompose.top_down(model)
    plans = []
    real_init = ex.Plan.__init__

    def record(self, *args):
        plans.append(weakref.ref(self))
        real_init(self, *args)

    monkeypatch.setattr(ex.Plan, "__init__", record)
    _, _, certificate = decompose.solve_tree(model, tree, system=system)
    assert certificate.converged
    gc.collect()
    assert len(plans) > 1
    assert sum(ref() is not None for ref in plans) <= 1


def test_solve_tree_emits_the_base_tape_once(monkeypatch):
    """A leaf that derives a system with its bonds and anchors must emit a
    tape for those rows only, never again for the compiled strip (the
    strip's triangle leaves are constructed and derive none)."""
    model = zoo.triangle_strip(48)
    tree = decompose.top_down(model)
    n_rows = compile_model(model).n_residuals
    tapes: list[ex.Tape] = []
    real_init = ex.Tape.__init__

    def record(self):
        tapes.append(self)
        real_init(self)

    monkeypatch.setattr(ex.Tape, "__init__", record)
    _, _, certificate = decompose.solve_tree(model, tree)
    assert certificate.converged
    emitted = [len(tape.rows) for tape in tapes]
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
