import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gcskernel import (
    AnchorError,
    CompileError,
    Constraint,
    Entity,
    Model,
    add_anchors,
    assignment_from_params,
    compile_model,
    dump_equations,
    eval_jacobian,
    eval_residuals,
    full_cross,
    linear_system,
    rank_of,
)
from gcskernel import compiler, expr as ex
from gcskernel.compiler import Residual, ResidualSystem, Variable, add_constraints
from gcskernel.model import CONSTRAINT_KINDS
from gcskernel import zoo

from conftest import assert_jacobian_matches_fd, cross_product_models, point_on_line_3d_model


def test_triangle_counts():
    s = compile_model(zoo.triangle_model())
    assert s.n_residuals == 7
    assert s.n_variables == 10


def test_empty_model():
    s = compile_model(Model(2, (), ()))
    assert s.n_residuals == 0 and s.n_variables == 0
    assert eval_residuals(s, np.zeros(0)).size == 0


def test_three_distance_anchored_counts():
    m = zoo.three_distances_model()
    s = add_anchors(compile_model(m), m)
    assert s.n_residuals == 6
    assert s.n_variables == 6
    assert s.anchor_rows() == [3, 4, 5]


def test_compile_is_deterministic():
    m = zoo.triangle_model()
    a = compile_model(m)
    b = compile_model(m)
    assert a.variable_names() == b.variable_names()
    assert [r.name for r in a.residuals] == [r.name for r in b.residuals]
    assert dump_equations(a) == dump_equations(b)


def test_compile_rejects_invalid_model():
    from gcskernel import Constraint, Entity
    bad = Model(2, (Entity("P1", "point2"),),
                (Constraint("c", "distance-pp", ("P1", "X"), 1.0),))
    with pytest.raises(CompileError):
        compile_model(bad)


def test_anchors_2d_form():
    m = zoo.three_distances_model()
    s = add_anchors(compile_model(m), m)
    names = [r.name for r in s.residuals if r.kind == "anchor"]
    assert names == ["anchor:P1.x", "anchor:P1.y", "anchor:P2.y-P1.y"]
    x = assignment_from_params(m, s)
    r = eval_residuals(s, x)
    # the sketch puts P1 at the origin and P2 on the x axis
    assert np.max(np.abs(r[3:])) <= 1e-12


def test_anchor_errors():
    with pytest.raises(AnchorError):
        m = Model(2, (), ())
        add_anchors(compile_model(m), m)
    from gcskernel import Entity
    m = Model(2, (Entity("P1", "point2", (0, 0)),), ())
    with pytest.raises(AnchorError):
        add_anchors(compile_model(m), m)


def test_anchored_3d_rigid_model_has_full_column_rank():
    m = zoo.tetrahedron_model()
    s = add_anchors(compile_model(m), m)
    assert len(s.anchor_rows()) == 6
    x = assignment_from_params(m, s)
    assert rank_of(eval_jacobian(s, x)) == s.n_variables == 12


def test_triangle_residuals_vanish_at_construction():
    m = zoo.triangle_model()
    s = compile_model(m)
    x = assignment_from_params(m, s)
    assert np.max(np.abs(eval_residuals(s, x))) <= 1e-9


def test_equilateral_configuration_residuals():
    m = zoo.three_distances_model(10, 10, 10)
    s = compile_model(m)
    exact = np.array([0, 0, 10, 0, 5, math.sqrt(75)])
    assert np.max(np.abs(eval_residuals(s, exact))) <= 1e-9
    rounded = np.array([0, 0, 10, 0, 5, 8.6603])
    assert np.max(np.abs(eval_residuals(s, rounded))) <= 1e-3


def test_residual_exact_zero_at_rational_solution():
    m = zoo.three_distances_model(3, 4, 5)
    s = compile_model(m)
    x = np.array([0.0, 0.0, 3.0, 0.0, 3.0, 4.0])
    r = eval_residuals(s, x)
    assert list(r) == [0.0, 0.0, 0.0]


def test_distance_jacobian_row_structure():
    m = zoo.three_distances_model()
    s = compile_model(m)
    x = np.array([0.0, 0.0, 10.0, 0.0, 5.0, math.sqrt(75)])
    J = eval_jacobian(s, x)
    x1, y1, x2, y2 = x[0], x[1], x[2], x[3]
    expected = [-2 * (x2 - x1), -2 * (y2 - y1), 2 * (x2 - x1), 2 * (y2 - y1), 0.0, 0.0]
    assert J[0] == pytest.approx(expected)


def test_constant_residual_zero_row():
    tape = ex.Tape()
    tape.end_row(3.0)
    s = ResidualSystem.over(2, (Variable(0, "x", 0, "x"),))._extend(
        tape, [("c", "constraint", None, False)])
    assert s.residuals == (Residual(0, "c", "constraint", None, False),)
    J = eval_jacobian(s, [1.0])
    assert J.tolist() == [[0.0]]


@pytest.mark.parametrize("builder", [
    zoo.triangle_model,
    zoo.three_distances_model,
    zoo.parallel_lines_model,
    zoo.plane_prism_model,
    zoo.double_banana_model,
])
def test_jacobian_matches_finite_differences(builder):
    m = builder()
    s = compile_model(m)
    rng = np.random.default_rng(42)
    for _ in range(20):
        assert_jacobian_matches_fd(s, rng.uniform(-1, 1, size=s.n_variables))


def test_angle_form_squared():
    m = zoo.triangle_model()
    squared = compile_model(m)
    x = assignment_from_params(m, squared)
    # the squared form vanishes at the construction (the sketch sits on the
    # branch phi1 - phi2 = pi - alpha)
    i = [r.index for r in squared.residuals if r.source == "alpha"][0]
    assert eval_residuals(squared, x)[i] == pytest.approx(0.0, abs=1e-9)


def test_dump_equations_listing():
    m = zoo.three_distances_model()
    s = compile_model(m)
    dump = dump_equations(s)
    lines = dump.splitlines()
    assert len(lines) == 3
    assert "P2.x - P1.x" in lines[0]
    assert lines[0].startswith("  0 cons e1:")


def test_normalizations_are_singular_and_counted():
    m = zoo.parallel_lines_model()
    s = compile_model(m)
    # parallel (2) + distance (1) + two unit-direction normalizations
    assert s.n_residuals == 5
    norm = [r for r in s.residuals if r.kind == "normalization"]
    assert len(norm) == 2 and all(r.singular for r in norm)


def test_induced_subsets_constraints():
    from gcskernel import induced
    m = zoo.braced_quad_model()
    s = compile_model(m)
    constraints, rows = induced(m, s, {"P1", "P2", "P4"})
    assert constraints == {"e1", "e4", "e5"}
    assert [s.residuals[i].source for i in rows] == ["e1", "e4", "e5"]
    assert len(s.columns_of({"P1", "P2", "P4"})) == 6 and len(rows) == 3


def test_linear_system_shapes():
    s = linear_system([[1, 0], [1, 0]], [0, 1], ["x", "y"])
    assert s.n_residuals == 2 and s.n_variables == 2
    r = eval_residuals(s, [0.5, 0.0])
    assert r == pytest.approx([0.5, -0.5])
    with pytest.raises(ValueError):
        linear_system([[1, 2]], [1, 2])


@pytest.mark.parametrize("m", cross_product_models())
def test_full_cross_adds_the_dropped_component(m):
    reduced = compile_model(m)
    full = full_cross(reduced, m)
    assert full.variables == reduced.variables
    cross = [c for c in m.constraints if c.kind in ("parallel", "point-on-line")]
    assert full.n_residuals == reduced.n_residuals + len(cross)
    # the rows keep compile order: constraints in model order, then the rest
    order = [c.id for c in m.constraints]
    sources = [r.source for r in full.residuals if r.kind == "constraint"]
    assert sources == sorted(sources, key=order.index)
    assert [r[1:] for r in full.residuals if r.kind != "constraint"] == \
        [r[1:] for r in reduced.residuals if r.kind != "constraint"]

    def rendered(system, cid):
        lines = dump_equations(system).splitlines()
        return [line.split(": ", 1)[1] for line, r in zip(lines, system.residuals)
                if r.source == cid]

    for c in cross:
        kept, every = rendered(reduced, c.id), rendered(full, c.id)
        assert len(every) == 3
        # the reduced compile drops the component along the dominant axis of
        # the (first) direction's sketch, the last axis when there is none
        holder = m.entity(c.entities[0] if c.kind == "parallel" else c.entities[1])
        if holder.params is None:
            drop = 2
        else:
            d = holder.params[3:6] if holder.spec.representation != "hessian" else holder.params[0:3]
            drop = int(np.argmax(np.abs(d)))
        assert kept == [e for i, e in enumerate(every) if i != drop]


def test_full_cross_keeps_anchor_rows_last():
    m = point_on_line_3d_model()
    m = Model(3, m.entities + (Entity("P3", "point3", (1.0, 0.0, 0.0)),), m.constraints)
    s = compile_model(m)
    full, anchored = full_cross(s, m), full_cross(add_anchors(s, m), m)
    assert anchored.residuals[:full.n_residuals] == full.residuals
    assert [r.kind for r in anchored.residuals[full.n_residuals:]] == ["anchor"] * 6


@pytest.mark.parametrize("m", [zoo.triangle_model(), zoo.double_banana_model()],
                         ids=["2d", "3d-no-cross-product"])
def test_full_cross_keeps_a_system_without_cross_product_rows(m):
    s = compile_model(m)
    assert full_cross(s, m) is s


@pytest.mark.parametrize("m", [zoo.triangle_model(), zoo.triangle_strip(6)])
def test_eval_blocks_matches_each_block_on_its_own(m):
    # blocks that share rows and entities read their own parameters: each
    # block's values are those of its rows selected and evaluated at an
    # assignment that holds its parameters, bit for bit, whatever the order
    # of the entities a block lists, and whatever else its parameters hold
    system = compile_model(m)
    sketch = assignment_from_params(m, system)
    rng = np.random.default_rng(3)
    n = system.n_residuals
    blocks = []
    for size in (1, n // 2, n, 3):
        rows = sorted(rng.choice(n, size=size, replace=False).tolist())
        params = {e.id: tuple((np.asarray(e.params) + rng.normal(size=len(e.params))).tolist())
                  for e in m.entities}
        named = {system.variables[j].entity_id for r in rows for j in system.adjacency[r]}
        blocks.append((rows, rng.permutation(sorted(named)).tolist(), params))
    got = compiler.eval_blocks(system, blocks)
    expected = []
    for rows, _, params in blocks:
        x = sketch.copy()
        for eid, p in params.items():
            x[system.entity_slice(eid)] = p
        expected += eval_residuals(system.select(rows), x).tolist()
    assert got.tolist() == expected
    assert compiler.eval_blocks(system, []).size == 0
    with pytest.raises(IndexError):
        compiler.eval_blocks(system, [([n], blocks[0][1], blocks[0][2])])


class _Forgetful(dict):
    """A template cache that stores nothing, so every constraint is emitted
    through terms."""

    def __setitem__(self, key, value):
        pass


def _direction(draw, axis):
    """Three components whose largest magnitude is at ``axis``; all zero,
    which drops the last axis, when ``axis`` is None."""
    if axis is None:
        return [0.0, 0.0, 0.0]
    d = [draw(st.floats(-0.9, 0.9)) for _ in range(3)]
    d[axis] = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 3.0))
    return d


@st.composite
def every_signature_models(draw):
    """A valid model holding one to three constraints of every kind on every
    entity signature of its dimension, over entity pools of every kind and
    plane representation, each 3D direction dominant along a drawn axis."""
    dim = draw(st.sampled_from([2, 3]))
    coord = st.floats(-5.0, 5.0)
    pools: dict[str, list[Entity]] = {}

    def add(tag, entity):
        pools.setdefault(tag, []).append(entity)

    for k in range(4):
        add(f"point{dim}", Entity(f"P{k}", f"point{dim}", tuple(draw(coord) for _ in range(dim))))
        if dim == 2:
            add("line2", Entity(f"L{k}", "line2", (draw(st.floats(-3.0, 3.0)), draw(coord))))
            continue
        axis = draw(st.sampled_from([0, 1, 2, None]))
        add("line3", Entity(f"N{k}", "line3",
                            (*[draw(coord) for _ in range(3)], *_direction(draw, axis))))
        axis = draw(st.sampled_from([0, 1, 2, None]))
        add("plane3", Entity(f"H{k}", "plane3", (*_direction(draw, axis), draw(coord)),
                             "hessian") if k % 2 else
            Entity(f"Q{k}", "plane3", (*[draw(coord) for _ in range(3)],
                                       *_direction(draw, axis)), "point-normal"))
    constraints = []
    payloads = set()
    for kind, spec in sorted(CONSTRAINT_KINDS.items()):
        for signature in spec.signatures.get(dim, ()):
            for _ in range(draw(st.integers(1, 3))):
                ids: list[str] = []
                for tag in signature:
                    ids.append(draw(st.sampled_from([e.id for e in pools[tag]
                                                     if e.id not in ids])))
                value = None
                if spec.value_kind == "distance":
                    value = draw(st.floats(0.1, 10.0))
                elif spec.value_kind == "angle":
                    value = draw(st.floats(0.05, 3.0))
                if (kind, frozenset(ids), value) not in payloads:
                    payloads.add((kind, frozenset(ids), value))
                    constraints.append(Constraint(f"c{len(constraints)}", kind, tuple(ids), value))
    entities = tuple(e for pool in pools.values() for e in pool)
    return Model(dim, entities, tuple(constraints))


def _listing(system):
    """Everything a system's rows hold: tape rows, their variables, residual
    names and the equation listing."""
    return ([(tape.rows[i], tape.variables[i]) for tape, rows in system.segments for i in rows],
            [r.name for r in system.residuals], dump_equations(system))


def _both_cross_modes(m):
    system = compile_model(m)
    return _listing(system), _listing(add_constraints(system, m, m.constraints, full_cross=True))


@settings(max_examples=60, deadline=None)
@given(every_signature_models())
def test_stamped_rows_equal_direct_emission(m):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(compiler, "_TEMPLATES", _Forgetful())
        direct = _both_cross_modes(m)
        mp.setattr(compiler, "_TEMPLATES", {})
        cold = _both_cross_modes(m)  # the first of each signature emitted, the rest stamped
        warm = _both_cross_modes(m)  # every row stamped
    assert cold == direct
    assert warm == direct


def test_a_strip_runs_the_emitter_once(empty_templates, monkeypatch):
    calls = []
    real = compiler._emit_constraint

    def counting(model, c, *args, **kwargs):
        calls.append(c.id)
        return real(model, c, *args, **kwargs)

    monkeypatch.setattr(compiler, "_emit_constraint", counting)
    compile_model(zoo.triangle_strip(200))
    assert len(calls) == 1


def test_add_constraints_refuses_a_constraint_naming_an_entity_twice():
    m = zoo.triangle_strip(2)
    system = compile_model(m)
    with pytest.raises(CompileError, match="names an entity twice"):
        add_constraints(system, m, [Constraint("bond", "distance-pp", ("P1", "P1"), 1.0)])

