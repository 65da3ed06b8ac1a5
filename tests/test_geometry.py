import math

import numpy as np
from hypothesis import given, strategies as st

from gcskernel import (
    assignment_from_params,
    compile_model,
    eval_residuals,
    generate_witness,
    is_well_part,
)
from gcskernel import geometry, zoo
from gcskernel.decompose import bottom_up
from gcskernel.model import Entity, Model

angles = st.floats(min_value=-3.1, max_value=3.1, allow_nan=False)
shifts = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


@given(st.lists(shifts, min_size=3, max_size=3))
def test_skew_rows_are_cross_products(v):
    rows = geometry.skew(v)
    for i, axis in enumerate(np.eye(3)):
        assert (rows[i] == np.cross(axis, v)).all()


@given(angles, shifts, shifts)
def test_fit_rigid_recovers_random_motion(theta, tx, ty):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(5, 2)) * 4.0
    R = geometry.rotation_2d(theta)
    t = np.array([tx, ty])
    moved = pts @ R.T + t
    R2, t2 = geometry.fit_rigid_2d(pts, moved)
    assert np.allclose(R2, R, atol=1e-9)
    assert np.allclose(t2, t, atol=1e-7)


def reference_fit(source, target):
    """The fit as fit_rigid_2d computed it in plain floats before it wrapped
    fit_rigid_2d_floats: each centroid by sum() over its column."""
    k = len(source)
    sx, sy = (sum(col) / k for col in zip(*source))
    dx, dy = (sum(col) / k for col in zip(*target))
    num = den = 0.0
    for (px, py), (qx, qy) in zip(source, target):
        ax, ay, bx, by = px - sx, py - sy, qx - dx, qy - dy
        num += ax * by - ay * bx
        den += ax * bx + ay * by
    theta = 0.0 if (num == 0.0 and den == 0.0) else math.atan2(num, den)
    c, s = math.cos(theta), math.sin(theta)
    return c, s, dx - (c * sx - s * sy), dy - (s * sx + c * sy)


@given(angles, shifts, shifts, st.integers(1, 4))
def test_fit_rigid_floats_matches_the_reference_bit_for_bit(theta, tx, ty, k):
    # recombination fits in plain floats; the array fit wraps the same core
    pts = np.random.default_rng(k).normal(size=(k, 2)) * 4.0
    moved = pts @ geometry.rotation_2d(theta).T + np.array([tx, ty])
    got = geometry.fit_rigid_2d_floats(pts.tolist(), moved.tolist())
    assert got == reference_fit(pts.tolist(), moved.tolist())
    assert all(type(v) is float for v in got)
    R, t = geometry.fit_rigid_2d(pts, moved)
    c, s, fx, fy = got
    assert R.tolist() == [[c, -s], [s, c]] and t.tolist() == [fx, fy]


def test_fit_rigid_single_point_is_translation():
    R, t = geometry.fit_rigid_2d([[1.0, 2.0]], [[4.0, -1.0]])
    assert np.allclose(R, np.eye(2))
    assert np.allclose(t, [3.0, -3.0])


def test_rigid_transform_preserves_residuals():
    # a solved model stays solved under any rigid motion of all its entities,
    # including the Hesse-form carrier lines
    m = zoo.triangle_model()
    s = compile_model(m)
    x = assignment_from_params(m, s)
    assert np.max(np.abs(eval_residuals(s, x))) <= 1e-9
    R = geometry.rotation_2d(0.83)
    t = np.array([5.0, -2.0])
    moved = Model(
        2,
        tuple(Entity(e.id, e.kind, tuple(geometry.apply_rigid(e, e.params, R, t)),
                     e.representation) for e in m.entities),
        m.constraints)
    x2 = assignment_from_params(moved, s)
    assert np.max(np.abs(eval_residuals(s, x2))) <= 1e-9


def test_rigid_transform_preserves_residuals_3d():
    m = zoo.plane_prism_model()
    s = compile_model(m)
    x = assignment_from_params(m, s)
    base = np.max(np.abs(eval_residuals(s, x)))
    R = geometry.rotation_3d(np.array([0.3, -0.5, 0.81]), 1.2)
    t = np.array([2.0, -1.0, 0.5])
    moved = Model(
        3,
        tuple(Entity(e.id, e.kind, tuple(geometry.apply_rigid(e, e.params, R, t)),
                     e.representation) for e in m.entities),
        m.constraints)
    x2 = assignment_from_params(moved, s)
    assert np.max(np.abs(eval_residuals(s, x2))) <= max(1e-9, base + 1e-12)


def test_every_bottom_up_cluster_is_well_constrained():
    for m in [zoo.braced_quad_model(), zoo.triangle_model(), zoo.seed_demo_model()]:
        s = compile_model(m)
        w = generate_witness(s, m, seed=0)
        J, M = w.jacobian, w.motions
        tree = bottom_up(m)

        def nodes(n):
            yield n
            for c in n.children:
                yield from nodes(c)

        for root in tree.roots:
            for node in nodes(root):
                assert is_well_part(m, s, J, M, node.entities), sorted(node.entities)


def test_rotation_matrices():
    R = geometry.rotation_2d(math.pi / 2)
    assert np.allclose(R @ [1, 0], [0, 1])
    R3 = geometry.rotation_3d([0, 0, 1], math.pi / 2)
    assert np.allclose(R3 @ [1, 0, 0], [0, 1, 0], atol=1e-12)
    assert np.allclose(R3 @ R3.T, np.eye(3), atol=1e-12)
