"""Rigid-motion actions on entity parameterizations.

Two views of the same group action are provided: infinitesimal generator
velocities (used to build the rigid-motion basis whose rank is the degree of
rigidity) and finite transforms (used to place solved clusters and to verify
the generators by finite differences).  Rotations are taken about the origin;
changing the pivot only adds a combination of translation rows, so ranks are
pivot-independent.

2D actions:
  point (x, y):        translate by u; rotate velocity (-y, x)
  line (phi, rho):     translate -> rho += u . n(phi); rotate -> phi += theta

3D actions:
  point p:                       p -> R p + t
  line (p, d):                   (R p + t, R d)
  hessian plane (n, d):          (R n, d - (R n) . t)
  point-normal plane (p, n):     (R p + t, R n)
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import (
    HESSIAN,
    LINE2,
    LINE3,
    PLANE3,
    POINT2,
    POINT3,
    Entity,
)


def rotation_2d(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def skew(v) -> np.ndarray:
    """The 3 x 3 matrix whose row i is e_i x v, so that ``skew(v) @ u`` is
    v x u: row i is the velocity of v under a unit rotation about axis i."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation_3d(axis: np.ndarray, theta: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    K = skew(axis / np.linalg.norm(axis))
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


def generator_count(dimension: int) -> int:
    return 3 if dimension == 2 else 6


def motion_rows(entity: Entity, params) -> np.ndarray:
    """k x raw matrix of generator velocities at the given parameter values.

    Generators are ordered: translations along the coordinate axes, then
    rotations (one in 2D, about the x/y/z axes in 3D).
    """
    p = np.asarray(params, dtype=float)
    spec = entity.spec
    k = generator_count(spec.dimension)
    rows = np.zeros((k, spec.raw_size))

    if entity.kind == POINT2:
        rows[0] = [1.0, 0.0]
        rows[1] = [0.0, 1.0]
        rows[2] = [-p[1], p[0]]
    elif entity.kind == LINE2:
        phi = p[0]
        rows[0] = [0.0, math.cos(phi)]
        rows[1] = [0.0, math.sin(phi)]
        rows[2] = [1.0, 0.0]
    elif entity.kind == PLANE3 and spec.representation == HESSIAN:
        rows[0:3, 3] = -p[0:3]
        rows[3:6, 0:3] = skew(p[0:3])
    elif entity.kind in (POINT3, LINE3, PLANE3):
        # a point, or a (point, direction) pair: lines and point-normal planes
        rows[0:3, 0:3] = np.eye(3)
        for lo in range(0, spec.raw_size, 3):
            rows[3:6, lo:lo + 3] = skew(p[lo:lo + 3])
    else:
        raise ValueError(f"no motion action for kind {entity.kind!r}")
    return rows


def apply_rigid(entity: Entity, params, rotation: np.ndarray, translation) -> np.ndarray:
    """Finite rigid transform of one entity's parameter vector."""
    p = np.array(params, dtype=float)
    t = np.asarray(translation, dtype=float)
    R = np.asarray(rotation, dtype=float)

    if entity.kind in (POINT2, POINT3):
        return R @ p + t
    if entity.kind == LINE2:
        theta = math.atan2(R[1, 0], R[0, 0])
        phi = p[0] + theta
        n = np.array([math.cos(phi), math.sin(phi)])
        return np.array([phi, p[1] + n @ t])
    if entity.kind == LINE3:
        return np.concatenate([R @ p[0:3] + t, R @ p[3:6]])
    if entity.kind == PLANE3 and entity.spec.representation == HESSIAN:
        n = R @ p[0:3]
        return np.array([n[0], n[1], n[2], p[3] - n @ t])
    if entity.kind == PLANE3:
        return np.concatenate([R @ p[0:3] + t, R @ p[3:6]])
    raise ValueError(f"no rigid action for kind {entity.kind!r}")


def fit_rigid_2d(source: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rotation + translation mapping source points onto target.

    Reflections are excluded.  With a single point pair the rotation is the
    identity.  Returns (R, t) with R 2x2.  The numpy reference that
    ``tests/test_geometry.py`` checks :func:`fit_rigid_2d_floats` against and
    acceptance criterion 9 aligns a decomposed solve with.
    """
    src = np.atleast_2d(np.asarray(source, dtype=float))
    dst = np.atleast_2d(np.asarray(target, dtype=float))
    if src.shape != dst.shape or src.shape[1] != 2:
        raise ValueError("need matching (k, 2) point arrays")
    if src.shape[0] == 0:
        return np.eye(2), np.zeros(2)
    c, s, tx, ty = fit_rigid_2d_floats(src.tolist(), dst.tolist())
    return np.array([[c, -s], [s, c]]), np.array([tx, ty])


def fit_rigid_2d_floats(source: Sequence[Sequence[float]],
                        target: Sequence[Sequence[float]]) -> tuple[float, float, float, float]:
    """:func:`fit_rigid_2d` in plain floats, for one or more matching (x, y)
    pairs: the rotation's (cos, sin), then the translation (tx, ty).
    Recombination fits on two or three points, so scalar arithmetic serves."""
    k = len(source)
    sx = sy = dx = dy = 0.0
    for (px, py), (qx, qy) in zip(source, target):
        sx += px
        sy += py
        dx += qx
        dy += qy
    sx, sy, dx, dy = sx / k, sy / k, dx / k, dy / k
    # optimal angle from the cross/dot sums
    num = den = 0.0
    for (px, py), (qx, qy) in zip(source, target):
        ax, ay, bx, by = px - sx, py - sy, qx - dx, qy - dy
        num += ax * by - ay * bx
        den += ax * bx + ay * by
    theta = 0.0 if (num == 0.0 and den == 0.0) else math.atan2(num, den)
    c, s = math.cos(theta), math.sin(theta)
    return c, s, dx - (c * sx - s * sy), dy - (s * sx + c * sy)
