"""Translation of a model into a residual system F(X) = 0 with analytic derivatives.

One variable is created per raw entity parameter (entity order, then component
order), one residual per DOC unit of each constraint, followed by the
normalization residuals of redundant parameterizations, followed by any frame
anchors.  Compilation is deterministic: the same model always yields the same
variable and residual ordering.  :func:`induced` gives the constraints and
residual rows that an entity subset induces; detection, bottom-up
decomposition and the decomposed solve's cluster slices use those rows.  A
system maps each entity to its columns and each (kind, source) to its rows
on first use.

Rows are evaluated from a flat tape, not from their expression trees
(:mod:`.expr`): :func:`compile_model`, :func:`add_constraints`,
:func:`add_anchors` and :func:`linear_system` emit one :class:`~.expr.Tape`
for the rows they add, as they add them.  The systems derived from a system
(by those functions and ``without_anchors``) share its column map and the
tapes of the rows they keep, so deriving a system costs only its own rows.
:func:`eval_residuals` and :func:`eval_jacobian` run the tape of the rows
they are asked for (all rows by default); a system keeps the evaluation plan
of each row selection it has evaluated, so a solve's repeated evaluations
of one slice gather its rows once.  ``adjacency`` (each row's variables)
comes from the tape as well.

Residual conventions:

* point-point distances use the squared form ``|b - a|^2 - v^2``;
* 2D line incidence uses the Hesse normal form ``x cos(phi) + y sin(phi) - rho``;
* the 2D line-line angle compiles to ``(phi1 - phi2)^2 - (pi - v)^2``, which
  holds on both sign branches of ``phi1 - phi2 = +-(pi - v)``;
* 3D angles use dot products, 3D parallelism and point-on-line use two
  components of the relevant cross product (the dropped component is the one
  aligned with the largest initial direction coordinate, so the two kept
  equations are locally independent near the sketch), or all three with
  ``full_cross``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, NamedTuple, Sequence

import numpy as np

from . import expr as ex
from .model import (
    CONSTRAINT_KINDS,
    HESSIAN,
    LINE3,
    PLANE3,
    POINT2,
    POINT3,
    Constraint,
    Entity,
    Model,
    validate,
)


class CompileError(ValueError):
    pass


class AnchorError(ValueError):
    pass


class Variable(NamedTuple):
    index: int
    entity_id: str
    component: int
    name: str  # e.g. "P1.x"


class Residual(NamedTuple):
    index: int
    name: str
    expression: ex.Expr
    kind: str          # "constraint" | "normalization" | "anchor"
    source: str | None  # constraint id, entity id for normalizations, None for anchors
    singular: bool


@dataclass(frozen=True)
class ResidualSystem:
    dimension: int
    variables: tuple[Variable, ...]
    residuals: tuple[Residual, ...]

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_residuals(self) -> int:
        return len(self.residuals)

    def variable_names(self) -> list[str]:
        return [v.name for v in self.variables]

    @cached_property
    def _columns(self) -> dict[str, tuple[int, ...]]:
        """Columns of each entity, in component order."""
        columns: dict[str, list[int]] = {}
        for v in self.variables:
            columns.setdefault(v.entity_id, []).append(v.index)
        return {eid: tuple(cols) for eid, cols in columns.items()}

    @cached_property
    def _rows(self) -> dict[tuple[str, str | None], tuple[int, ...]]:
        """Rows of each (kind, source), in system order."""
        rows: dict[tuple[str, str | None], list[int]] = {}
        for r in self.residuals:
            rows.setdefault((r.kind, r.source), []).append(r.index)
        return {key: tuple(idx) for key, idx in rows.items()}

    @cached_property
    def _segments(self) -> tuple[tuple[ex.Tape, int], ...]:
        """The tapes of this system's rows in order, each as (tape, rows used).
        A derived system gets them from :meth:`_derive`; a system built
        directly emits one tape for all its rows on first use."""
        return (ex.Tape([r.expression for r in self.residuals]), self.n_residuals),

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted variable indices of each row: the equation graph's edges."""
        return tuple(vs for tape, used in self._segments for vs in tape.variables[:used])

    @cached_property
    def _plans(self) -> dict:
        return {}

    def _plan(self, rows: Sequence[int] | None) -> ex.Plan:
        """The evaluation plan of ``rows`` (all rows by default), built on first use."""
        key = None if rows is None else tuple(rows)
        plan = self._plans.get(key)
        if plan is None:
            if rows is None:
                parts = [(tape, range(used)) for tape, used in self._segments]
            else:
                parts = self._parts(key)
            plan = self._plans[key] = ex.Plan(parts, self.n_variables)
        return plan

    def _parts(self, rows: Sequence[int]) -> list[tuple[ex.Tape, list[int]]]:
        """``rows`` as runs of rows of one tape: (tape, tape rows) pairs."""
        firsts = [0]
        for _, used in self._segments:
            firsts.append(firsts[-1] + used)
        parts: list[tuple[ex.Tape, list[int]]] = []
        lo = hi = 0
        for r in rows:
            if not lo <= r < hi:
                if not 0 <= r < firsts[-1]:
                    raise IndexError(f"row {r} out of range for {firsts[-1]} rows")
                k = bisect.bisect_right(firsts, r) - 1
                lo, hi = firsts[k], firsts[k + 1]
                parts.append((self._segments[k][0], []))
            parts[-1][1].append(r - lo)
        return parts

    def _derive(self, shared: int, added: Iterable[Residual]) -> "ResidualSystem":
        """A system over the same variables: this system's first ``shared``
        rows, then ``added``.  It shares this system's column map and the
        tapes of the rows it keeps, and emits a tape for the rows it adds."""
        added = tuple(added)
        derived = ResidualSystem(self.dimension, self.variables,
                                 self.residuals[:shared] + added)
        derived.__dict__["_columns"] = self._columns
        kept, left = [], shared
        for tape, used in self._segments:
            if left <= 0:
                break
            kept.append((tape, min(used, left)))
            left -= used
        if added:
            kept.append((ex.Tape([r.expression for r in added]), len(added)))
        derived.__dict__["_segments"] = tuple(kept)
        return derived

    def columns_of(self, entity_ids: Iterable[str]) -> list[int]:
        columns = self._columns
        return sorted(j for eid in set(entity_ids) for j in columns.get(eid, ()))

    def entity_slice(self, entity_id: str) -> slice:
        """The columns of one entity, which are consecutive."""
        columns = self._columns[entity_id]
        return slice(columns[0], columns[-1] + 1)

    def singular_rows(self) -> list[int]:
        return [r.index for r in self.residuals if r.singular]

    def anchor_rows(self) -> list[int]:
        return [r.index for r in self.residuals if r.kind == "anchor"]

    def without_anchors(self) -> "ResidualSystem":
        anchors = self._rows.get(("anchor", None), ())
        if not anchors:
            return self
        # rows before the first anchor keep their places
        return self._derive(anchors[0], (r for r in self.residuals[anchors[0]:]
                                         if r.kind != "anchor"))


def _initial_direction(entity: Entity, group: tuple[int, ...]) -> np.ndarray:
    if entity.params is not None:
        vec = np.array([entity.params[i] for i in group], dtype=float)
        if np.linalg.norm(vec) > 1e-12:
            return vec / np.linalg.norm(vec)
    fallback = np.zeros(len(group))
    fallback[-1] = 1.0
    return fallback


def _cross_components(a: Sequence[ex.Expr], b: Sequence[ex.Expr]) -> list[ex.Expr]:
    return [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]


def _drop_index(direction: np.ndarray) -> int:
    # The cross product of near-parallel vectors is orthogonal to them, so the
    # component along the dominant direction axis carries no information.
    return int(np.argmax(np.abs(direction)))


def _plane_normal_and_offset(entity: Entity, v: list[ex.Expr]):
    """Return (normal exprs, signed-offset expr builder) for either plane scheme."""
    if entity.spec.representation == HESSIAN:
        n = v[0:3]
        def offset(p: Sequence[ex.Expr]) -> ex.Expr:
            return ex.dot(n, p) + v[3]
    else:  # point-normal: p0 (0..2), n (3..5)
        n = v[3:6]
        p0 = v[0:3]
        def offset(p: Sequence[ex.Expr]) -> ex.Expr:
            return ex.dot(n, [p[i] - p0[i] for i in range(3)])
    return n, offset


def _direction_of(entity: Entity, v: list[ex.Expr]) -> tuple[list[ex.Expr], np.ndarray]:
    """Direction-like expression triple and its initial value for 3D line/plane."""
    if entity.kind == LINE3:
        return v[3:6], _initial_direction(entity, (3, 4, 5))
    if entity.kind == PLANE3:
        if entity.spec.representation == HESSIAN:
            return v[0:3], _initial_direction(entity, (0, 1, 2))
        return v[3:6], _initial_direction(entity, (3, 4, 5))
    raise CompileError(f"entity {entity.id!r} has no direction")


def _emit_constraint(model: Model, c: Constraint, env: dict[str, list[ex.Expr]],
                     full_cross: bool = False) -> list[ex.Expr]:
    dim = model.dimension
    ents = [model.entity(eid) for eid in c.entities]
    v = [env[eid] for eid in c.entities]
    kind = c.kind

    if kind == "distance-pp":
        diff = [v[1][i] - v[0][i] for i in range(dim)]
        return [ex.dot(diff, diff) - c.value * c.value]

    if kind == "distance-pl":
        if dim == 2:
            p, (phi, rho) = v[0], v[1]
            signed = p[0] * ex.cos(phi) + p[1] * ex.sin(phi) - rho
            return [ex.square(signed) - c.value * c.value]
        p, lv = v[0], v[1]
        rel = [p[i] - lv[i] for i in range(3)]
        cr = _cross_components(rel, lv[3:6])
        return [ex.dot(cr, cr) - c.value * c.value]

    if kind == "distance-pplane":
        _, offset = _plane_normal_and_offset(ents[1], v[1])
        return [ex.square(offset(v[0])) - c.value * c.value]

    if kind == "distance-ll":
        if dim == 2:
            return [ex.square(v[0][1] - v[1][1]) - c.value * c.value]
        # distance from line 2's point to line 1 (lines held parallel by a
        # separate constraint)
        rel = [v[1][i] - v[0][i] for i in range(3)]
        cr = _cross_components(rel, v[0][3:6])
        return [ex.dot(cr, cr) - c.value * c.value]

    if kind == "distance-planeplane":
        n1, _ = _plane_normal_and_offset(ents[0], v[0])
        if ents[0].spec.representation == HESSIAN and ents[1].spec.representation == HESSIAN:
            s = ex.dot(n1, v[1][0:3])
            delta = v[0][3] - s * v[1][3]
            return [ex.square(delta) - c.value * c.value]
        # in the point-normal scheme the offset of plane 2's point from plane 1
        _, offset1 = _plane_normal_and_offset(ents[0], v[0])
        return [ex.square(offset1(v[1][0:3])) - c.value * c.value]

    if kind == "angle-ll":
        if dim == 2:
            target = math.pi - c.value
            return [ex.square(v[0][0] - v[1][0]) - target * target]
        d1, d2 = v[0][3:6], v[1][3:6]
        return [ex.dot(d1, d2) - math.cos(c.value)]

    if kind == "angle-planeplane":
        n1, _ = _plane_normal_and_offset(ents[0], v[0])
        n2, _ = _plane_normal_and_offset(ents[1], v[1])
        return [ex.dot(n1, n2) - math.cos(c.value)]

    if kind == "point-on-line":
        if dim == 2:
            p, (phi, rho) = v[0], v[1]
            return [p[0] * ex.cos(phi) + p[1] * ex.sin(phi) - rho]
        p, lv = v[0], v[1]
        rel = [p[i] - lv[i] for i in range(3)]
        cr = _cross_components(rel, lv[3:6])
        if full_cross:
            return cr
        _, d0 = _direction_of(ents[1], v[1])
        drop = _drop_index(d0)
        return [cr[i] for i in range(3) if i != drop]

    if kind == "point-on-plane":
        _, offset = _plane_normal_and_offset(ents[1], v[1])
        return [offset(v[0])]

    if kind == "parallel":
        if dim == 2:
            return [ex.sin(v[0][0] - v[1][0])]
        u1, d0 = _direction_of(ents[0], v[0])
        u2, _ = _direction_of(ents[1], v[1])
        cr = _cross_components(u1, u2)
        if full_cross:
            return cr
        drop = _drop_index(d0)
        return [cr[i] for i in range(3) if i != drop]

    if kind == "perpendicular":
        if dim == 2:
            return [ex.cos(v[0][0] - v[1][0])]
        u1, _ = _direction_of(ents[0], v[0])
        u2, _ = _direction_of(ents[1], v[1])
        return [ex.dot(u1, u2)]

    if kind == "coincident":
        return [v[0][i] - v[1][i] for i in range(dim)]

    if kind == "fix":
        ent = ents[0]
        return [v[0][i] - float(ent.params[i]) for i in range(dim)]

    raise CompileError(f"unsupported constraint kind {kind!r}")


def compile_model(model: Model, full_cross: bool = False) -> ResidualSystem:
    """Compile a validated model into a residual system.

    ``full_cross`` emits all three components of cross-product constraints
    (3D parallelism, point on 3D line) instead of the two independent ones;
    the redundant variant over-counts DOC but describes the exact singular
    variety, which is what witness projection needs.  Both variants produce
    the identical variable layout.

    Raises :class:`CompileError` when validation reports violations or a
    constraint kind has no emitter.
    """
    problems = validate(model)
    if problems:
        summary = "; ".join(f"{p.code}({p.subject})" for p in problems[:5])
        raise CompileError(f"model does not validate: {summary}")

    variables: list[Variable] = []
    for e in model.entities:
        for comp, pname in enumerate(e.spec.param_names):
            variables.append(Variable(len(variables), e.id, comp, f"{e.id}.{pname}"))
    system = add_constraints(ResidualSystem(model.dimension, tuple(variables), ()),
                             model, model.constraints, full_cross)
    columns = system._columns
    residuals = []
    for e in model.entities:
        for group in e.spec.unit_groups:
            vec = [ex.var(columns[e.id][i]) for i in group]
            residuals.append(Residual(system.n_residuals + len(residuals), f"unit:{e.id}",
                                      ex.dot(vec, vec) - 1.0, "normalization", e.id, True))
    return system._derive(system.n_residuals, residuals)


def add_constraints(system: ResidualSystem, model: Model, constraints: Sequence[Constraint],
                    full_cross: bool = False) -> ResidualSystem:
    """Append the residual rows of constraints on the entities of ``model``.

    :func:`compile_model` emits the model's own constraints this way, and
    decomposition appends virtual distance bonds to a compiled system.
    ``full_cross`` emits every cross-product component, as in
    :func:`compile_model`.
    """
    columns = system._columns
    named = {eid for c in constraints for eid in c.entities}
    env = {eid: [ex.var(j) for j in columns[eid]] for eid in named if eid in columns}
    residuals = []
    for c in constraints:
        exprs = _emit_constraint(model, c, env, full_cross=full_cross)
        for k, e_ in enumerate(exprs):
            suffix = "" if len(exprs) == 1 else f"[{k}]"
            residuals.append(Residual(system.n_residuals + len(residuals), f"{c.id}{suffix}", e_,
                                      "constraint", c.id,
                                      CONSTRAINT_KINDS[c.kind].singular))
    return system._derive(system.n_residuals, residuals)


def points_of(system: ResidualSystem, model: Model,
              entity_ids: Collection[str] | None = None) -> list[str]:
    """Ids of the point entities in column order (which is model order), from
    ``entity_ids`` only when it is given: the order :func:`add_anchors` pins."""
    point_tag = POINT2 if system.dimension == 2 else POINT3
    columns = system._columns
    ids = columns if entity_ids is None else set(entity_ids).intersection(columns)
    return sorted((eid for eid in ids if model.entity(eid).kind == point_tag),
                  key=lambda eid: columns[eid][0])


def add_anchors(system: ResidualSystem, model: Model,
                entity_ids: Collection[str] | None = None) -> ResidualSystem:
    """Append residuals pinning the global frame (3 in 2D, 6 in 3D).

    2D: the first point is the origin and the first-to-second point vector is
    the x axis.  3D: first point at origin, second on the +x axis, third in
    the xy plane.  Points are taken in column order (:func:`points_of`), from
    ``entity_ids`` only when it is given.
    """
    columns = system._columns
    points = [model.entity(eid) for eid in points_of(system, model, entity_ids)]
    need = 2 if system.dimension == 2 else 3
    if len(points) < need:
        raise AnchorError(
            f"anchoring a {system.dimension}D system needs {need} point entities, "
            f"model has {len(points)}")

    def pv(entity_id: str, comp_name: str) -> ex.Expr:
        comp = model.entity(entity_id).spec.param_names.index(comp_name)
        return ex.var(columns[entity_id][comp])

    residuals: list[Residual] = []

    def push(expression: ex.Expr, name: str):
        residuals.append(Residual(system.n_residuals + len(residuals), name, expression,
                                  "anchor", None, False))

    p1 = points[0].id
    p2 = points[1].id
    if system.dimension == 2:
        push(pv(p1, "x"), f"anchor:{p1}.x")
        push(pv(p1, "y"), f"anchor:{p1}.y")
        push(pv(p2, "y") - pv(p1, "y"), f"anchor:{p2}.y-{p1}.y")
    else:
        p3 = points[2].id
        if all(p.params is not None for p in points[:3]):
            a = np.array(points[0].params)
            b = np.array(points[1].params)
            c = np.array(points[2].params)
            if np.linalg.norm(np.cross(b - a, c - a)) < 1e-9:
                raise AnchorError("first three points are collinear; cannot fix a 3D frame")
        for comp in ("x", "y", "z"):
            push(pv(p1, comp), f"anchor:{p1}.{comp}")
        for comp in ("y", "z"):
            push(pv(p2, comp) - pv(p1, comp), f"anchor:{p2}.{comp}-{p1}.{comp}")
        push(pv(p3, "z") - pv(p1, "z"), f"anchor:{p3}.z-{p1}.z")

    return system._derive(system.n_residuals, residuals)


def _assignment(system: ResidualSystem, assignment: Sequence[float]) -> np.ndarray:
    x = np.asarray(assignment, dtype=float)
    if x.shape != (system.n_variables,):
        raise ValueError(f"assignment must have length {system.n_variables}, got {x.shape}")
    return x


def eval_residuals(system: ResidualSystem, assignment: Sequence[float],
                   rows: Sequence[int] | None = None) -> np.ndarray:
    """Residual values of ``rows`` (all rows by default), in that order."""
    return system._plan(rows).values(_assignment(system, assignment))


def eval_jacobian(system: ResidualSystem, assignment: Sequence[float],
                  rows: Sequence[int] | None = None) -> np.ndarray:
    """Analytic Jacobian of ``rows`` (all rows by default), entry (i, j) =
    d r_i / d x_j, scattered from the tape's derivative triplets."""
    return system._plan(rows).jacobian(_assignment(system, assignment))


def dump_equations(system: ResidualSystem) -> str:
    """Textual listing, one residual per line, deterministic order."""
    names = system.variable_names()
    lines = [
        f"{r.index:3d} {r.kind[:4]:4s} {r.name}: {ex.render(r.expression, names)} = 0"
        for r in system.residuals
    ]
    return "\n".join(lines)


def assignment_from_params(model: Model, system: ResidualSystem) -> np.ndarray:
    """Initial assignment from entity params; raises if any are missing."""
    x = np.zeros(system.n_variables)
    for v in system.variables:
        ent = model.entity(v.entity_id)
        if ent.params is None:
            raise ValueError(f"entity {ent.id!r} has no parameters for an initial guess")
        x[v.index] = ent.params[v.component]
    return x


def params_from_assignment(model: Model, system: ResidualSystem,
                           assignment: Sequence[float]) -> dict[str, tuple[float, ...]]:
    x = np.asarray(assignment, dtype=float)
    out: dict[str, list[float]] = {e.id: [0.0] * e.spec.raw_size for e in model.entities}
    for v in system.variables:
        out[v.entity_id][v.component] = float(x[v.index])
    return {k: tuple(vals) for k, vals in out.items()}


def induced(model: Model, system: ResidualSystem,
            entity_ids: Iterable[str]) -> tuple[frozenset[str], list[int]]:
    """Constraint ids and residual rows induced by an entity subset.

    A constraint is induced when all of its entities are in the subset; its
    rows are induced with it, as are the normalization rows of the subset's
    entities.  Anchor rows never are.
    """
    keep = set(entity_ids)
    cids = frozenset(c.id for eid in keep for c in model.constraints_on(eid)
                     if keep.issuperset(c.entities))
    return cids, rows_of(system, cids, keep)


def rows_of(system: ResidualSystem, constraint_ids: Collection[str],
            entity_ids: Collection[str]) -> list[int]:
    """Residual rows of the given constraints, then normalization rows of the
    given entities, in system order; anchor rows never."""
    rows = system._rows
    picked = [i for cid in set(constraint_ids) for i in rows.get(("constraint", cid), ())]
    picked += [i for eid in set(entity_ids) for i in rows.get(("normalization", eid), ())]
    picked.sort()
    return picked


def linear_system(coefficients, rhs, variable_names: Sequence[str] | None = None) -> ResidualSystem:
    """Residual system for A x = b, one residual per row (sum a_ij x_j - b_i).

    Used for raw (non-geometric) equation sets such as hand-written linear
    examples; rows are named E1, E2, ...
    """
    A = np.asarray(coefficients, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise ValueError("need an m x n matrix and a length-m right-hand side")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("coefficients and right-hand sides must be finite")
    m, n = A.shape
    if variable_names is None:
        variable_names = [f"x{j}" for j in range(n)]
    if len(variable_names) != n:
        raise ValueError(f"{n} coefficients per row but {len(variable_names)} variable names")
    variables = tuple(Variable(j, variable_names[j], 0, variable_names[j]) for j in range(n))
    residuals = []
    for i in range(m):
        terms = ex.const(-b[i])
        for j in range(n):
            if A[i, j] != 0.0:
                terms = terms + ex.const(A[i, j]) * ex.var(j)
        residuals.append(Residual(i, f"E{i + 1}", terms, "constraint", f"E{i + 1}", False))
    return ResidualSystem(0, variables, ())._derive(0, residuals)
