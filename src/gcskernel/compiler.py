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

Each row is written once, straight onto a :class:`~.expr.Tape`:
:func:`compile_model`, :func:`add_constraints`, :func:`add_anchors` and
:func:`linear_system` write one tape for the rows they add.  The rows of a
constraint, and the normalization rows of an entity, go through one writer,
``_write_rows``: only the first of each signature (a constraint's kind,
dimension and entity kinds; an entity's kind and representation) is written
through terms, and its rows are kept as a template that every later one
stamps (:meth:`~.expr.Tape.stamp`).  A system holds
the tape segments of its rows, and the systems derived from it share its
column map and the tapes of the rows they keep, so deriving a system costs
only its own rows.  :meth:`ResidualSystem.select` derives the system of a
row subset (a cluster's rows, the singular rows a witness is projected
onto).  :func:`eval_residuals` and :func:`eval_jacobian` run a system's
tapes through the one evaluation plan it builds on first use;
:func:`eval_blocks` evaluates blocks of rows, each at its own entity
parameters, through one plan of their own (the open rows of every merge of
a decomposed solve).
``adjacency`` (each row's variables) and :func:`dump_equations` read the
tapes as well.

Residual conventions:

* point-point distances use the squared form ``|b - a|^2 - v^2``;
* 2D line incidence uses the Hesse normal form ``x cos(phi) + y sin(phi) - rho``;
* the 2D line-line angle compiles to ``(phi1 - phi2)^2 - (pi - v)^2``, which
  holds on both sign branches of ``phi1 - phi2 = +-(pi - v)``;
* 3D angles use dot products, 3D parallelism and point-on-line use two
  components of the relevant cross product (the dropped component is the one
  aligned with the largest initial direction coordinate, so the two kept
  equations are locally independent near the sketch).  :func:`full_cross`
  derives the system that holds all three, which a witness is projected
  onto.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import expr as ex
from .model import (
    CONSTRAINT_KINDS,
    HESSIAN,
    POINT2,
    POINT3,
    Constraint,
    Entity,
    Model,
    Violation,
    validate,
)


class CompileError(ValueError):
    """A model that does not compile.  When validation is the cause,
    ``violations`` holds what :func:`~.model.validate` found and the message
    lists them."""

    def __init__(self, message: str, violations: Sequence[Violation] = ()):
        super().__init__(message)
        self.violations = tuple(violations)


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
    kind: str          # "constraint" | "normalization" | "anchor"
    source: str | None  # constraint id, entity id for normalizations, None for anchors
    singular: bool


@dataclass(frozen=True)
class ResidualSystem:
    """Residual rows over variables.  ``segments`` holds the tapes of the
    rows in order, each as (tape, the tape rows used); ``columns`` maps each
    entity to its columns, in component order."""

    dimension: int
    variables: tuple[Variable, ...]
    residuals: tuple[Residual, ...]
    segments: tuple[tuple[ex.Tape, Sequence[int]], ...]
    columns: Mapping[str, tuple[int, ...]] = field(compare=False, repr=False)

    @classmethod
    def over(cls, dimension: int, variables: Sequence[Variable]) -> "ResidualSystem":
        """The system of no rows over ``variables``."""
        columns: dict[str, list[int]] = {}
        for v in variables:
            columns.setdefault(v.entity_id, []).append(v.index)
        return cls(dimension, tuple(variables), (), (),
                   {eid: tuple(cols) for eid, cols in columns.items()})

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_residuals(self) -> int:
        return len(self.residuals)

    def variable_names(self) -> list[str]:
        return [v.name for v in self.variables]

    @cached_property
    def _rows(self) -> dict[tuple[str, str | None], tuple[int, ...]]:
        """Rows of each (kind, source), in system order."""
        rows: dict[tuple[str, str | None], list[int]] = {}
        for r in self.residuals:
            rows.setdefault((r.kind, r.source), []).append(r.index)
        return {key: tuple(idx) for key, idx in rows.items()}

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted variable indices of each row: the equation graph's edges."""
        return tuple(tape.variables[i] for tape, rows in self.segments for i in rows)

    @cached_property
    def plan(self) -> ex.Plan:
        """The evaluation plan of every row, built on first use."""
        return ex.Plan(self.segments, self.n_variables)

    def _tape_rows(self, rows: Sequence[int]) -> list[tuple[ex.Tape, list[int]]]:
        """``rows`` as runs of rows of one tape, in order; a row out of range
        raises :class:`IndexError`."""
        firsts = [0]
        for _, used in self.segments:
            firsts.append(firsts[-1] + len(used))
        parts: list[tuple[ex.Tape, list[int]]] = []
        lo = hi = 0
        for r in rows:
            if not lo <= r < hi:
                if not 0 <= r < firsts[-1]:
                    raise IndexError(f"row {r} out of range for {firsts[-1]} rows")
                k = bisect.bisect_right(firsts, r) - 1
                lo, hi = firsts[k], firsts[k + 1]
                tape, used = self.segments[k]
                parts.append((tape, []))
            parts[-1][1].append(used[r - lo])
        return parts

    def select(self, rows: Sequence[int]) -> "ResidualSystem":
        """The system of just ``rows``, in that order and renumbered from 0,
        over the same variables.  It shares the tapes of those rows; a row
        out of range raises :class:`IndexError`."""
        parts = self._tape_rows(rows)
        residuals = self.residuals
        return ResidualSystem(self.dimension, self.variables,
                              tuple(residuals[r]._replace(index=k) for k, r in enumerate(rows)),
                              tuple((tape, tuple(used)) for tape, used in parts), self.columns)

    def _extend(self, tape: ex.Tape, added: Sequence[tuple]) -> "ResidualSystem":
        """This system's rows, then the rows of ``tape``: ``added`` holds their
        (name, kind, source, singular)."""
        residuals = (Residual(self.n_residuals + k, *row) for k, row in enumerate(added))
        return ResidualSystem(self.dimension, self.variables, (*self.residuals, *residuals),
                              self.segments + ((tape, range(len(added))),), self.columns)

    def columns_of(self, entity_ids: Iterable[str]) -> list[int]:
        columns = self.columns
        return sorted(j for eid in set(entity_ids) for j in columns.get(eid, ()))

    def entity_slice(self, entity_id: str) -> slice:
        """The columns of one entity, which are consecutive."""
        columns = self.columns[entity_id]
        return slice(columns[0], columns[-1] + 1)

    def singular_rows(self) -> list[int]:
        return [r.index for r in self.residuals if r.singular]

    def anchor_rows(self) -> list[int]:
        return [r.index for r in self.residuals if r.kind == "anchor"]

    def without_anchors(self) -> "ResidualSystem":
        if ("anchor", None) not in self._rows:
            return self
        return self.select([r.index for r in self.residuals if r.kind != "anchor"])


def _cross(a: Sequence[ex.Term], b: Sequence[ex.Term], i: int) -> ex.Term:
    """Component ``i`` of the cross product a x b (``a`` is read at the other
    two indices only)."""
    j, k = (i + 1) % 3, (i + 2) % 3
    return a[j] * b[k] - a[k] * b[j]


def _offset(plane: Entity, v: list[ex.Term], p: Sequence[ex.Term]) -> ex.Term:
    """The signed offset of point ``p`` from a plane in either scheme."""
    if plane.spec.representation == HESSIAN:
        return ex.dot(v[0:3], p) + v[3]
    # point-normal: p0 (0..2), n (3..5)
    return ex.dot(v[3:6], [p[i] - v[i] for i in range(3)])


def _dropped_axis(entity: Entity) -> int:
    """The dominant axis of a 3D line's or plane's sketch direction (the last
    axis without one): the cross product of near-parallel vectors is
    orthogonal to them, so that component carries no information."""
    lo = 0 if entity.spec.representation == HESSIAN else 3
    d0 = np.array(entity.params[lo:lo + 3] if entity.params is not None else [0.0] * 3,
                  dtype=float)
    norm = np.linalg.norm(d0)
    return int(np.argmax(np.abs(d0 / norm))) if norm > 1e-12 else 2


def _direction_of(entity: Entity, v: list[ex.Term],
                  drop: int | None = None) -> tuple[list[ex.Term], Sequence[int]]:
    """The direction operands of a 3D line or plane, and the cross-product
    components a constraint on that direction emits: all but ``drop``."""
    lo = 0 if entity.spec.representation == HESSIAN else 3
    return v[lo:lo + 3], [i for i in range(3) if i != drop]


# 3D kinds whose rows are cross-product components -> the entity whose
# sketch direction picks the component left out (:func:`_dropped_axis`)
_CROSSED = {"parallel": 0, "point-on-line": 1}


def _emit_constraint(model: Model, c: Constraint, env: dict[str, list[ex.Term]],
                     drop: int | None) -> Iterator[ex.Term]:
    """Write the left side of each of the constraint's rows (less
    :func:`_constants`) and yield its root; the caller ends the row before
    the next one is written.  A 3D ``_CROSSED`` kind leaves out component
    ``drop``, or none when it is None."""
    dim = model.dimension
    ents = [model.entity(eid) for eid in c.entities]
    v = [env[eid] for eid in c.entities]
    kind = c.kind

    if kind == "distance-pp":
        diff = [v[1][i] - v[0][i] for i in range(dim)]
        yield ex.dot(diff, diff)

    elif kind in ("distance-pl", "point-on-line") and dim == 2:
        (px, py), (phi, rho) = v
        signed = px * ex.cos(phi) + py * ex.sin(phi) - rho
        yield signed if kind == "point-on-line" else ex.square(signed)

    elif kind in ("distance-pl", "distance-ll") and dim == 3:
        # from the point to the line, or from line 2's point to line 1 (the
        # lines held parallel by a separate constraint)
        p, lv = v if kind == "distance-pl" else v[::-1]
        rel = [p[i] - lv[i] for i in range(3)]
        cr = [_cross(rel, lv[3:6], i) for i in range(3)]
        yield ex.dot(cr, cr)

    elif kind == "distance-ll":
        yield ex.square(v[0][1] - v[1][1])

    elif kind == "distance-pplane":
        yield ex.square(_offset(ents[1], v[1], v[0]))

    elif kind == "distance-planeplane":
        if ents[0].spec.representation == HESSIAN and ents[1].spec.representation == HESSIAN:
            yield ex.square(v[0][3] - ex.dot(v[0][0:3], v[1][0:3]) * v[1][3])
        else:
            # in the point-normal scheme the offset of plane 2's point from plane 1
            yield ex.square(_offset(ents[0], v[0], v[1][0:3]))

    elif kind == "angle-ll" and dim == 2:
        yield ex.square(v[0][0] - v[1][0])

    elif kind in ("parallel", "perpendicular") and dim == 2:
        yield (ex.sin if kind == "parallel" else ex.cos)(v[0][0] - v[1][0])

    elif kind in ("angle-ll", "angle-planeplane", "perpendicular"):  # 3D: the cosine
        yield ex.dot(_direction_of(ents[0], v[0])[0], _direction_of(ents[1], v[1])[0])

    elif kind == "point-on-line":
        p, lv = v
        for i in _direction_of(ents[1], lv, drop)[1]:
            # p - l, on this row, at the two indices component i reads
            rel = {j: p[j] - lv[j] for j in ((i + 1) % 3, (i + 2) % 3)}
            yield _cross(rel, lv[3:6], i)

    elif kind == "point-on-plane":
        yield _offset(ents[1], v[1], v[0])

    elif kind == "parallel":
        u1, kept = _direction_of(ents[0], v[0], drop)
        u2, _ = _direction_of(ents[1], v[1])
        for i in kept:
            yield _cross(u1, u2, i)

    elif kind in ("coincident", "fix"):
        for i in range(dim):
            yield v[0][i] - v[1][i] if kind == "coincident" else v[0][i]

    else:
        raise CompileError(f"unsupported constraint kind {kind!r}")


def _constants(model: Model, c: Constraint) -> tuple[float, ...]:
    """The number each row of ``c`` subtracts from the left side that
    :func:`_emit_constraint` writes, or none: a distance's square, (pi - v)^2
    for a 2D angle, cos v for a 3D one, a ``fix``'s sketch coordinates."""
    if c.kind == "fix":
        return tuple(map(float, model.entity(c.entities[0]).params[:model.dimension]))
    value_kind = getattr(CONSTRAINT_KINDS.get(c.kind), "value_kind", None)
    if value_kind == "distance":
        return (c.value * c.value,)
    if value_kind == "angle" and model.dimension == 2:
        return ((math.pi - c.value) * (math.pi - c.value),)
    return (math.cos(c.value),) if value_kind == "angle" else ()


def compile_model(model: Model) -> ResidualSystem:
    """Compile a validated model into a residual system.

    Raises :class:`CompileError`, with the violations, when validation
    reports any, or when a constraint kind has no emitter.
    """
    problems = validate(model)
    if problems:
        raise CompileError("; ".join(f"{p.code}[{p.subject}]: {p.message}" for p in problems),
                           problems)

    variables: list[Variable] = []
    for e in model.entities:
        for comp, pname in enumerate(e.spec.param_names):
            variables.append(Variable(len(variables), e.id, comp, f"{e.id}.{pname}"))
    system = add_constraints(ResidualSystem.over(model.dimension, variables),
                             model, model.constraints)
    columns = system.columns
    tape = ex.Tape()
    rows = []
    for e in model.entities:
        groups = e.spec.unit_groups
        if not groups:
            continue
        flat = columns[e.id]
        _write_rows(tape, ("unit", e.kind, e.representation), flat, (1.0,) * len(groups),
                    lambda: (ex.dot(vec, vec) for vec in (
                        [tape.var(flat[i]) for i in group] for group in groups)))
        rows += [(f"unit:{e.id}", "normalization", e.id, True)] * len(groups)
    return system._extend(tape, rows)


# The rows of each signature -> per row, its structure, each var node's
# position among the signature's columns and its left side's constants.  A
# constraint's signature is every input the emitter branches on (kind,
# dimension, the dropped cross-product component or None, each entity's kind
# and representation); an entity's normalization rows are keyed ("unit",
# kind, representation).  A template is complete when it is stored.
_TEMPLATES: dict[tuple, tuple[tuple[int, tuple[int, ...], tuple[float, ...]], ...]] = {}


def _write_rows(tape: ex.Tape, key: tuple, flat: Sequence[int], constants: Sequence[float],
                emit: Callable[[], Iterable[ex.Term]]) -> int:
    """Append the rows of signature ``key`` over the columns ``flat`` to
    ``tape``, each left side less its number in ``constants`` if any, and
    return how many: stamped from the stored template, or else written from
    the left sides that ``emit`` yields (unended) and stored as it."""
    template = _TEMPLATES.get(key)
    if template is None:
        first = len(tape.rows)
        for k, lhs in enumerate(emit()):
            tape.end_row(lhs - constants[k] if constants else lhs)
        at = {j: k for k, j in enumerate(flat)}
        template = _TEMPLATES[key] = tuple(
            (shape, tuple(at[j] for j in reads), tuple(values[:-1] if constants else values))
            for shape, reads, values, _ in tape.rows[first:])
    else:
        for k, (shape, offsets, values) in enumerate(template):
            tape.stamp(shape, [flat[o] for o in offsets],
                       [*values, float(constants[k])] if constants else list(values))
    return len(template)


def add_constraints(system: ResidualSystem, model: Model, constraints: Sequence[Constraint],
                    full_cross: bool = False) -> ResidualSystem:
    """Append the residual rows of constraints on the entities of ``model``.

    :func:`compile_model` emits the model's own constraints this way, and
    decomposition appends virtual distance bonds to a compiled system.
    ``full_cross`` emits every cross-product component (:func:`full_cross`).
    The first constraint of a signature is emitted through terms, and the
    others stamp its rows with their own columns and constants.  A
    constraint that names an entity twice raises :class:`CompileError`.
    """
    columns = system.columns
    dim = model.dimension
    tape = ex.Tape()
    kinds: dict[str, tuple] = {}  # each entity's part of the key
    rows = []
    for c in constraints:
        if len(set(c.entities)) < len(c.entities):
            raise CompileError(f"constraint {c.id!r} names an entity twice: {list(c.entities)}")
        for eid in c.entities:
            if eid not in kinds:
                e = model.entity(eid)
                kinds[eid] = (e.kind, e.representation)
        crossed = _CROSSED.get(c.kind) if dim == 3 and not full_cross else None
        drop = None if crossed is None else _dropped_axis(model.entity(c.entities[crossed]))
        key = (c.kind, dim, drop, *[kinds[eid] for eid in c.entities])
        n = _write_rows(tape, key, [j for eid in c.entities for j in columns[eid]],
                        _constants(model, c), lambda: _emit_constraint(model, c, {
                            eid: [tape.var(j) for j in columns[eid]] for eid in c.entities}, drop))
        singular = CONSTRAINT_KINDS[c.kind].singular
        rows += [(c.id if n == 1 else f"{c.id}[{k}]", "constraint", c.id, singular)
                 for k in range(n)]
    return system._extend(tape, rows)


def full_cross(system: ResidualSystem, model: Model) -> ResidualSystem:
    """``system``, compiled from ``model``, with all three cross-product rows of
    each 3D ``parallel`` and ``point-on-line`` constraint in place of its two:
    the exact singular variety that a witness is projected onto.  The rows
    keep compile order (constraints in model order, then ``system``'s other
    rows); a system with no such constraint is returned as it is."""
    crossed = {c.id: c for c in model.constraints
               if model.dimension == 3 and c.kind in _CROSSED}
    if not crossed:
        return system
    n = system.n_residuals
    extended = add_constraints(system, model, list(crossed.values()), full_cross=True)
    order = [r for c in model.constraints for r in extended._rows.get(("constraint", c.id), ())
             if (r >= n) == (c.id in crossed)]
    return extended.select(order + [r.index for r in system.residuals if r.kind != "constraint"])


def points_of(system: ResidualSystem, model: Model,
              entity_ids: Collection[str] | None = None) -> list[str]:
    """Ids of the point entities in column order (which is model order), from
    ``entity_ids`` only when it is given: the order :func:`add_anchors` pins."""
    point_tag = POINT2 if system.dimension == 2 else POINT3
    columns = system.columns
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
    columns = system.columns
    points = [model.entity(eid) for eid in points_of(system, model, entity_ids)]
    need = 2 if system.dimension == 2 else 3
    if len(points) < need:
        raise AnchorError(
            f"anchoring a {system.dimension}D system needs {need} point entities, "
            f"model has {len(points)}")
    tape = ex.Tape()

    def pv(entity_id: str, comp_name: str) -> ex.Term:
        comp = model.entity(entity_id).spec.param_names.index(comp_name)
        return tape.var(columns[entity_id][comp])

    rows = []

    def push(root: ex.Term, name: str):
        tape.end_row(root)
        rows.append((name, "anchor", None, False))

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

    return system._extend(tape, rows)


def _assignment(system: ResidualSystem, assignment: Sequence[float]) -> np.ndarray:
    x = np.asarray(assignment, dtype=float)
    if x.shape != (system.n_variables,):
        raise ValueError(f"assignment must have length {system.n_variables}, got {x.shape}")
    return x


def eval_residuals(system: ResidualSystem, assignment: Sequence[float]) -> np.ndarray:
    """Residual values of every row, in row order."""
    return system.plan.values(_assignment(system, assignment))


def eval_blocks(system: ResidualSystem,
                blocks: Iterable[tuple[Sequence[int], Sequence[str],
                                       Mapping[str, Sequence[float]]]]) -> np.ndarray:
    """Residual values of blocks of rows, each at its own entity parameters.

    ``blocks`` holds (rows, the entities they name, parameters of at least
    those entities), and the values follow in block order, then row order.
    One plan evaluates every block, over a compact assignment that holds
    each block's entities' parameters in turn, so the work and memory grow
    with the rows, not with the blocks times the variables.
    """
    columns = system.columns
    blocks = list(blocks)
    # the rows of every block, as runs of rows of one tape, and each row's
    # var nodes' columns
    parts = system._tape_rows([r for rows, _, _ in blocks for r in rows])
    variables = iter([tape.rows[i][1] for tape, used in parts for i in used])
    reads: list[int] = []    # each var node's position in the assignment
    values: list[float] = []
    for rows, entity_ids, params in blocks:
        at: dict[int, int] = {}  # a column of this block -> its position
        for eid in entity_ids:
            for j, v in zip(columns[eid], params[eid]):
                at[j] = len(values)
                values.append(v)
        for _ in rows:
            reads += map(at.__getitem__, next(variables))
    return ex.Plan(parts, len(values), reads).values(np.array(values, dtype=float))


def eval_jacobian(system: ResidualSystem, assignment: Sequence[float]) -> np.ndarray:
    """Analytic Jacobian, entry (i, j) = d r_i / d x_j, scattered from the
    tape's derivative triplets."""
    return system.plan.jacobian(_assignment(system, assignment))


def dump_equations(system: ResidualSystem) -> str:
    """Textual listing, one residual per line, deterministic order."""
    names = system.variable_names()
    rendered = (tape.render(i, names) for tape, rows in system.segments for i in rows)
    return "\n".join(f"{r.index:3d} {r.kind[:4]:4s} {r.name}: {text} = 0"
                     for r, text in zip(system.residuals, rendered))


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

    A constraint is induced when all of its entities are in the subset
    (:func:`induced_constraints`); its rows are induced with it, as are the
    normalization rows of the subset's entities.  Anchor rows never are.
    """
    keep = set(entity_ids)
    cids = induced_constraints(model, keep)
    return cids, rows_of(system, cids, keep)


def induced_constraints(model: Model, entity_ids: set[str]) -> frozenset[str]:
    """The ids of the constraints all of whose entities are in ``entity_ids``."""
    return frozenset(c.id for eid in entity_ids for c in model.constraints_on(eid)
                     if entity_ids.issuperset(c.entities))


def rows_of(system: ResidualSystem, constraint_ids: Collection[str],
            entity_ids: Collection[str]) -> list[int]:
    """Residual rows of the given constraints, then normalization rows of the
    given entities, in system order; anchor rows never."""
    rows = system._rows
    picked = [i for cid in set(constraint_ids) for i in rows.get(("constraint", cid), ())]
    picked += [i for eid in set(entity_ids) for i in rows.get(("normalization", eid), ())]
    picked.sort()
    return picked


def row_count(system: ResidualSystem, constraint_ids: Collection[str],
              entity_ids: Collection[str]) -> int:
    """The length of :func:`rows_of` for distinct ids, without building the
    list."""
    rows = system._rows
    return (sum([len(rows.get(("constraint", cid), ())) for cid in constraint_ids])
            + sum([len(rows.get(("normalization", eid), ())) for eid in entity_ids]))


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
    variables = [Variable(j, variable_names[j], 0, variable_names[j]) for j in range(n)]
    tape = ex.Tape()
    for i in range(m):
        terms = float(-b[i])
        for j in range(n):
            if A[i, j] != 0.0:
                terms = terms + float(A[i, j]) * tape.var(j)
        tape.end_row(terms)
    rows = [(f"E{i + 1}", "constraint", f"E{i + 1}", False) for i in range(m)]
    return ResidualSystem.over(0, variables)._extend(tape, rows)
